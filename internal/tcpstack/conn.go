package tcpstack

import (
	"bytes"
	"time"

	"repro/internal/kernel"
	"repro/internal/sim"
)

// connState is the TCP connection state.
type connState int

const (
	stateSynSent connState = iota + 1
	stateSynRcvd
	stateEstablished
	stateFinWait1
	stateFinWait2
	stateCloseWait
	stateLastAck
	stateClosing
	stateTimeWait
	stateClosed
)

var stateNames = map[connState]string{
	stateSynSent:     "SYN_SENT",
	stateSynRcvd:     "SYN_RCVD",
	stateEstablished: "ESTABLISHED",
	stateFinWait1:    "FIN_WAIT_1",
	stateFinWait2:    "FIN_WAIT_2",
	stateCloseWait:   "CLOSE_WAIT",
	stateLastAck:     "LAST_ACK",
	stateClosing:     "CLOSING",
	stateTimeWait:    "TIME_WAIT",
	stateClosed:      "CLOSED",
}

func (s connState) String() string { return stateNames[s] }

// Conn is one TCP connection endpoint.
type Conn struct {
	stack *Stack
	key   connKey
	state connState
	err   error

	// Send side. sndBuf holds the stream bytes [sndBase, sndBase+Len);
	// bytes below sndUna are acknowledged and trimmed. Both byte queues
	// are bytes.Buffers so a head trim slides the live window back to the
	// front of the same array instead of forcing a reallocation.
	iss     uint64
	sndUna  uint64
	sndNxt  uint64
	sndBase uint64
	sndBuf  bytes.Buffer
	sndWnd  int
	dupAcks int

	// finQueued is set by Close; the FIN occupies sequence finSeq, which is
	// the end of the stream (no data may be appended afterwards).
	finQueued bool
	finSeq    uint64
	closed    bool // local close requested: Send rejected

	// Receive side. rcvBuf holds in-order bytes the application has not
	// read yet, ending at rcvNxt.
	irs     uint64
	rcvNxt  uint64
	rcvBuf  bytes.Buffer
	peerFin bool

	// Retransmission.
	rto      time.Duration
	rtoTimer sim.Event
	synTries int

	listener *Listener // set while pending accept (server side)

	connectQ *sim.WaitQueue
	sendQ    *sim.WaitQueue
	recvQ    *sim.WaitQueue
	pollFns  []func()
}

func newConn(s *Stack, key connKey, st connState) *Conn {
	return &Conn{
		stack:    s,
		key:      key,
		state:    st,
		sndWnd:   s.params.RecvBuf,
		rto:      s.params.RTOMin,
		connectQ: sim.NewWaitQueue(s.kern.Sim()),
		sendQ:    sim.NewWaitQueue(s.kern.Sim()),
		recvQ:    sim.NewWaitQueue(s.kern.Sim()),
	}
}

// LocalAddr returns the connection's local address.
func (c *Conn) LocalAddr() Addr { return Addr{Host: c.stack.host, Port: c.key.localPort} }

// RemoteAddr returns the connection's remote address.
func (c *Conn) RemoteAddr() Addr { return Addr{Host: c.key.remoteHost, Port: c.key.remotePort} }

// State returns the connection state name (for diagnostics and tests).
func (c *Conn) State() string { return c.state.String() }

// Established reports whether the connection is in ESTABLISHED state.
func (c *Conn) Established() bool { return c.state == stateEstablished }

// Err returns the connection's terminal error, if any.
func (c *Conn) Err() error { return c.err }

// BufferedIn reports bytes received but not yet read by the application.
func (c *Conn) BufferedIn() int { return c.rcvBuf.Len() }

// BufferedOut reports stream bytes not yet acknowledged by the peer.
func (c *Conn) BufferedOut() int { return c.sndBuf.Len() }

func (c *Conn) recvWindow() int { return c.stack.params.RecvBuf - c.rcvBuf.Len() }

func (c *Conn) dataEnd() uint64 { return c.sndBase + uint64(c.sndBuf.Len()) }

// sendSegment emits one segment through the egress gate.
func (c *Conn) sendSegment(flags Flags, seq uint64, data []byte, probe bool) {
	seg := &Segment{
		Src:    c.LocalAddr(),
		Dst:    c.RemoteAddr(),
		Seq:    seq,
		Flags:  flags,
		Window: c.recvWindow(),
		Probe:  probe,
		Data:   data,
	}
	if flags.Has(FlagACK) {
		seg.Ack = c.rcvNxt
	}
	c.stack.transmit(seg)
}

func (c *Conn) sendAck() { c.sendSegment(FlagACK, c.sndNxt, nil, false) }

// trySend transmits as much pending data as the peer's window allows,
// followed by the FIN once the stream is fully transmitted.
func (c *Conn) trySend() {
	for {
		wndEnd := c.sndUna + uint64(c.sndWnd)
		end := c.dataEnd()
		if c.sndNxt < end && c.sndNxt < wndEnd {
			n := end - c.sndNxt
			if max := uint64(c.stack.params.MSS); n > max {
				n = max
			}
			if room := wndEnd - c.sndNxt; n > room {
				n = room
			}
			// The segment gets its own copy: it must stay immutable
			// while on the wire or queued for retransmission, and the
			// buffer slides its bytes when the head is trimmed.
			off := c.sndNxt - c.sndBase
			data := make([]byte, n)
			copy(data, c.sndBuf.Bytes()[off:off+n])
			c.sendSegment(FlagACK, c.sndNxt, data, false)
			c.sndNxt += n
			c.armRTO()
			continue
		}
		if c.finQueued && c.sndNxt == c.finSeq {
			c.sendSegment(FlagFIN|FlagACK, c.sndNxt, nil, false)
			c.sndNxt++
			c.armRTO()
		}
		return
	}
}

func (c *Conn) armRTO() {
	if c.rtoTimer.Pending() {
		return
	}
	c.rtoTimer = c.stack.kern.Sim().Schedule(c.rto, c.onRTO)
}

func (c *Conn) resetRTO() {
	c.rtoTimer.Cancel()
	if c.sndUna < c.sndNxt {
		c.armRTO()
	}
}

func (c *Conn) onRTO() {
	switch c.state {
	case stateClosed, stateTimeWait:
		return
	case stateSynSent:
		c.synTries++
		if c.synTries > c.stack.params.SynRetries {
			c.fail(ErrTimeout)
			return
		}
		c.sendSegment(FlagSYN, c.iss, nil, false)
	case stateSynRcvd:
		c.sendSegment(FlagSYN|FlagACK, c.iss, nil, false)
	default:
		if c.sndUna < c.sndNxt {
			// Go-back-N: rewind and retransmit the window.
			c.sndNxt = c.sndUna
			c.trySend()
		} else if c.sndWnd == 0 && (c.sndBuf.Len() > 0 || c.finQueued) {
			// Zero-window probe.
			c.sendSegment(FlagACK, c.sndNxt, nil, true)
		} else {
			return
		}
	}
	if c.rto *= 2; c.rto > c.stack.params.RTOMax {
		c.rto = c.stack.params.RTOMax
	}
	c.armRTO()
}

// handleSegment is the TCP input routine.
func (c *Conn) handleSegment(seg *Segment) {
	if c.state == stateClosed {
		return
	}
	if seg.Flags.Has(FlagRST) {
		c.fail(ErrReset)
		return
	}
	if c.state == stateSynSent {
		if seg.Flags.Has(FlagSYN|FlagACK) && seg.Ack == c.iss+1 {
			c.irs = seg.Seq
			c.rcvNxt = c.irs + 1
			c.sndUna = seg.Ack
			c.sndBase = seg.Ack
			c.sndWnd = seg.Window
			c.establish()
			c.sendAck()
		}
		return
	}
	if seg.Flags.Has(FlagSYN) && c.state == stateSynRcvd {
		// Duplicate SYN: our SYN+ACK was lost.
		c.sendSegment(FlagSYN|FlagACK, c.iss, nil, false)
		return
	}
	if seg.Flags.Has(FlagACK) {
		c.handleAck(seg)
	}
	if c.state == stateClosed {
		return
	}
	if len(seg.Data) > 0 {
		c.handleData(seg)
	}
	if seg.Flags.Has(FlagFIN) {
		c.handleFin(seg)
	}
	if seg.Probe {
		c.sendAck()
	}
}

func (c *Conn) handleAck(seg *Segment) {
	c.sndWnd = seg.Window
	switch {
	case seg.Ack > c.sndUna && seg.Ack <= c.sndNxt:
		if c.state == stateSynRcvd {
			c.establish()
		}
		if seg.Ack > c.sndBase {
			n := seg.Ack - c.sndBase
			if n > uint64(c.sndBuf.Len()) {
				n = uint64(c.sndBuf.Len())
			}
			c.sndBuf.Next(int(n))
			c.sndBase += n
		}
		c.sndUna = seg.Ack
		c.dupAcks = 0
		c.rto = c.stack.params.RTOMin
		c.resetRTO()
		c.sendQ.WakeAll(0)
		c.notifyPoll()
		if c.stack.OnAckIn != nil {
			c.stack.OnAckIn(c, c.OutAcked())
		}
		if c.finQueued && c.sndUna == c.finSeq+1 {
			c.ourFinAcked()
		}
	case seg.Ack == c.sndUna && c.sndUna < c.sndNxt:
		c.dupAcks++
		if c.dupAcks == 3 {
			c.dupAcks = 0
			c.sndNxt = c.sndUna
		}
	}
	c.trySend()
}

func (c *Conn) handleData(seg *Segment) {
	end := seg.Seq + uint64(len(seg.Data))
	switch {
	case end <= c.rcvNxt || seg.Seq > c.rcvNxt:
		// Duplicate or out-of-order: cumulative ACK re-states rcvNxt.
	default:
		data := seg.Data[c.rcvNxt-seg.Seq:]
		free := c.recvWindow()
		if len(data) > free {
			data = data[:free]
		}
		if len(data) > 0 {
			c.rcvBuf.Write(data)
			c.rcvNxt += uint64(len(data))
			if c.stack.OnDataIn != nil {
				c.stack.OnDataIn(c, data)
			}
			c.recvQ.WakeAll(0)
			c.notifyPoll()
		}
	}
	c.sendAck()
}

func (c *Conn) handleFin(seg *Segment) {
	finSeq := seg.Seq + uint64(len(seg.Data))
	if finSeq != c.rcvNxt {
		c.sendAck() // old duplicate FIN, or FIN beyond a gap
		return
	}
	c.rcvNxt++
	c.peerFin = true
	if c.stack.OnPeerFin != nil {
		c.stack.OnPeerFin(c)
	}
	switch c.state {
	case stateEstablished:
		c.state = stateCloseWait
	case stateFinWait1:
		c.state = stateClosing
	case stateFinWait2:
		c.enterTimeWait()
	}
	c.recvQ.WakeAll(0)
	c.notifyPoll()
	c.sendAck()
}

func (c *Conn) ourFinAcked() {
	switch c.state {
	case stateFinWait1:
		c.state = stateFinWait2
	case stateClosing:
		c.enterTimeWait()
	case stateLastAck:
		c.reap()
	}
}

func (c *Conn) establish() {
	c.state = stateEstablished
	if c.stack.OnEstablished != nil {
		c.stack.OnEstablished(c)
	}
	c.connectQ.WakeAll(0)
	if c.listener != nil {
		c.listener.connReady(c)
		c.listener = nil
	}
	c.notifyPoll()
}

func (c *Conn) enterTimeWait() {
	c.state = stateTimeWait
	c.releaseQueues()
	c.stack.kern.Sim().Schedule(c.stack.params.TimeWait, func() {
		if c.state == stateTimeWait {
			c.reap()
		}
	})
}

// reap finishes the connection without error.
func (c *Conn) reap() {
	c.state = stateClosed
	c.releaseQueues()
	c.rtoTimer.Cancel()
	delete(c.stack.conns, c.key)
	if c.stack.OnReaped != nil {
		c.stack.OnReaped(c)
	}
	c.connectQ.WakeAll(0)
	c.sendQ.WakeAll(0)
	c.recvQ.WakeAll(0)
	c.notifyPoll()
}

// releaseQueues drops the byte queues' arrays once the connection can send
// nothing more, so a lingering or reaped connection holds no payload
// memory. Unread input stays: Recv keeps draining after close.
func (c *Conn) releaseQueues() {
	c.sndBuf = bytes.Buffer{}
	if c.rcvBuf.Len() == 0 {
		c.rcvBuf = bytes.Buffer{}
	}
}

// fail terminates the connection with an error (RST received, timeout).
func (c *Conn) fail(err error) {
	if c.state == stateClosed {
		return
	}
	c.err = err
	c.reap()
}

// Send writes data to the connection, blocking until every byte is
// accepted into the send buffer. It returns the number of bytes written.
func (c *Conn) Send(t *kernel.Task, data []byte) (int, error) {
	t.Syscall()
	written := 0
	for written < len(data) {
		if c.err != nil {
			return written, c.err
		}
		if c.closed || c.state == stateClosed {
			return written, ErrClosed
		}
		free := c.stack.params.SendBuf - c.sndBuf.Len()
		if free == 0 {
			c.sendQ.Wait(t.Proc())
			continue
		}
		n := len(data) - written
		if n > free {
			n = free
		}
		c.sndBuf.Write(data[written : written+n])
		written += n
		if cost := c.stack.params.SegmentCPU; cost > 0 {
			segs := (n + c.stack.params.MSS - 1) / c.stack.params.MSS
			t.Busy(time.Duration(segs) * cost)
		}
		c.trySend()
	}
	return written, nil
}

// Recv reads up to max bytes, blocking until data is available. It returns
// EOF once the peer has closed and all data has been consumed.
func (c *Conn) Recv(t *kernel.Task, max int) ([]byte, error) {
	t.Syscall()
	for c.rcvBuf.Len() == 0 {
		if c.err != nil {
			return nil, c.err
		}
		if c.peerFin {
			return nil, EOF
		}
		if c.state == stateClosed {
			return nil, ErrClosed
		}
		c.recvQ.Wait(t.Proc())
	}
	n := c.rcvBuf.Len()
	if n > max {
		n = max
	}
	wasFull := c.recvWindow() == 0
	out := make([]byte, n)
	c.rcvBuf.Read(out)
	if cost := c.stack.params.SegmentCPU; cost > 0 {
		segs := (n + c.stack.params.MSS - 1) / c.stack.params.MSS
		t.Busy(time.Duration(segs) * cost)
	}
	if wasFull {
		c.sendAck() // window update: reopen the peer's send window
	}
	return out, nil
}

// Close initiates an orderly shutdown: the FIN goes out after all buffered
// data. Further Sends fail with ErrClosed; Recv continues to drain.
func (c *Conn) Close(t *kernel.Task) error {
	t.Syscall()
	if c.closed {
		return nil
	}
	c.closed = true
	switch c.state {
	case stateEstablished:
		c.state = stateFinWait1
	case stateCloseWait:
		c.state = stateLastAck
	case stateSynSent, stateSynRcvd:
		c.reap()
		return nil
	default:
		return nil
	}
	c.finQueued = true
	c.finSeq = c.dataEnd()
	c.trySend()
	c.notifyPoll()
	return nil
}

// Abort terminates the connection immediately, sending an RST.
func (c *Conn) Abort() {
	if c.state == stateClosed {
		return
	}
	c.sendSegment(FlagRST|FlagACK, c.sndNxt, nil, false)
	c.fail(ErrClosed)
}

// ISS returns the initial send sequence number.
func (c *Conn) ISS() uint64 { return c.iss }

// IRS returns the peer's initial sequence number.
func (c *Conn) IRS() uint64 { return c.irs }

// InStream reports how many input-stream bytes have been received in order
// (and acknowledged or about to be acknowledged to the peer).
func (c *Conn) InStream() uint64 {
	if c.rcvNxt == 0 {
		return 0
	}
	n := c.rcvNxt - c.irs - 1
	if c.peerFin {
		n-- // the FIN consumed one sequence number
	}
	return n
}

// OutAcked reports how many output-stream bytes the peer has acknowledged.
func (c *Conn) OutAcked() uint64 {
	if c.sndUna <= c.iss {
		return 0
	}
	n := c.sndUna - c.iss - 1
	if c.finQueued && c.sndUna == c.finSeq+1 {
		n-- // the FIN consumed one sequence number
	}
	return n
}

// PeerFin reports whether the peer's FIN has been accepted.
func (c *Conn) PeerFin() bool { return c.peerFin }

// Kick re-arms transmission after a Restore: it retransmits unacknowledged
// data from sndUna and re-announces the receive window, so both directions
// resynchronize with the peer after failover.
func (c *Conn) Kick() {
	if c.state == stateClosed {
		return
	}
	c.sndNxt = c.sndUna
	c.dupAcks = 0
	c.trySend()
	c.sendAck()
}
