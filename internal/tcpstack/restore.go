package tcpstack

import (
	"bytes"
	"fmt"
)

// ConnSnapshot is the logical state of one connection — what FT-Linux's
// TCP-stack replication component maintains on the secondary (§3.4) so
// that, upon failover, the new primary can bring its own stack to a state
// indistinguishable from the last externally visible state of the dead
// primary's stack.
//
// A snapshot never aliases a connection's queues: Snapshot returns copies,
// and Restore copies SndData and RcvData in.
type ConnSnapshot struct {
	LocalPort int
	Remote    Addr

	ISS, IRS uint64
	// SndUna is the lowest output stream sequence not acknowledged by the
	// remote client; SndData holds the output bytes starting there that
	// must be retransmittable after failover.
	SndUna  uint64
	SndData []byte
	// RcvNxt is the next expected input sequence; RcvData holds input
	// bytes acknowledged to the client but not yet consumed by the
	// application.
	RcvNxt  uint64
	RcvData []byte
	PeerFin bool
	SndWnd  int
}

// Snapshot captures the connection's logical state. SndData and RcvData
// are fresh copies the caller owns; the connection's queues are untouched.
func (c *Conn) Snapshot() ConnSnapshot {
	return ConnSnapshot{
		LocalPort: c.key.localPort,
		Remote:    c.RemoteAddr(),
		ISS:       c.iss,
		IRS:       c.irs,
		SndUna:    c.sndUna,
		SndData:   bytes.Clone(c.sndBuf.Bytes()),
		RcvNxt:    c.rcvNxt,
		RcvData:   bytes.Clone(c.rcvBuf.Bytes()),
		PeerFin:   c.peerFin,
		SndWnd:    c.SndWnd(),
	}
}

// SndWnd returns the peer's advertised window (exported for snapshots).
func (c *Conn) SndWnd() int { return c.sndWnd }

// Restore materializes an ESTABLISHED connection from a snapshot in this
// stack — the failover promotion path. The caller should Kick the returned
// connection once the NIC is operational. Restore copies SndData and
// RcvData into the connection's own queues, so the caller keeps ownership
// of the snapshot's slices and may pass views of buffers it goes on using.
func (s *Stack) Restore(cs ConnSnapshot) (*Conn, error) {
	key := connKey{localPort: cs.LocalPort, remoteHost: cs.Remote.Host, remotePort: cs.Remote.Port}
	if _, exists := s.conns[key]; exists {
		return nil, fmt.Errorf("tcpstack: restore %v: connection already exists", key)
	}
	c := newConn(s, key, stateEstablished)
	c.iss = cs.ISS
	c.irs = cs.IRS
	c.sndUna = cs.SndUna
	c.sndNxt = cs.SndUna
	c.sndBase = cs.SndUna
	c.sndBuf.Write(cs.SndData)
	c.rcvNxt = cs.RcvNxt
	c.rcvBuf.Write(cs.RcvData)
	c.peerFin = cs.PeerFin
	if c.peerFin {
		c.state = stateCloseWait
	}
	c.sndWnd = cs.SndWnd
	if c.sndWnd <= 0 {
		c.sndWnd = s.params.RecvBuf
	}
	s.conns[key] = c
	return c, nil
}
