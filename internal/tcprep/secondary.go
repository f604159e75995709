package tcprep

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/kernel"
	"repro/internal/shm"
	"repro/internal/sim"
	"repro/internal/tcpstack"
)

// LogicalConn is the secondary's synchronized copy of one replicated
// connection's logical TCP state (§3.4). Offsets are 0-based stream
// offsets; meta maps them back to raw sequence numbers at promotion.
type LogicalConn struct {
	key      ConnKey
	iss, irs uint64

	// in holds input bytes [inBase, inBase+len): streamed from the primary
	// but not yet consumed by the replica's replayed reads. In retention
	// mode inBase stays 0 and consumed bytes are kept — inRead marks how
	// far the replayed application has read.
	in     []byte
	inBase uint64
	inRead int

	// out holds replica-regenerated output bytes [outBase, outBase+Len):
	// everything the client has not acknowledged, retransmittable after
	// failover. outBase advances with ackOut updates, but never past what
	// the replica has regenerated: ackTarget remembers the highest
	// watermark so output produced later is trimmed on arrival instead of
	// being retransmitted to a client that already acknowledged it. A
	// bytes.Buffer, so trimming the head slides the window in place.
	out       bytes.Buffer
	outBase   uint64
	ackTarget uint64

	peerFin   bool
	appClosed bool
	gone      bool

	dataQ *sim.WaitQueue

	// live is the real connection after promotion.
	live *tcpstack.Conn
}

// Key returns the connection's four-tuple.
func (lc *LogicalConn) Key() ConnKey { return lc.key }

// InBuffered reports synced input bytes not yet consumed by replay.
func (lc *LogicalConn) InBuffered() int { return len(lc.in) - lc.inRead }

// OutBuffered reports replica output bytes not yet acknowledged by the
// client.
func (lc *LogicalConn) OutBuffered() int { return lc.out.Len() }

// Live returns the promoted real connection, or nil before failover.
func (lc *LogicalConn) Live() *tcpstack.Conn { return lc.live }

// Secondary maintains the logical TCP states on the backup replica and
// promotes them into a live stack at failover (§3.7).
type Secondary struct {
	kern *kernel.Kernel
	sync *shm.Ring

	syncCost  time.Duration
	retain    bool
	conns     map[ConnKey]*LogicalConn
	order     []ConnKey // insertion order, for deterministic promotion
	binds     map[uint64]ConnKey
	bindOrder []uint64 // announcement order, for deterministic history
	bindQ     *sim.WaitQueue
	puller    *kernel.Task
	promoted  bool

	// Stats.
	DataBytes int64 // input bytes synced
	Updates   int64 // sync messages applied
	Batches   int64 // vectored deliveries drained (more than one update at once)
}

// SecondaryConfig tunes the sync-state maintainer.
type SecondaryConfig struct {
	// Cost is the per-update CPU cost — the serial TCP-state maintenance
	// path whose expense makes network I/O synchronization costlier than
	// Pthreads schedule replication (§4.2). Zero means free.
	Cost time.Duration
	// Retain keeps every connection's complete input stream (consumed
	// bytes included) and never drops reaped connections, so the full
	// logical TCP history can be checkpointed for backup re-integration.
	Retain bool
	// DeferPull creates the maintainer without starting the sync pull
	// loop: a rejoining backup first applies the checkpoint's state
	// snapshot (Seed) and then calls StartPull to consume the deltas that
	// queued on the ring meanwhile.
	DeferPull bool
}

// DefaultSecondaryCost is the calibrated per-update TCP-state maintenance
// cost (§4.2).
const DefaultSecondaryCost = 25 * time.Microsecond

// NewSecondary starts the sync-state maintainer on the secondary kernel
// with the default per-update processing cost.
func NewSecondary(k *kernel.Kernel, sync *shm.Ring) *Secondary {
	return NewSecondaryOpts(k, sync, SecondaryConfig{Cost: DefaultSecondaryCost})
}

// NewSecondaryCost is NewSecondary with an explicit per-update CPU cost.
func NewSecondaryCost(k *kernel.Kernel, sync *shm.Ring, cost time.Duration) *Secondary {
	return NewSecondaryOpts(k, sync, SecondaryConfig{Cost: cost})
}

// NewSecondaryOpts creates the sync-state maintainer with explicit policy.
func NewSecondaryOpts(k *kernel.Kernel, sync *shm.Ring, cfg SecondaryConfig) *Secondary {
	s := &Secondary{
		kern:     k,
		sync:     sync,
		syncCost: cfg.Cost,
		retain:   cfg.Retain,
		conns:    make(map[ConnKey]*LogicalConn),
		binds:    make(map[uint64]ConnKey),
		bindQ:    sim.NewWaitQueue(k.Sim()),
	}
	if !cfg.DeferPull {
		s.StartPull()
	}
	return s
}

// StartPull starts consuming the sync ring. It is a no-op if the pull loop
// is already running or the maintainer has been promoted.
func (s *Secondary) StartPull() {
	if s.puller != nil || s.promoted {
		return
	}
	s.puller = s.kern.Spawn("tcprep-sync", s.pullLoop)
}

// Conns reports the number of logical connections held.
func (s *Secondary) Conns() int { return len(s.conns) }

func (s *Secondary) pullLoop(t *kernel.Task) {
	for {
		batch := s.sync.RecvBatch(t.Proc(), 0)
		if len(batch) > 1 {
			s.Batches++
		}
		for _, m := range batch {
			if s.syncCost > 0 {
				t.Compute(s.syncCost)
			}
			s.apply(m)
		}
	}
}

func (s *Secondary) logical(key ConnKey) *LogicalConn {
	lc, ok := s.conns[key]
	if !ok {
		lc = &LogicalConn{key: key, dataQ: sim.NewWaitQueue(s.kern.Sim())}
		s.conns[key] = lc
		s.order = append(s.order, key)
	}
	return lc
}

func (s *Secondary) apply(m shm.Message) {
	s.Updates++
	switch m.Kind {
	case syncConnMeta:
		meta := m.Payload.(connMeta)
		lc := s.logical(meta.Key)
		lc.iss, lc.irs = meta.ISS, meta.IRS
		s.bindQ.WakeAll(0)
	case syncDataIn:
		d := m.Payload.(dataIn)
		lc := s.logical(d.Key)
		lc.in = append(lc.in, d.Data...)
		s.DataBytes += int64(len(d.Data))
		lc.dataQ.WakeAll(0)
	case syncAckOut:
		a := m.Payload.(ackOut)
		lc := s.logical(a.Key)
		lc.trimOut(a.Acked)
	case syncPeerFin:
		f := m.Payload.(peerFin)
		lc := s.logical(f.Key)
		lc.peerFin = true
		lc.dataQ.WakeAll(0)
	case syncBind:
		b := m.Payload.(bind)
		if _, ok := s.binds[b.ID]; !ok {
			s.bindOrder = append(s.bindOrder, b.ID)
		}
		s.binds[b.ID] = b.Key
		s.bindQ.WakeAll(0)
	case syncGone:
		g := m.Payload.(gone)
		if lc, ok := s.conns[g.Key]; ok {
			lc.gone = true
			s.maybeDrop(lc)
		}
	}
}

func (lc *LogicalConn) trimOut(acked uint64) {
	if acked > lc.ackTarget {
		lc.ackTarget = acked
	}
	lc.applyTrim()
}

// applyTrim discards regenerated output up to the acknowledged watermark.
// The watermark can run ahead of the replica (an ackOut delta arrives
// before replay regenerates those bytes — routine for a rejoining backup,
// which starts with an empty out buffer and a checkpoint watermark), so the
// trim is re-applied after every appendOut until outBase catches up.
func (lc *LogicalConn) applyTrim() {
	if lc.ackTarget <= lc.outBase {
		return
	}
	n := lc.ackTarget - lc.outBase
	if n > uint64(lc.out.Len()) {
		n = uint64(lc.out.Len())
	}
	lc.out.Next(int(n))
	lc.outBase += n
}

func (s *Secondary) maybeDrop(lc *LogicalConn) {
	if s.retain || !(lc.gone && lc.appClosed) || s.promoted {
		return
	}
	delete(s.conns, lc.key)
	for i, k := range s.order {
		if k == lc.key {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
}

// bindWait blocks until the connection bound to the replicated socket ID is
// known, then returns its logical state.
func (s *Secondary) bindWait(t *kernel.Task, id uint64) *LogicalConn {
	for {
		if key, ok := s.binds[id]; ok {
			lc := s.logical(key)
			if lc.iss != 0 || lc.irs != 0 {
				return lc
			}
		}
		s.bindQ.Wait(t.Proc())
	}
}

// readReplay consumes exactly n synced input bytes, blocking until the sync
// stream has delivered them (they are guaranteed to arrive: the primary
// recorded the read only after its stack delivered the bytes).
func (s *Secondary) readReplay(t *kernel.Task, lc *LogicalConn, n int) []byte {
	for len(lc.in)-lc.inRead < n {
		lc.dataQ.Wait(t.Proc())
	}
	out := make([]byte, n)
	copy(out, lc.in[lc.inRead:lc.inRead+n])
	if s.retain {
		lc.inRead += n
	} else {
		lc.in = lc.in[n:]
		lc.inBase += uint64(n)
	}
	return out
}

// appendOut accumulates replica-regenerated output bytes, discarding any
// prefix the client has already acknowledged.
func (s *Secondary) appendOut(lc *LogicalConn, data []byte) {
	lc.out.Write(data)
	lc.applyTrim()
}

// markClosed records the replayed application's close.
func (s *Secondary) markClosed(lc *LogicalConn) {
	lc.appClosed = true
	s.maybeDrop(lc)
}

// Promote drains the sync ring and materializes every live logical
// connection in the given stack, returning the restored connections. Call
// after the replication log has been replayed to the stable point and the
// NIC driver is loaded.
func (s *Secondary) Promote(stack *tcpstack.Stack) ([]*tcpstack.Conn, error) {
	if s.promoted {
		return nil, fmt.Errorf("tcprep: already promoted")
	}
	s.promoted = true
	if s.puller != nil {
		s.puller.Kill()
	}
	for _, m := range s.sync.Drain() {
		s.apply(m)
	}
	var restored []*tcpstack.Conn
	for _, key := range s.order {
		lc := s.conns[key]
		if lc.gone && lc.appClosed {
			continue
		}
		snap := tcpstack.ConnSnapshot{
			LocalPort: key.LocalPort,
			Remote:    tcpstack.Addr{Host: key.RemoteHost, Port: key.RemotePort},
			ISS:       lc.iss,
			IRS:       lc.irs,
			SndUna:    lc.iss + 1 + lc.outBase,
			SndData:   lc.out.Bytes(), // Restore copies
			RcvNxt:    lc.irs + 1 + lc.inBase + uint64(len(lc.in)),
			RcvData:   lc.in[lc.inRead:],
			PeerFin:   lc.peerFin,
		}
		if lc.peerFin {
			snap.RcvNxt++ // the FIN consumed one sequence number
		}
		c, err := stack.Restore(snap)
		if err != nil {
			return restored, fmt.Errorf("tcprep: promote %v: %w", key, err)
		}
		lc.live = c
		c.Kick()
		restored = append(restored, c)
	}
	return restored, nil
}

// Seed applies a rejoin checkpoint's logical TCP state. It must run before
// StartPull: the snapshot covers everything up to the checkpoint cut, and
// the sync ring (attached at the same instant on the primary) carries
// exactly the deltas after it, so the two compose without overlap.
func (s *Secondary) Seed(snap StateSnap) {
	for _, cs := range snap.Conns {
		lc := s.logical(cs.Key)
		lc.iss, lc.irs = cs.ISS, cs.IRS
		lc.in = append([]byte(nil), cs.In...)
		s.DataBytes += int64(len(cs.In))
		lc.ackTarget = cs.Acked
		lc.peerFin = cs.PeerFin
		lc.gone = cs.Gone
		lc.dataQ.WakeAll(0)
	}
	for _, b := range snap.Binds {
		if _, ok := s.binds[b.ID]; !ok {
			s.bindOrder = append(s.bindOrder, b.ID)
		}
		s.binds[b.ID] = b.Key
	}
	s.bindQ.WakeAll(0)
}

// SeedOutBase aligns each seeded connection's out-buffer base with the
// epoch checkpoint's send cursors. A checkpoint-seeded backup replays the
// delta log from the epoch cut, so the first output byte it regenerates
// sits at the cut's cumulative sent offset — a from-the-start replay's
// zero base would misattribute every regenerated byte and promote a
// corrupted stream. Call between Seed (which installs the binds) and the
// start of delta replay. The snapshot's acked watermark may exceed a
// cursor (bytes sent after the cut, acknowledged by the snapshot instant);
// applyTrim already re-applies the watermark as replay appends catch up.
func (s *Secondary) SeedOutBase(cur []SendCursor) {
	for _, c := range cur {
		key, ok := s.binds[c.ID]
		if !ok {
			continue
		}
		lc := s.logical(key)
		if c.Sent > lc.outBase {
			lc.outBase = c.Sent
		}
	}
}

// HistoryLog converts the retained logical state into a connection log for
// the promoted side's detached primary, which carries the history forward
// so the next rejoin can be checkpointed from it. Requires retention.
func (s *Secondary) HistoryLog() *ConnLog {
	if !s.retain {
		panic("tcprep: HistoryLog requires a retaining secondary")
	}
	cl := NewConnLog()
	for _, key := range s.order {
		lc := s.conns[key]
		h := cl.hist(key)
		h.iss, h.irs = lc.iss, lc.irs
		h.in = append([]byte(nil), lc.in...)
		h.acked = lc.ackTarget
		h.peerFin = lc.peerFin
		h.gone = lc.gone
	}
	for _, id := range s.bindOrder {
		cl.bind(id, s.binds[id])
	}
	return cl
}
