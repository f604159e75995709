// Package shm models FT-Linux's inter-replica messaging layer: "mail box"
// areas in shared memory through which the otherwise fully isolated kernel
// replicas communicate (§3, first design bullet).
//
// A Ring is a unidirectional bounded message channel with cache-coherency
// propagation latency. Senders block when the ring is full — this is the
// mechanism behind the paper's burst-vs-sustained throughput split (§4.1):
// in a short burst the primary only fills buffers; over a long period it
// must slow to the secondary's drain rate.
//
// Rings support vectored transfers: SendBatch coalesces N payloads behind
// one slot header and one propagation event, so the replication layer can
// amortize the per-message overhead that dominates Figure 5/7 traffic.
//
// The sending side is a lock-free MPSC ring with zero-copy reservation:
// a producer claims a slot span with Reserve (a fetch-add on the write
// cursor plus FIFO capacity admission), writes payloads in place with
// Span.Put, and publishes the whole span with one Commit — the single
// release-store the consumer's acquire-load pairs with. Send and
// SendBatch are thin wrappers over that path. The pre-optimization
// baseline — a global sender mutex protecting a copy-in — is preserved
// as a switchable model (SetSenderModel) so benchmarks can quantify the
// win; see DESIGN.md §14 for the memory-model argument.
//
// Because the rings live in shared memory, messages survive the death of
// the sending kernel: only a cache-coherency-disrupting fault can lose the
// messages still in flight from the failed partition (§3.5). A Fabric
// groups all rings of a deployment, implements that loss semantics, and
// aggregates the message/byte counters reported in Figures 5 and 7.
package shm

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

// headerBytes is the per-transfer overhead accounted by the traffic
// counters: one cache line for the slot header, as in Popcorn's messaging
// layer. A batch shares a single header across all of its payloads.
const headerBytes = 64

// Message is one entry in a mailbox ring. Payload is the structured content
// the receiver reads out of shared memory; Size is the payload's footprint
// in bytes for traffic accounting. Stream labels the logical sub-channel a
// message belongs to when several sequencer shards multiplex one ring
// (messages of one stream stay FIFO relative to each other; the ring keeps
// everything FIFO anyway, but per-stream counters expose the multiplex mix).
type Message struct {
	Kind    int
	Payload any
	Size    int
	Stream  int
	SentAt  sim.Time
}

// Stats counts traffic through a ring or fabric. Messages counts ring
// transfers (each paying one slot header), Payloads counts the application
// messages carried — Payloads/Messages is the batching efficiency.
type Stats struct {
	Messages int64 // ring transfers; a batch counts once
	Payloads int64 // application payloads carried; batch members count individually
	Batches  int64 // transfers that carried more than one payload
	Bytes    int64 // includes per-transfer header overhead
	Dropped  int64 // payloads lost to coherency faults

	// ReserveWaits counts reservations that had to park for capacity
	// (drain-rate backpressure events); LockWaits counts parks on the
	// sender mutex of the locked-copy baseline model. SendWaitNs is the
	// total virtual time senders spent blocked in either state — the
	// "sender blocking" signal the fabric benchmark compares across
	// models.
	ReserveWaits int64
	LockWaits    int64
	SendWaitNs   int64

	// HighWaterBytes is the peak occupancy (delivered + in flight) the
	// ring ever reached — the sizing signal for capBytes. Aggregating
	// takes the max, not the sum: peaks on different rings are not
	// simultaneous, so a sum would describe no real moment.
	HighWaterBytes int64
}

func (s Stats) add(o Stats) Stats {
	hw := s.HighWaterBytes
	if o.HighWaterBytes > hw {
		hw = o.HighWaterBytes
	}
	return Stats{
		Messages:       s.Messages + o.Messages,
		Payloads:       s.Payloads + o.Payloads,
		Batches:        s.Batches + o.Batches,
		Bytes:          s.Bytes + o.Bytes,
		Dropped:        s.Dropped + o.Dropped,
		ReserveWaits:   s.ReserveWaits + o.ReserveWaits,
		LockWaits:      s.LockWaits + o.LockWaits,
		SendWaitNs:     s.SendWaitNs + o.SendWaitNs,
		HighWaterBytes: hw,
	}
}

// inflight is a transfer written by the sender but not yet visible to the
// receiver (still propagating through the cache hierarchy). A vectored
// transfer propagates — and is lost to a coherency fault — as a unit.
// A doomed transfer is one a chaos hook condemned: it occupies ring
// capacity while propagating and then vanishes instead of delivering.
type inflight struct {
	msgs   []Message
	ev     sim.Event
	bytes  int64
	doomed bool
}

// ChaosVerdict is a fault-injection decision for one ring transfer,
// returned by the hook installed with SetChaosHook. The zero value lets
// the transfer through untouched. Drop loses the transfer in propagation
// (capacity is freed when the doomed transfer would have delivered); Dup
// enqueues that many extra copies of the transfer (ignored when Drop is
// set); Delay adds propagation latency on top of the ring's base latency.
type ChaosVerdict struct {
	Drop  bool
	Dup   int
	Delay time.Duration
}

// slot is one delivered message plus the ring bytes it occupies (the first
// member of a batch carries the shared header).
type slot struct {
	msg   Message
	bytes int64
}

// SenderModel selects how the sending side of a ring is modelled.
type SenderModel int

const (
	// SenderLockFree is the reserve/commit MPSC path: claim order is
	// publication order, producers never serialize on a mutex, and
	// payloads are written in place (no copy cost).
	SenderLockFree SenderModel = iota

	// SenderLockedCopy is the pre-optimization baseline: every blocking
	// send takes a global per-ring mutex and pays a modelled copy-in cost
	// while holding it. Kept switchable so `ftbench -exp fabric` can
	// measure what the lock-free reservation buys.
	SenderLockedCopy
)

// LockedCopyCost is the modelled cost of the locked-copy baseline's
// critical section: slot bookkeeping per payload plus the memcpy into the
// ring, both paid while the sender mutex is held.
type LockedCopyCost struct {
	PerPayload time.Duration
	PerByte    time.Duration
}

// DefaultLockedCopyCost models a contended cache line plus memcpy:
// ~1µs of slot accounting per payload and 2ns/byte of copy bandwidth.
func DefaultLockedCopyCost() LockedCopyCost {
	return LockedCopyCost{PerPayload: time.Microsecond, PerByte: 2 * time.Nanosecond}
}

// Ring is a bounded unidirectional mailbox. It is identified by the sending
// partition so that a coherency fault on that partition can drop its
// in-flight messages.
type Ring struct {
	name     string
	src      int // sending partition index
	sim      *sim.Simulation
	fabric   *Fabric
	capBytes int64
	latency  time.Duration

	used      int64 // bytes occupied: delivered + in flight + reserved
	delivered int64
	onDeliver []func()
	buf       []slot
	inflight  []*inflight
	sendQ     *sim.WaitQueue
	recvQ     *sim.WaitQueue
	stats     Stats
	sc        *obs.Scope

	resQ  []*resTicket // reservations waiting for capacity, claim order
	spans []*Span      // admitted spans not yet published, claim order

	model    SenderModel
	copyCost LockedCopyCost
	lockQ    *sim.WaitQueue // locked-copy baseline: parked lock waiters
	locked   bool           // locked-copy baseline: sender mutex state

	chaos       func(msgs []Message) ChaosVerdict
	lastDeliver sim.Time // latest scheduled delivery instant, FIFO clamp

	streams map[int]*StreamStats // per-stream traffic, keyed by Message.Stream
}

// StreamStats counts one logical sub-channel's traffic through a ring —
// the per-shard breakdown when sequencer shards multiplex one mailbox.
type StreamStats struct {
	Stream   int
	Payloads int64
	Bytes    int64 // payload bytes only; the slot header belongs to the transfer
}

// Fabric owns every ring of a deployment.
type Fabric struct {
	sim      *sim.Simulation
	latency  time.Duration
	rings    []*Ring
	model    SenderModel
	copyCost LockedCopyCost
}

// NewFabric creates a fabric whose rings propagate messages with the given
// cross-partition latency (typically Partition.CrossLatency).
func NewFabric(s *sim.Simulation, latency time.Duration) *Fabric {
	return &Fabric{sim: s, latency: latency}
}

// NewRing creates a bounded mailbox of capBytes sent by partition src.
func (f *Fabric) NewRing(name string, src int, capBytes int64) *Ring {
	if capBytes < headerBytes {
		panic(fmt.Sprintf("shm: ring %q capacity %d below one slot", name, capBytes))
	}
	r := &Ring{
		name:     name,
		src:      src,
		sim:      f.sim,
		fabric:   f,
		capBytes: capBytes,
		latency:  f.latency,
		sendQ:    sim.NewWaitQueue(f.sim),
		recvQ:    sim.NewWaitQueue(f.sim),
		lockQ:    sim.NewWaitQueue(f.sim),
		model:    f.model,
		copyCost: f.copyCost,
	}
	f.rings = append(f.rings, r)
	return r
}

// SetSenderModel switches every ring of the fabric (existing and future)
// between the lock-free reserve/commit path and the locked-copy baseline.
// The zero-valued cost means "use DefaultLockedCopyCost".
func (f *Fabric) SetSenderModel(m SenderModel, cost LockedCopyCost) {
	if m == SenderLockedCopy && cost == (LockedCopyCost{}) {
		cost = DefaultLockedCopyCost()
	}
	f.model = m
	f.copyCost = cost
	for _, r := range f.rings {
		r.model = m
		r.copyCost = cost
	}
}

// SenderModel reports which sending-side model the ring runs.
func (r *Ring) SenderModel() SenderModel { return r.model }

// Stats aggregates traffic across all rings of the fabric.
func (f *Fabric) Stats() Stats {
	var total Stats
	for _, r := range f.rings {
		total = total.add(r.stats)
	}
	return total
}

// Rings returns every ring of the fabric in creation order — the stable
// order core wires them in, so iterating is deterministic.
func (f *Fabric) Rings() []*Ring { return f.rings }

// RingStats is one ring's identity plus its traffic counters, for
// per-ring reporting (Figure 5/7 style breakdowns by channel).
type RingStats struct {
	Name string
	Src  int
	Stats
}

// PerRing returns each ring's counters individually, in creation order.
// The aggregate Stats hides which channel is hot; this is the breakdown.
func (f *Fabric) PerRing() []RingStats {
	out := make([]RingStats, 0, len(f.rings))
	for _, r := range f.rings {
		out = append(out, RingStats{Name: r.name, Src: r.src, Stats: r.stats})
	}
	return out
}

// DropInflight models a cache-coherency-disrupting fault on the given
// sending partition: every message from that partition that has not yet
// become visible to its receiver is lost (§3.5). It reports how many
// payloads were dropped. Freed capacity wakes blocked senders — without
// the wake-up a sender parked on a full ring would hang forever after the
// fault even though space is available again.
func (f *Fabric) DropInflight(src int) int {
	dropped := 0
	for _, r := range f.rings {
		if r.src != src {
			continue
		}
		lost := 0
		freed := false
		for _, in := range r.inflight {
			in.ev.Cancel()
			r.used -= in.bytes
			r.stats.Dropped += int64(len(in.msgs))
			lost += len(in.msgs)
			freed = true
		}
		r.inflight = nil
		// Reserved spans — open or committed-but-unpublished — are lost
		// too: their slots sit on the failed partition's side of the
		// coherency boundary and the consumer can never advance over them.
		// Payloads already written into a span count as dropped (they were
		// log entries the replayer will now see as a gap); the reservation
		// itself just returns to the ring.
		for _, sp := range r.spans {
			sp.aborted = true
			sp.committed = false
			r.used -= sp.reserved
			r.stats.Dropped += int64(len(sp.msgs))
			lost += len(sp.msgs)
			freed = true
		}
		r.spans = nil
		if lost > 0 {
			dropped += lost
			r.sc.Emit(obs.LogDrop, 0, 0, int64(lost))
		}
		if freed {
			r.sc.Emit(obs.RingDepth, 0, 0, r.used)
			r.wakeSenders()
		}
	}
	return dropped
}

// Name returns the ring's name.
func (r *Ring) Name() string { return r.name }

// Src returns the index of the sending partition.
func (r *Ring) Src() int { return r.src }

// Instrument attaches an event scope to the ring. Deliveries emit
// RingDeliver events and occupancy transitions emit RingDepth samples
// (a Chrome counter track). A nil scope leaves the ring uninstrumented.
func (r *Ring) Instrument(sc *obs.Scope) { r.sc = sc }

// Stats returns the ring's traffic counters.
func (r *Ring) Stats() Stats { return r.stats }

// StreamStats returns the per-stream traffic breakdown sorted by stream id
// (the stream map iterates in arbitrary order; the sort restores a
// deterministic view). Rings carrying only unlabelled traffic report a
// single stream 0.
func (r *Ring) StreamStats() []StreamStats {
	out := make([]StreamStats, 0, len(r.streams))
	for _, ss := range r.streams { // ftvet:nondet collect-then-sort
		out = append(out, *ss)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Stream < out[j].Stream })
	return out
}

// Len reports the number of messages delivered and waiting to be received.
func (r *Ring) Len() int { return len(r.buf) }

// InFlight reports the number of transfers still propagating.
func (r *Ring) InFlight() int { return len(r.inflight) }

// Latency reports the ring's propagation delay.
func (r *Ring) Latency() time.Duration { return r.latency }

// Delivered reports how many messages have become visible to the receiver
// (the consumer-side slot state a sender can poll for receipt, §3.5).
// Every payload of a vectored transfer counts individually, so watermarks
// derived from Delivered stay comparable to per-message send counts.
func (r *Ring) Delivered() int64 { return r.delivered }

// OnDelivered registers a callback fired each time a transfer becomes
// visible to the receiver. Callbacks run in scheduler context and must not
// block; the output-commit machinery uses them to learn of receipt without
// waiting for the receiver to be scheduled.
func (r *Ring) OnDelivered(fn func()) { r.onDeliver = append(r.onDeliver, fn) }

// Free reports the remaining capacity in bytes. Producers that must not
// block (e.g. packet-ingress hooks) check it to apply backpressure by
// dropping work instead of messages.
func (r *Ring) Free() int64 { return r.capBytes - r.used }

// batchFootprint is the ring space a vectored transfer occupies: the sum of
// the payload sizes plus one shared slot header.
func (r *Ring) batchFootprint(msgs []Message) int64 {
	total := int64(headerBytes)
	for _, m := range msgs {
		total += int64(m.Size)
	}
	return total
}

// payloadBytes sums the payload sizes of a batch (the reservation budget;
// the shared header is accounted by the reservation itself).
func payloadBytes(msgs []Message) int64 {
	var total int64
	for _, m := range msgs {
		total += int64(m.Size)
	}
	return total
}

// TrySend attempts a non-blocking send. It reports false if the ring lacks
// space or earlier reservations are still queued ahead of it.
func (r *Ring) TrySend(m Message) bool {
	return r.TrySendBatch([]Message{m})
}

// TrySendBatch attempts a non-blocking vectored send of all msgs as one
// transfer. It reports false (sending nothing) if the ring lacks space for
// the whole batch, if earlier reservations are queued (claiming now would
// publish out of order), or — under the locked-copy baseline — if the
// sender mutex is held. An empty batch trivially succeeds.
func (r *Ring) TrySendBatch(msgs []Message) bool {
	if len(msgs) == 0 {
		return true
	}
	if r.model == SenderLockedCopy && r.locked {
		return false
	}
	sp := r.TryReserve(len(msgs), payloadBytes(msgs))
	if sp == nil {
		return false
	}
	for _, m := range msgs {
		sp.Put(m)
	}
	sp.Commit()
	return true
}

// Send writes a message into the ring, blocking the calling process while
// the ring is full. Admission is strictly FIFO by claim order: a blocked
// send holds its place in the ring sequence, so a later smaller message
// can never be admitted ahead of it (that reordering would let two
// concurrent log flushes swap, which the replayer would see as a gap).
func (r *Ring) Send(p *sim.Proc, m Message) {
	r.SendBatch(p, []Message{m})
}

// SendBatch writes all msgs into the ring as one vectored transfer sharing
// a single slot header and a single propagation event, blocking while the
// batch does not fit. The batch is delivered atomically: receivers observe
// its members contiguously and in order. It is a wrapper over the
// reserve/commit path — under the locked-copy baseline model it first
// takes the ring's sender mutex and pays the modelled copy-in cost while
// holding it.
func (r *Ring) SendBatch(p *sim.Proc, msgs []Message) {
	if len(msgs) == 0 {
		return
	}
	fp := r.batchFootprint(msgs)
	if fp > r.capBytes {
		panic(fmt.Sprintf("shm: batch of %d bytes exceeds ring %q capacity %d", fp, r.name, r.capBytes))
	}
	if r.model == SenderLockedCopy {
		r.lockSender(p)
		// Deferred so a sender killed mid-copy (or mid-admission) releases
		// the mutex as its process unwinds instead of jamming the ring.
		defer r.unlockSender()
		if hold := r.copyHold(msgs); hold > 0 {
			p.Sleep(hold)
		}
	}
	sp := r.Reserve(p, len(msgs), payloadBytes(msgs))
	for _, m := range msgs {
		sp.Put(m)
	}
	sp.Commit()
}

// copyHold is the modelled duration of the locked-copy critical section.
func (r *Ring) copyHold(msgs []Message) time.Duration {
	return time.Duration(len(msgs))*r.copyCost.PerPayload +
		time.Duration(payloadBytes(msgs))*r.copyCost.PerByte
}

// lockSender takes the locked-copy baseline's per-ring sender mutex.
func (r *Ring) lockSender(p *sim.Proc) {
	start := r.sim.Now()
	waited := false
	for r.locked {
		waited = true
		r.lockQ.Wait(p)
	}
	r.locked = true
	if waited {
		r.stats.LockWaits++
		r.stats.SendWaitNs += int64(r.sim.Now().Sub(start))
	}
}

func (r *Ring) unlockSender() {
	r.locked = false
	r.lockQ.WakeAll(0)
}

// SetChaosHook installs a fault-injection hook consulted once per
// transfer, at span commit (chaos layer only; nil uninstalls). The hook
// runs in whatever context the committing sender runs in and must not
// block.
func (r *Ring) SetChaosHook(fn func(msgs []Message) ChaosVerdict) { r.chaos = fn }

// publish turns a committed span into propagation: the chaos hook rules
// on the whole span once, then each copy (one, several under Dup, none
// surviving under Drop — a doomed copy still propagates and vanishes)
// is enqueued as a single transfer.
func (r *Ring) publish(sp *Span) {
	// One publication event per committed span, regardless of chaos
	// copies: Seq is the sent-payload watermark after this span, which
	// the causal layer pairs with the RingDeliver watermark downstream.
	r.sc.Emit(obs.SpanCommit, 0, r.stats.Payloads+int64(len(sp.msgs)), int64(len(sp.msgs)))
	var v ChaosVerdict
	if r.chaos != nil {
		v = r.chaos(sp.msgs)
	}
	copies := 1
	if !v.Drop && v.Dup > 0 {
		copies += v.Dup
	}
	for c := 0; c < copies; c++ {
		r.enqueue(sp, c > 0, v.Delay, v.Drop)
	}
}

// enqueue schedules one propagation of a committed span. Delivery
// instants are clamped monotonic per ring: a transfer slowed by chaos
// delay pushes the delivery horizon forward for everything sent after
// it, so injected delay can never reorder a FIFO mailbox (which would
// turn a latency fault into an impossible log gap). The first copy's
// bytes were accounted at reservation time; a dup copy occupies
// additional capacity of its own.
func (r *Ring) enqueue(sp *Span, dupCopy bool, extra time.Duration, doomed bool) {
	now := r.sim.Now()
	in := &inflight{msgs: make([]Message, len(sp.msgs)), bytes: sp.reserved, doomed: doomed}
	for i, m := range sp.msgs {
		m.SentAt = now
		in.msgs[i] = m
	}
	if dupCopy {
		r.used += in.bytes
		if r.used > r.stats.HighWaterBytes {
			r.stats.HighWaterBytes = r.used
		}
	}
	r.stats.Messages++
	r.stats.Payloads += int64(len(in.msgs))
	if len(in.msgs) > 1 {
		r.stats.Batches++
	}
	r.stats.Bytes += in.bytes
	for _, m := range in.msgs {
		if r.streams == nil {
			r.streams = make(map[int]*StreamStats)
		}
		ss := r.streams[m.Stream]
		if ss == nil {
			ss = &StreamStats{Stream: m.Stream}
			r.streams[m.Stream] = ss
		}
		ss.Payloads++
		ss.Bytes += int64(m.Size)
	}
	if dupCopy {
		r.sc.Emit(obs.RingDepth, 0, 0, r.used)
	}
	at := now.Add(r.latency + extra)
	if at < r.lastDeliver {
		at = r.lastDeliver
	}
	r.lastDeliver = at
	in.ev = r.sim.Schedule(at.Sub(now), func() { r.deliver(in) })
	r.inflight = append(r.inflight, in)
}

func (r *Ring) deliver(in *inflight) {
	for i, x := range r.inflight {
		if x == in {
			r.inflight = append(r.inflight[:i], r.inflight[i+1:]...)
			break
		}
	}
	if in.doomed {
		r.used -= in.bytes
		r.stats.Dropped += int64(len(in.msgs))
		r.sc.Emit(obs.LogDrop, 0, 0, int64(len(in.msgs)))
		r.sc.Emit(obs.RingDepth, 0, 0, r.used)
		r.wakeSenders()
		return
	}
	for i, m := range in.msgs {
		b := int64(m.Size)
		if i == 0 {
			b += headerBytes // the batch's shared header travels with its first member
		}
		r.buf = append(r.buf, slot{msg: m, bytes: b})
	}
	r.delivered += int64(len(in.msgs))
	r.sc.Emit(obs.RingDeliver, 0, r.delivered, int64(len(in.msgs)))
	for _, fn := range r.onDeliver {
		fn()
	}
	r.recvQ.WakeOne(0)
}

// TryRecv attempts a non-blocking receive. It reports false if no message
// is available.
func (r *Ring) TryRecv() (Message, bool) {
	if len(r.buf) == 0 {
		return Message{}, false
	}
	return r.pop(), true
}

// Recv blocks the calling process until a message is available, then
// returns it.
func (r *Ring) Recv(p *sim.Proc) Message {
	for len(r.buf) == 0 {
		r.recvQ.Wait(p)
	}
	return r.pop()
}

// RecvBatch blocks until at least one message is available, then returns
// up to max delivered messages (all of them if max <= 0) without waiting
// for more. Hot-path receivers use it to drain a vectored delivery in one
// scheduling round.
func (r *Ring) RecvBatch(p *sim.Proc, max int) []Message {
	for len(r.buf) == 0 {
		r.recvQ.Wait(p)
	}
	n := len(r.buf)
	if max > 0 && n > max {
		n = max
	}
	out := make([]Message, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, r.pop())
	}
	return out
}

// RecvTimeout is like Recv but gives up after d, reporting false.
func (r *Ring) RecvTimeout(p *sim.Proc, d time.Duration) (Message, bool) {
	deadline := r.sim.Now().Add(d)
	for len(r.buf) == 0 {
		remain := deadline.Sub(r.sim.Now())
		if remain <= 0 || !r.recvQ.WaitTimeout(p, remain) {
			if len(r.buf) > 0 {
				break
			}
			return Message{}, false
		}
	}
	return r.pop(), true
}

func (r *Ring) pop() Message {
	s := r.buf[0]
	r.buf = r.buf[1:]
	r.used -= s.bytes
	r.sc.Emit(obs.RingDepth, 0, 0, r.used)
	r.wakeSenders()
	return s.msg
}

// wakeSenders runs after capacity frees: queued reservations are admitted
// head-first while they fit (one large receive can admit several small
// pending spans), then every parked sender wakes to pick up its span.
func (r *Ring) wakeSenders() {
	r.admitWaiters()
	r.sendQ.WakeAll(0)
}

// Drain removes and returns every delivered message without blocking. The
// failover path uses it to collect the log the dead primary left behind.
// Reserved-but-uncommitted spans are released: their contents were never
// published, so no drain can recover them, and leaving the reservation in
// place would jam the ring's sequence forever (a sender that died between
// Reserve and Commit is exactly the leak the ftvet lockorder analyzer
// flags statically). Committed spans queued behind such a hole publish
// normally once it is released — like in-flight transfers, they survive
// the sender's death.
func (r *Ring) Drain() []Message {
	out := make([]Message, 0, len(r.buf))
	for _, s := range r.buf {
		out = append(out, s.msg)
		r.used -= s.bytes
	}
	r.buf = nil
	for _, sp := range append([]*Span(nil), r.spans...) {
		if sp.Open() {
			sp.Abort()
		}
	}
	r.sc.Emit(obs.RingDepth, 0, 0, r.used)
	r.wakeSenders()
	return out
}
