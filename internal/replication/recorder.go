package replication

import (
	"sort"

	"repro/internal/kernel"
	"repro/internal/obs"
	"repro/internal/pthread"
	"repro/internal/shm"
	"repro/internal/sim"
)

// stableWaiter is a piece of output waiting for its log watermark to be
// acknowledged by the secondary (output commit, §3.5).
type stableWaiter struct {
	watermark uint64
	fn        func()
	heldAt    sim.Time // when the wait began, for the commit-stall histogram
}

// ReplicaWatermark is one backup link's entry in the recorder's
// per-replica receipt watermark vector: the highest log-message receipt
// the backup has acknowledged, plus its link state. It is plain data —
// nothing ever waits on the vector itself (the armable output-commit
// waiters live in stableQ) — which is the shape the ftvet watermark
// analyzer's data-vector exemption recognizes.
type ReplicaWatermark struct {
	// Index is the link's position in construction/AddReplica order — the
	// same index DropReplica takes.
	Index int
	// Watermark is the cumulative receipt acknowledgement: every log
	// message below it is in the backup's memory (§3.5 receipt, not
	// processing).
	Watermark uint64
	// Dead marks a failed link; Syncing marks a rejoined backup still
	// replaying retained history, excluded from the output-commit set.
	Dead    bool
	Syncing bool
}

// replicaLink is the recorder's view of one backup replica: its log ring,
// its acknowledgement ring, the receipt watermark observed so far, and the
// tuples written but not yet published to the ring.
type replicaLink struct {
	idx   int
	log   *shm.Ring
	acks  *shm.Ring
	acked uint64
	dead  bool

	// base is the absolute log index of the first message this link's
	// ring ever carries: zero for a boot-time link, the recorder's
	// truncation base (histBase) for a link added after epoch truncation
	// started dropping history. Ring delivery counts are ring-local, so
	// every receipt watermark derived from them is offset by base.
	base uint64

	// epochAcked is the highest epoch boundary this backup has verified
	// against its replay watermark and truncated its own log at
	// (msgEpochAck). The primary truncates retained history once a
	// commit-quorum of backups has acknowledged an epoch.
	epochAcked uint64

	// span is the link's open zero-copy reservation: emitted tuples are
	// written straight into the ring's reserved slots and published in one
	// Commit when the batch fills (or a deadline/output commit forces it).
	// pending is the spill path — tuples buffered off-ring when no
	// reservation could be claimed (ring full, or the locked-copy baseline
	// model, which has no reservation to write into). While pending is
	// non-empty new tuples must append behind it, never to a fresh span:
	// the spill was reserved later than nothing, so writing around it
	// would reorder the log.
	span     *shm.Span
	pending  []shm.Message
	deadline sim.Time // flush deadline armed when the link became non-empty

	// A syncing link is a rejoined backup still catching up: new emits
	// append to its backlog behind the retained history, it is excluded
	// from the output-commit set, and it flips into the broadcast set at
	// the instant the backlog drains — the quiesced boundary at which the
	// deployment is replicated again.
	syncing bool
	backlog []shm.Message
}

// Recorder is the primary-side engine: it serializes deterministic
// sections under the namespace det-section locks and streams the log. It
// supports any number of backup replicas (the paper's prototype uses one;
// §6 sketches the extension to more): the log is broadcast to every
// backup and output is stable only when EVERY live backup has received it
// — the conservative rule that also covers a future voting configuration.
//
// With Config.DetShards == 1 there is a single lock — the namespace-wide
// global mutex of Figure 3 — and GlobalSeq is the recorded total order.
// With more shards each sequencing object hashes to one lock, sections on
// different objects run concurrently, and GlobalSeq degrades to a Lamport
// watermark that is still unique and monotone per thread and per object.
// Either way every tuple carries its object's own Seq_obj.
//
// With Config.BatchTuples > 1 the recorder coalesces tuples per backup —
// written in place into an open ring reservation (zero-copy) and published
// as one Commit when the batch fills, when FlushInterval expires, or —
// unconditionally — when an output-commit waiter registers, so strict
// output commit never waits on buffering. Because ring reservation order
// is publication order, concurrent flushes need no mutual exclusion: a
// later batch physically cannot overtake an earlier one. With
// Config.AdaptiveBatching the batch size is steered at runtime by a
// feedback controller (see batchController).
type Recorder struct {
	kern     *kernel.Kernel
	cfg      Config
	replicas []*replicaLink

	mus       []*pthread.Mutex  // det-section locks; one = the global mutex of Figure 3
	objSeq    map[uint64]uint64 // next Seq_obj per sequencing object
	seqGlobal uint64
	sent      uint64
	stableQ   []stableWaiter
	live      bool
	degraded  bool // recording with no caught-up backup (Config.Rejoinable)
	history   []shm.Message
	stats     Stats

	// histBase is the absolute log index of history[0]: zero until epoch
	// truncation starts dropping verified prefixes, after which
	// history[i] is log message histBase+i and len(history) is only the
	// retained suffix. histBytes is the retained payload footprint, kept
	// as a running sum so the retained-size gauge is O(1).
	histBase  uint64
	histBytes int64

	// epochCuts maps a cut epoch number to its truncation base (the
	// sent watermark at the cut); epochSeen is the latest epoch cut,
	// epochDone the highest epoch already truncated (or vacuously
	// settled). onEpochQuorum, if set, runs when an epoch reaches its
	// ack quorum — core uses it to promote the epoch's checkpoint to
	// "latest verified" and release the pending cut.
	epochCuts     map[uint64]uint64
	epochSeen     uint64
	epochDone     uint64
	onEpochQuorum func(epoch uint64)

	// marks is the per-replica receipt watermark vector, refreshed at
	// every link-state transition (ack, delivery, death, catch-up flip);
	// it is what Watermarks exposes to failover election and the flight
	// recorder. ackScratch is the quorum rule's reusable sort buffer.
	marks      map[int]ReplicaWatermark
	ackScratch []uint64

	flushQ *sim.WaitQueue // wakes the flusher task when work or deadlines change
	ctrl   *batchController

	sc          *obs.Scope
	cTuples     *obs.Counter
	hCommitWait *obs.Histogram
	hBatchFill  *obs.Histogram
	hFlushLag   *obs.Histogram
	hShardWait  *obs.Histogram
	cShardSecs  []*obs.Counter // per-shard section counts
}

// newShardLocks builds the det-section lock array: one pthread mutex per
// shard, on a private zero-cost library so lock traffic is pure
// synchronization (the section's CPU cost is charged explicitly).
func newShardLocks(k *kernel.Kernel, shards int) []*pthread.Mutex {
	plib := pthread.NewLib(k, nil)
	plib.SetOpCost(0)
	mus := make([]*pthread.Mutex, shards)
	for i := range mus {
		mus[i] = plib.NewMutex()
	}
	return mus
}

func newRecorder(k *kernel.Kernel, cfg Config, logs, acks []*shm.Ring) *Recorder {
	if len(logs) == 0 || len(logs) != len(acks) {
		panic("replication: recorder needs one log+ack ring pair per backup")
	}
	cfg = cfg.withBatchDefaults()
	r := &Recorder{
		kern:      k,
		cfg:       cfg,
		mus:       newShardLocks(k, cfg.DetShards),
		objSeq:    make(map[uint64]uint64),
		flushQ:    sim.NewWaitQueue(k.Sim()),
		marks:     make(map[int]ReplicaWatermark),
		epochCuts: make(map[uint64]uint64),
	}
	if cfg.AdaptiveBatching {
		r.ctrl = newBatchController(cfg)
	}
	for i := range logs {
		r.addLink(&replicaLink{log: logs[i], acks: acks[i]})
	}
	if cfg.batched() {
		k.Spawn("ft-flush", r.flushLoop)
	}
	return r
}

// newForkRecorder builds the recorder a promoted replica forks into at
// the instant of finishing promotion (Config.Rejoinable): it continues
// the dead primary's sequence space (seqGlobal plus the per-object
// cursors) and inherits the replayed history, so a backup rejoined later
// can catch up from the fork's retention base. histBase is the absolute
// log index of hist[0] — zero for a full-history backup, the latest
// verified epoch boundary for one that truncated at epoch checkpoints.
// It starts degraded, with no backup links.
func newForkRecorder(k *kernel.Kernel, cfg Config, hist []shm.Message, histBase, seqGlobal uint64, objSeq map[uint64]uint64) *Recorder {
	cfg = cfg.withBatchDefaults()
	if objSeq == nil {
		objSeq = make(map[uint64]uint64)
	}
	var histBytes int64
	for _, m := range hist {
		histBytes += int64(m.Size)
	}
	r := &Recorder{
		kern:      k,
		cfg:       cfg,
		mus:       newShardLocks(k, cfg.DetShards),
		objSeq:    objSeq,
		flushQ:    sim.NewWaitQueue(k.Sim()),
		seqGlobal: seqGlobal,
		sent:      histBase + uint64(len(hist)),
		history:   hist,
		histBase:  histBase,
		histBytes: histBytes,
		degraded:  true,
		marks:     make(map[int]ReplicaWatermark),
		epochCuts: make(map[uint64]uint64),
	}
	if cfg.AdaptiveBatching {
		r.ctrl = newBatchController(cfg)
	}
	if cfg.batched() {
		k.Spawn("ft-flush", r.flushLoop)
	}
	return r
}

// addLink registers one backup link: the receipt watermark observed from
// the mailbox consumer-side slot state, and the explicit ack consumer.
func (r *Recorder) addLink(link *replicaLink) {
	link.idx = len(r.replicas)
	r.replicas = append(r.replicas, link)
	r.noteMark(link)
	// Output stability requires only that a backup has RECEIVED the
	// log for subsequent live replay (§3.5), not that it has processed
	// it: the primary learns of receipt by observing the mailbox
	// consumer-side slot state, one coherency hop after delivery.
	k, log := r.kern, link.log
	log.OnDelivered(func() {
		k.Sim().Schedule(log.Latency(), func() {
			if d := link.base + uint64(log.Delivered()); d > link.acked {
				link.acked = d
				r.noteMark(link)
				r.fireStable()
			}
		})
	})
	// Explicit cumulative acknowledgements free log-ring slots faster
	// under backlog and serve as a liveness signal; they are consumed
	// here so the ring never fills.
	k.Spawn("ft-ack", func(t *kernel.Task) { r.ackLoop(t, link) })
}

// catchupChunkBytes bounds one vectored catch-up transfer so the bulk
// replay never monopolizes the log ring against fresh emissions.
const catchupChunkBytes = 256 << 10

// AddReplica wires a fresh backup into the recorder and streams the
// retained history to it as catch-up, while recording continues. The link
// starts in the syncing state — excluded from output commit, fed through
// its backlog — and joins the broadcast set at the quiesced det-section
// boundary where the backlog drains empty (the output-commit watermarks
// of the two sides are equal there: everything sent has been received).
// onCaughtUp, if non-nil, runs at that flip. It returns the link index
// for DropReplica.
func (r *Recorder) AddReplica(log, acks *shm.Ring, onCaughtUp func()) int {
	if !r.cfg.Rejoinable {
		panic("replication: AddReplica requires Config.Rejoinable")
	}
	link := &replicaLink{log: log, acks: acks, syncing: true, base: r.histBase}
	link.backlog = append([]shm.Message(nil), r.history...)
	idx := len(r.replicas)
	r.addLink(link)
	r.kern.Spawn("ft-catchup", func(t *kernel.Task) { r.catchupLoop(t, link, onCaughtUp) })
	return idx
}

// catchupLoop drains the syncing link's backlog in bounded vectored
// chunks. Because new emissions append to the same backlog, draining it
// empty means the backup has received every message ever sent — at that
// instant the link flips into the output-commit set atomically (no yield
// between the last send completing and the flip).
func (r *Recorder) catchupLoop(t *kernel.Task, link *replicaLink, onCaughtUp func()) {
	p := t.Proc()
	for len(link.backlog) > 0 && !link.dead {
		n, bytes := 0, 0
		for n < len(link.backlog) && bytes < catchupChunkBytes {
			bytes += link.backlog[n].Size
			n++
		}
		batch := link.backlog[:n:n]
		link.log.SendBatch(p, batch)
		link.backlog = link.backlog[n:]
		r.stats.LogBatches++
		r.noteFlush(n)
	}
	if link.dead {
		return
	}
	link.syncing = false
	r.degraded = false
	r.noteMark(link)
	r.sc.Emit(obs.CatchupDone, 0, int64(r.sent), 0)
	r.fireStable()
	if onCaughtUp != nil {
		onCaughtUp()
	}
}

func (r *Recorder) ackLoop(t *kernel.Task, link *replicaLink) {
	for {
		m := link.acks.Recv(t.Proc())
		switch m.Kind {
		case msgEpochAck:
			// Epoch-boundary acknowledgement: the backup verified the
			// epoch's digest at its replay frontier and truncated its
			// own retained log there.
			if e, ok := m.Payload.(uint64); ok && e > link.epochAcked {
				link.epochAcked = e
				r.maybeTruncateEpochs()
			}
		default:
			// Cumulative receipt watermark (absolute: a rejoined backup
			// seeds its processed count from the checkpoint it restored).
			if v, ok := m.Payload.(uint64); ok && v > link.acked {
				link.acked = v
				r.noteMark(link)
				r.fireStable()
			}
		}
	}
}

// ackedAll reports the receipt watermark the output-commit rule exposes.
// With Config.CommitQuorum 0 it is the minimum over every live caught-up
// backup — the conservative all-backups rule of §3.5. With CommitQuorum
// k > 0 it is the k-th-highest receipt watermark among them: any k
// backups covering a tuple make it stable, so the slowest N−k replicas
// drop off the commit path. When fewer than k live links remain the rule
// degrades to all-of-the-living (k = live), never promising more
// stability than the survivors provide. Syncing links are excluded:
// while a rejoined backup catches up, output stability is whatever the
// remaining set provides (vacuous when it is empty — the degraded window
// the resync exists to close).
func (r *Recorder) ackedAll() uint64 {
	marks := r.ackScratch[:0]
	for _, link := range r.replicas {
		if link.dead || link.syncing {
			continue
		}
		marks = append(marks, link.acked)
	}
	r.ackScratch = marks[:0]
	if len(marks) == 0 {
		return r.sent // no live backup left: everything is (vacuously) stable
	}
	k := r.cfg.CommitQuorum
	if k <= 0 || k > len(marks) {
		k = len(marks)
	}
	sort.Slice(marks, func(i, j int) bool { return marks[i] > marks[j] })
	return marks[k-1]
}

// quorumNeed is the number of backup receipts the commit rule currently
// requires: min(CommitQuorum, live backups), or all live backups when no
// quorum is configured.
func (r *Recorder) quorumNeed() int {
	live := r.liveBackups()
	if r.cfg.CommitQuorum <= 0 || r.cfg.CommitQuorum > live {
		return live
	}
	return r.cfg.CommitQuorum
}

// noteMark refreshes one link's entry in the per-replica receipt
// watermark vector. The vector is plain observable data — the armable
// output-commit waiters live in stableQ, guarded by flushForCommit —
// so storing into it needs no flush domination (the ftvet watermark
// analyzer's data-vector exemption).
func (r *Recorder) noteMark(link *replicaLink) {
	r.marks[link.idx] = ReplicaWatermark{
		Index:     link.idx,
		Watermark: link.acked,
		Dead:      link.dead,
		Syncing:   link.syncing,
	}
}

// Watermarks returns the per-replica receipt watermark vector in link
// (construction/AddReplica) order. Failover election ranks surviving
// backups by it, and the flight recorder snapshots it into the failover
// dump so a post-mortem can see exactly how far each loser was behind.
func (r *Recorder) Watermarks() []ReplicaWatermark {
	out := make([]ReplicaWatermark, 0, len(r.replicas))
	for i := range r.replicas {
		out = append(out, r.marks[i])
	}
	return out
}

// liveBackups counts links that are alive and caught up; syncingBackups
// counts links still replaying history.
func (r *Recorder) liveBackups() int {
	n := 0
	for _, link := range r.replicas {
		if !link.dead && !link.syncing {
			n++
		}
	}
	return n
}

func (r *Recorder) syncingBackups() int {
	n := 0
	for _, link := range r.replicas {
		if !link.dead && link.syncing {
			n++
		}
	}
	return n
}

// effBatch is the batch size currently in force: the controller's output
// under AdaptiveBatching, the static BatchTuples knob otherwise.
func (r *Recorder) effBatch() int {
	if r.ctrl != nil {
		return r.ctrl.eff
	}
	return r.cfg.BatchTuples
}

// buffered reports whether the link holds tuples not yet published — in
// its open span or its spill buffer.
func (link *replicaLink) buffered() bool {
	return (link.span != nil && link.span.Open() && link.span.Len() > 0) || len(link.pending) > 0
}

// emit streams one log message to every live backup. Unbatched, it sends
// immediately; batched, it writes the tuple in place into the link's open
// ring reservation (zero-copy) and publishes when the effective batch
// fills. When no reservation can be claimed — ring full, or the
// locked-copy baseline model — tuples spill to the link's pending buffer
// and a blocking vectored flush throttles the primary to the slowest
// backup's drain rate. stream tags the message with its det shard,
// multiplexing the per-shard log streams over the one vectored ring.
func (r *Recorder) emit(t *kernel.Task, kind int, payload any, size, stream int) {
	m := shm.Message{Kind: kind, Payload: payload, Size: size, Stream: stream}
	if r.cfg.Rejoinable {
		r.history = append(r.history, m)
		r.histBytes += int64(m.Size)
	}
	eff := r.effBatch()
	for _, link := range r.replicas {
		if link.dead {
			continue
		}
		if link.syncing {
			// Catch-up in progress: queue behind the history so the
			// backup sees one gapless sequence on one channel.
			link.backlog = append(link.backlog, m)
			continue
		}
		if !r.cfg.batched() {
			link.log.Send(t.Proc(), m)
			continue
		}
		if r.emitSpan(link, m, eff) {
			continue
		}
		// Spill path: no reservation available (or the baseline model).
		if len(link.pending) == 0 {
			link.deadline = r.kern.Sim().Now().Add(r.cfg.FlushInterval)
			r.flushQ.WakeAll(0)
		}
		link.pending = append(link.pending, m)
		if len(link.pending) >= eff {
			r.flushPending(t.Proc(), link)
		}
	}
	r.sent++
	r.stats.LogMessages++
}

// emitSpan tries the zero-copy path: write m into the link's open span,
// claiming a fresh reservation when none is open, and publish once the
// effective batch fills. It reports false when the tuple must spill
// instead — the ring has no room, earlier work is already queued (spilled
// tuples or a blocked reservation, which writing around would reorder), or
// the fabric runs the locked-copy baseline, which has no reservation API.
func (r *Recorder) emitSpan(link *replicaLink, m shm.Message, eff int) bool {
	if link.log.SenderModel() == shm.SenderLockedCopy || len(link.pending) > 0 {
		return false
	}
	if link.span == nil || !link.span.Open() {
		if !r.openSpan(link, eff, int64(m.Size)) {
			return false
		}
	}
	if !link.span.Put(m) {
		// Slot or byte budget exhausted: publish what is written and
		// claim a fresh span for this tuple.
		r.commitSpan(link)
		if !r.openSpan(link, eff, int64(m.Size)) {
			return false
		}
		link.span.Put(m)
	}
	if link.span.Len() >= eff {
		r.commitSpan(link)
	}
	return true
}

// openSpan claims a fresh reservation sized for the effective batch (at
// least minBytes, so an oversized data tuple gets a span of its own) and
// arms the flush deadline.
func (r *Recorder) openSpan(link *replicaLink, eff int, minBytes int64) bool {
	budget := int64(eff) * tupleBytes
	if budget < minBytes {
		budget = minBytes
	}
	sp := link.log.TryReserve(eff, budget)
	if sp == nil {
		return false
	}
	link.span = sp
	link.deadline = r.kern.Sim().Now().Add(r.cfg.FlushInterval)
	r.flushQ.WakeAll(0)
	return true
}

// commitSpan publishes the link's open span as one vectored transfer —
// the single release-store of the reserve/commit protocol. An empty span
// releases its reservation without a transfer, which is what makes a
// flush deadline firing in the same scheduler instant as an output-commit
// force-flush harmless: whichever runs second finds nothing to send and
// sends nothing (no empty batch on the wire, no spurious flush sample).
// Never blocks, so it is safe in scheduler context.
func (r *Recorder) commitSpan(link *replicaLink) {
	sp := link.span
	if sp == nil || !sp.Open() {
		link.span = nil
		return
	}
	link.span = nil
	n := sp.Len()
	if n == 0 {
		sp.Abort()
		return
	}
	sp.Commit()
	r.stats.LogBatches++
	r.noteFlush(n)
}

// flushPending drains the link's spill buffer with blocking vectored
// sends. No per-link serialization is needed: a blocked send already
// holds its reservation ticket, and ring claim order is publication
// order, so a batch taken later physically cannot overtake one stalled
// on a full ring (the reordering the replayer would treat as a fatal log
// gap). Tuples that spill while this flush is blocked are drained by the
// next loop iteration, still in order — the ring refuses opportunistic
// claims while earlier tickets wait.
func (r *Recorder) flushPending(p *sim.Proc, link *replicaLink) {
	for len(link.pending) > 0 && !link.dead {
		batch := link.pending
		link.pending = nil
		link.log.SendBatch(p, batch)
		r.stats.LogBatches++
		r.noteFlush(len(batch))
	}
	r.flushQ.WakeAll(0) // deadlines may have re-armed while the send was stalled
}

// flushLoop is the background flusher: it pushes out partially filled
// batches once their FlushInterval deadline expires, bounding how long a
// tuple can sit buffered when the primary goes quiet. The re-check under
// "expired" is the double-send guard: a force-flush in the same instant
// may already have emptied the link.
func (r *Recorder) flushLoop(t *kernel.Task) {
	p := t.Proc()
	for {
		var link *replicaLink
		var dl sim.Time
		for _, l := range r.replicas {
			if l.dead || !l.buffered() {
				continue
			}
			if link == nil || l.deadline < dl {
				link, dl = l, l.deadline
			}
		}
		if link == nil {
			r.flushQ.Wait(p)
			continue
		}
		now := r.kern.Sim().Now()
		if dl > now {
			r.flushQ.WaitTimeout(p, dl.Sub(now))
			continue
		}
		r.commitSpan(link)
		if len(link.pending) > 0 {
			r.flushPending(p, link)
		}
	}
}

// flushForCommit pushes every buffered tuple toward the backups before an
// output-commit watermark is armed. It may run in scheduler context, so
// it must not block: open spans publish with a non-blocking Commit, and a
// spill buffer the ring cannot take right now is handed to the flusher
// task — the waiter's watermark is r.sent, which covers buffered tuples,
// so output cannot be released before they are genuinely delivered.
func (r *Recorder) flushForCommit() {
	for _, link := range r.replicas {
		if link.dead {
			continue
		}
		r.commitSpan(link)
		if len(link.pending) == 0 {
			continue
		}
		if link.log.TrySendBatch(link.pending) {
			n := len(link.pending)
			link.pending = nil
			r.stats.LogBatches++
			r.noteFlush(n)
			continue
		}
		link.deadline = r.kern.Sim().Now()
		r.flushQ.WakeAll(0)
	}
}

// EmitEpoch streams an epoch-checkpoint marker through the ordinary log
// stream. The caller (the core cutter task) holds every det-section lock,
// so no tuple can interleave: the marker lands at log position mark.Sent
// == r.sent, making "everything before the marker" on a backup exactly
// the prefix the checkpoint replaces. size is the checkpoint's accounted
// ring footprint.
func (r *Recorder) EmitEpoch(t *kernel.Task, mark EpochMark, size int) {
	if mark.Sent != r.sent {
		panic("replication: epoch mark not cut at the current log watermark")
	}
	r.epochCuts[mark.Epoch] = mark.Sent
	if mark.Epoch > r.epochSeen {
		r.epochSeen = mark.Epoch
	}
	r.emit(t, msgEpoch, mark, size, 0)
	r.stats.EpochCuts++
	// With no live caught-up backup the quorum is vacuous (mirroring
	// vacuous output stability): the prefix is truncated immediately —
	// any future rejoin starts from the checkpoint core retains.
	r.maybeTruncateEpochs()
}

// epochAckedAll is the epoch-boundary analogue of ackedAll: the highest
// epoch a commit-quorum of live caught-up backups has verified-and-
// truncated (k-th-highest epochAcked), degrading to all-of-the-living,
// and vacuously the latest cut epoch when no live caught-up backup
// remains.
func (r *Recorder) epochAckedAll() uint64 {
	marks := r.ackScratch[:0]
	for _, link := range r.replicas {
		if link.dead || link.syncing {
			continue
		}
		marks = append(marks, link.epochAcked)
	}
	r.ackScratch = marks[:0]
	if len(marks) == 0 {
		return r.epochSeen
	}
	k := r.cfg.CommitQuorum
	if k <= 0 || k > len(marks) {
		k = len(marks)
	}
	sort.Slice(marks, func(i, j int) bool { return marks[i] > marks[j] })
	return marks[k-1]
}

// maybeTruncateEpochs advances the primary's truncation to the highest
// quorum-acknowledged epoch. No-op while epoch checkpoints are not in
// use (no cuts registered, all epochAcked zero), so the non-epoch
// engine's execution — and its trace — is untouched.
func (r *Recorder) maybeTruncateEpochs() {
	acked := r.epochAckedAll()
	if acked <= r.epochDone {
		return
	}
	var bestEpoch, bestBase uint64
	for e, base := range r.epochCuts {
		if e <= acked {
			if e > bestEpoch {
				bestEpoch, bestBase = e, base
			}
			delete(r.epochCuts, e)
		}
	}
	r.epochDone = acked
	if bestEpoch != 0 {
		r.truncateHistory(bestEpoch, bestBase)
	}
}

// truncateHistory drops the retained-log prefix below a verified epoch
// boundary. verifiedSent is the absolute log index of the epoch marker:
// every message below it is subsumed by a checkpoint a quorum of backups
// holds, so retaining it buys nothing. Truncation above a boundary that
// has NOT been verified would sacrifice the only copy of live catch-up
// state — the guard clamps to the verified base.
func (r *Recorder) truncateHistory(verifiedEpoch, verifiedSent uint64) {
	if verifiedSent < r.histBase {
		return // already truncated past this verified boundary
	}
	keep := verifiedSent - r.histBase
	if keep > uint64(len(r.history)) {
		panic("replication: verified epoch boundary beyond retained history")
	}
	for _, m := range r.history[:keep] {
		r.histBytes -= int64(m.Size)
	}
	r.history = r.history[keep:]
	r.histBase = verifiedSent
	r.stats.LogTruncated += keep
	r.sc.Emit(obs.EpochTruncate, 0, int64(verifiedEpoch), int64(keep))
	if r.onEpochQuorum != nil {
		r.onEpochQuorum(verifiedEpoch)
	}
}

// RetainedTuples and RetainedBytes expose the retained-log footprint for
// the ftns.log.retained.* gauges.
func (r *Recorder) RetainedTuples() int    { return len(r.history) }
func (r *Recorder) RetainedBytes() int64   { return r.histBytes }
func (r *Recorder) HistoryBase() uint64    { return r.histBase }
func (r *Recorder) EpochTruncated() uint64 { return r.epochDone }

// seedEpochs initializes the epoch counters on a recorder forked at
// promotion, so the new primary's first cut continues the dead primary's
// epoch sequence instead of restarting at 1.
func (r *Recorder) seedEpochs(epoch uint64) {
	r.epochSeen = epoch
	r.epochDone = epoch
}

// quiesce acquires every det-section lock in shard index order and
// returns the matching release (reverse order). With all shard locks
// held no section can be mid-flight: every replicated thread sits at a
// section boundary, so the replicated state is exactly a deterministic
// function of the recorded prefix — the property the epoch cutter's
// final stop-the-world pass relies on. The fixed acquisition order makes
// concurrent quiescers (cutter vs. rejoin) deadlock-free.
func (r *Recorder) quiesce(t *kernel.Task) func() {
	for _, mu := range r.mus {
		mu.Lock(t)
	}
	return func() {
		for i := len(r.mus) - 1; i >= 0; i-- {
			r.mus[i].Unlock(t)
		}
	}
}

// lockShard acquires the det-section lock owning the sequencing object and
// returns it with its shard index and the nanoseconds spent waiting. The
// wait is sampled into the shard-contention histogram (the global-mutex
// contention when DetShards is 1) and travels on the DetEnter event as the
// sequencer-wait stage of the causal critical path.
func (r *Recorder) lockShard(t *kernel.Task, key uint64) (*pthread.Mutex, int, int64) {
	shard := pthread.ShardOf(key, len(r.mus))
	mu := r.mus[shard]
	start := t.Now()
	mu.Lock(t)
	wait := int64(t.Now().Sub(start))
	r.hShardWait.Observe(wait)
	return mu, shard, wait
}

// commitSeqs advances every counter past one section's tuple. It runs
// BEFORE the emit's first possible yield, so a concurrent section on
// another shard can never observe a half-advanced cursor state (and
// GlobalSeq stays unique), and a reader sampling SeqGlobal counts the
// tuple from the instant it is built.
func (r *Recorder) commitSeqs(th *Thread, key uint64) {
	th.seq++
	r.seqGlobal++
	r.objSeq[key]++
	r.stats.Sections++
}

func (r *Recorder) section(th *Thread, op pthread.Op, obj uint64, fn func()) {
	if r.live {
		fn()
		return
	}
	t := th.task
	key := objKey(op, obj)
	mu, shard, wait := r.lockShard(t, key)
	r.sc.EmitDet(obs.DetEnter, th.ftpid, int64(r.seqGlobal), wait, key, int64(r.objSeq[key]))
	t.Busy(r.cfg.SectionCost)
	fn()
	tu := Tuple{ThreadSeq: th.seq, GlobalSeq: r.seqGlobal, ObjSeq: r.objSeq[key], FTPid: th.ftpid, Op: op, Obj: obj}
	r.commitSeqs(th, key)
	r.emit(t, msgTuple, tu, tu.size(), shard)
	r.noteTuple(th, tu, key)
	r.cShardSec(shard).Inc()
	r.sc.EmitDet(obs.DetExit, th.ftpid, int64(tu.GlobalSeq), 0, key, int64(tu.ObjSeq))
	mu.Unlock(t)
}

// noteTuple records one emitted tuple's lifecycle event and count. The
// event carries the full alignment identity <obj, Seq_obj> so the causal
// layer can pair it with the backup's Replay grant of the same section.
func (r *Recorder) noteTuple(th *Thread, tu Tuple, key uint64) {
	r.sc.EmitDet(obs.TupleEmit, th.ftpid, int64(tu.GlobalSeq), int64(tu.size()), key, int64(tu.ObjSeq))
	r.cTuples.Inc()
}

// resolve runs block (which may park until the non-deterministic outcome is
// known), then records settle's outcome — and optional payload bytes —
// inside a deterministic section.
func (r *Recorder) resolve(th *Thread, op pthread.Op, obj uint64, block func(), settle func() (uint64, []byte)) (uint64, []byte) {
	if r.live {
		block()
		out, data := settle()
		return out, data
	}
	block()
	t := th.task
	key := objKey(op, obj)
	mu, shard, wait := r.lockShard(t, key)
	r.sc.EmitDet(obs.DetEnter, th.ftpid, int64(r.seqGlobal), wait, key, int64(r.objSeq[key]))
	t.Busy(r.cfg.SectionCost)
	out, data := settle()
	tu := Tuple{ThreadSeq: th.seq, GlobalSeq: r.seqGlobal, ObjSeq: r.objSeq[key], FTPid: th.ftpid, Op: op, Obj: obj, Outcome: out, Data: data}
	r.commitSeqs(th, key)
	r.emit(t, msgTuple, tu, tu.size(), shard)
	r.noteTuple(th, tu, key)
	r.cShardSec(shard).Inc()
	r.sc.EmitDet(obs.DetExit, th.ftpid, int64(tu.GlobalSeq), 0, key, int64(tu.ObjSeq))
	mu.Unlock(t)
	return out, data
}

func (r *Recorder) sendEnv(t *kernel.Task, env map[string]string) {
	size := 0
	for k, v := range env {
		size += len(k) + len(v) + 2
	}
	r.emit(t, msgEnv, env, size, 0)
}

// onStable invokes fn once the secondary has acknowledged every log message
// sent so far. A strict waiter always forces a flush of buffered tuples
// BEFORE the watermark is armed, so batching never adds to output-commit
// latency. Under relaxed output commit (or after going live) fn runs
// immediately.
func (r *Recorder) onStable(fn func()) {
	if !r.cfg.StrictOutputCommit || r.live {
		fn()
		return
	}
	r.flushForCommit()
	w := r.sent
	if r.ackedAll() >= w {
		r.hCommitWait.Observe(0)
		if r.ctrl != nil {
			r.ctrl.observeCommit(false)
		}
		fn()
		return
	}
	if r.ctrl != nil {
		r.ctrl.observeCommit(true)
	}
	r.sc.Emit(obs.OutputHeld, 0, int64(w), 0)
	r.stableQ = append(r.stableQ, stableWaiter{watermark: w, fn: fn, heldAt: r.kern.Sim().Now()})
}

func (r *Recorder) fireStable() {
	acked := r.ackedAll()
	for len(r.stableQ) > 0 && r.stableQ[0].watermark <= acked {
		w := r.stableQ[0]
		r.stableQ = r.stableQ[1:]
		wait := int64(r.kern.Sim().Now().Sub(w.heldAt))
		r.sc.Emit(obs.OutputReleased, 0, int64(w.watermark), wait)
		r.hCommitWait.Observe(wait)
		w.fn()
	}
}

// dropReplica stops streaming to one dead backup; with no live backup left
// the recorder goes fully live. Index i matches the ring order given at
// construction.
func (r *Recorder) dropReplica(i int) {
	if i < 0 || i >= len(r.replicas) || r.replicas[i].dead {
		return
	}
	r.replicas[i].dead = true
	r.noteMark(r.replicas[i])
	r.abandonLink(r.replicas[i])
	r.replicas[i].log.Drain() // unblock senders stalled on the dead ring
	r.fireStable()
	r.maybeTruncateEpochs() // the dead link no longer gates epoch quorum
	for _, link := range r.replicas {
		if !link.dead {
			return
		}
	}
	r.goLive()
}

// goLive stops recording: every backup is gone (failed, or replication was
// torn down), so sections run unserialized and all held output is
// released. A rejoinable recorder never stops recording — it degrades
// instead, keeping the history growing so a fresh backup can catch up.
func (r *Recorder) goLive() {
	if r.live {
		return
	}
	if r.cfg.Rejoinable {
		r.degrade()
		return
	}
	r.live = true
	r.sc.Emit(obs.GoLive, 0, int64(r.sent), 0)
	r.fireStable()
	// Unblock any section stalled on a full log ring: the receivers are
	// gone, so the buffered log is discarded and the senders released.
	for _, link := range r.replicas {
		link.dead = true
		r.noteMark(link)
		r.abandonLink(link)
		link.log.Drain()
	}
}

// abandonLink discards a dead link's unpublished state: the spill buffer,
// the backlog, and — critically — its open span. An open reservation on
// the dead ring would otherwise jam the ring's publication sequence
// forever (the reserve-without-commit leak), stalling any sender still
// parked on it.
func (r *Recorder) abandonLink(link *replicaLink) {
	link.pending = nil
	link.backlog = nil
	if link.span != nil {
		link.span.Abort()
		link.span = nil
	}
}

// degrade marks every backup dead but keeps recording: sections stay
// serialized and the history keeps growing, output stability becomes
// vacuous until a rejoined backup catches up.
func (r *Recorder) degrade() {
	for _, link := range r.replicas {
		link.dead = true
		r.noteMark(link)
		r.abandonLink(link)
		link.log.Drain()
	}
	if !r.degraded {
		r.degraded = true
		r.sc.Emit(obs.GoLive, 0, int64(r.sent), 0)
	}
	r.fireStable()
}
