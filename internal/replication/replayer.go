package replication

import (
	"fmt"
	"sort"

	"repro/internal/kernel"
	"repro/internal/obs"
	"repro/internal/pthread"
	"repro/internal/shm"
	"repro/internal/sim"
)

// headSub is one callback armed to fire when the replay head reaches a
// global sequence number. While any sub is armed on a sharded replayer,
// grants at or past the earliest armed watermark are withheld so the
// replayed set at fire time is exactly the prefix below it — the property
// the rejoin checkpoint verifier compares cursor vectors under.
type headSub struct {
	seq uint64
	fn  func()
	// epoch marks an epoch-boundary verification sub: dropped at
	// promotion (the primary that cut the epoch is dead, and a stale
	// barrier would wedge the post-promotion drain-replay).
	epoch bool
}

// replWaiter is a shadow thread parked in a deterministic section, waiting
// for its tuple to reach the head of its object's queue (and, with one det
// shard, the replay frontier).
type replWaiter struct {
	th        *Thread
	key       uint64   // futex key the thread sleeps on until granted
	parkedAt  sim.Time // when the thread parked, for grant-wait attribution
	granted   bool
	liveFlush bool // granted by promotion to live execution, no tuple
	tuple     Tuple
}

// objQueue is one sequencing object's entry in the grant table.
type objQueue struct {
	rank    int     // first-arrival order: the deterministic rescan order
	pending []Tuple // arrived, unreplayed tuples
	granted bool    // executing a granted section
}

// shardIngress is one det shard's dispatch queue on the secondary: the
// pull loop routes tuples here in ring order and the shard's grant task
// pays the per-tuple dispatch cost — in parallel across shards.
type shardIngress struct {
	q  []shm.Message
	wq *sim.WaitQueue
}

// Replayer is the secondary-side engine: it pulls the primary's log off the
// shared-memory ring and delivers deterministic-section turns to shadow
// threads through a per-object grant table, so shadow threads on
// independent objects replay concurrently. The scalar replay head is the
// Lamport frontier: every GlobalSeq below it has been replayed. One det
// shard is two rules on the same table: the frontier is a grant barrier
// (only the tuple at the frontier is grantable, which is the recorded
// total order of the global mutex), and the pull loop pays the dispatch
// cost itself instead of handing tuples to per-shard grant tasks.
type Replayer struct {
	kern *kernel.Kernel
	cfg  Config
	log  *shm.Ring
	acks *shm.Ring

	// inbox is the pull loop's received, undispatched batch. It lives on
	// the Replayer, not the loop's stack, so a promotion that kills the
	// loop mid-dispatch still routes every message already received.
	inbox []shm.Message

	// The per-object grant table. active holds the objects with arrived,
	// unreplayed tuples in rank order, so a rescan skips the idle ones
	// (every connection a server ever accepted is a sequencing object).
	objs       map[uint64]*objQueue
	active     []*objQueue
	objSeen    map[uint64]uint64 // next ObjSeq expected off the ring (duplicate filter)
	objDone    map[uint64]uint64 // per-object replay cursors: what checkpoints compare and forks continue from
	unreplayed int               // total tuples across all queues
	frontier   uint64            // Lamport replay head: every GlobalSeq < frontier is replayed
	ahead      map[uint64]bool   // replayed GlobalSeqs at or past the frontier
	shardQ     []*shardIngress   // per-shard dispatch queues; nil with one det shard
	granters   []*kernel.Task

	waiting   map[int]*replWaiter
	waitOrder []int // ftpids in park order, for deterministic live-flush
	processed uint64

	env      map[string]string
	envReady bool
	envQ     *sim.WaitQueue

	live        bool
	primaryDead bool
	promoted    *sim.WaitQueue
	puller      *kernel.Task
	stats       Stats

	// Rejoin support (Config.Rejoinable): the ingested log is retained so
	// that, at promotion, onFork can convert the namespace into a
	// recording primary continuing the same history; parked shadow
	// threads flushed by promotion delegate their sections to the fork so
	// the history has no gap. headSubs are watermark callbacks used by the
	// rejoin checkpoint verifier.
	history  []shm.Message
	onFork   func(hist []shm.Message, histBase, seqGlobal uint64, objSeq map[uint64]uint64) *Recorder
	fork     *Recorder
	headSubs []headSub

	// Epoch checkpointing (core.WithEpochCheckpoints): histBase is the
	// absolute log index of history[0] — zero for a boot backup, the
	// latest verified epoch boundary once truncation starts (or the
	// checkpoint base for a replica seeded by SeedCheckpoint).
	// baseSeqGlobal is the GlobalSeq the retained window starts at.
	// epochSeen filters duplicate markers; epochBase is the seeded
	// checkpoint's epoch (its own marker arrives first off the catch-up
	// stream and is retained without re-verification). epochAckPend is
	// an epoch ack the full ack ring refused, retried from the pull
	// loop. onEpoch, set by core, verifies a marker's digest against
	// the replayed state at its exact frontier.
	histBase      uint64
	baseSeqGlobal uint64
	epochSeen     uint64
	epochBase     uint64
	epochAckPend  uint64
	onEpoch       func(mark EpochMark) bool

	sc         *obs.Scope
	cAcks      *obs.Counter
	hRecvBatch *obs.Histogram
	hGrantWait *obs.Histogram
}

func newReplayer(k *kernel.Kernel, cfg Config, log, acks *shm.Ring) *Replayer {
	r := &Replayer{
		kern:     k,
		cfg:      cfg.withBatchDefaults(),
		log:      log,
		acks:     acks,
		objs:     make(map[uint64]*objQueue),
		objSeen:  make(map[uint64]uint64),
		objDone:  make(map[uint64]uint64),
		ahead:    make(map[uint64]bool),
		waiting:  make(map[int]*replWaiter),
		envQ:     sim.NewWaitQueue(k.Sim()),
		promoted: sim.NewWaitQueue(k.Sim()),
	}
	r.puller = k.Spawn("ft-replay", r.pullLoop)
	if !r.sharded() {
		return r
	}
	r.shardQ = make([]*shardIngress, r.cfg.DetShards)
	for i := range r.shardQ {
		r.shardQ[i] = &shardIngress{wq: sim.NewWaitQueue(k.Sim())}
		r.granters = append(r.granters,
			k.Spawn(fmt.Sprintf("ft-grant.%d", i), func(t *kernel.Task) { r.grantLoop(t, i) }))
	}
	return r
}

// sharded reports whether per-shard grant tasks pay the dispatch cost.
// Without them the frontier is also a grant barrier (see grantBarrier).
func (r *Replayer) sharded() bool { return r.cfg.DetShards > 1 }

// head is the scalar replay watermark, the Lamport frontier.
func (r *Replayer) head() uint64 { return r.frontier }

// pullLoop receives the log and acknowledges it at receipt. With one det
// shard it is also the serial dispatcher whose per-tuple cost (riding
// wake_up_process to hand turns to shadow threads) bounds the secondary's
// replay rate, the §4.1 bottleneck. With more, it routes each tuple to its
// shard's ingress queue without paying that cost: the shard grant tasks
// pay it concurrently, which lifts the ceiling by the shard count.
func (r *Replayer) pullLoop(t *kernel.Task) {
	max := r.cfg.BatchTuples
	if max < 1 {
		max = 1
	}
	var lastAcked uint64
	for {
		batch := r.log.RecvBatch(t.Proc(), max)
		r.hRecvBatch.Observe(int64(len(batch)))
		// Acknowledge at receipt (§3.5): the whole batch is already safe in
		// this replica's memory for subsequent live replay, so one
		// cumulative ack covers all of it.
		r.processed += uint64(len(batch))
		if len(batch) > 1 {
			r.stats.LogBatches++
		}
		if r.cfg.AckEvery > 0 && r.processed-lastAcked >= uint64(r.cfg.AckEvery) {
			if r.acks.TrySend(shm.Message{Kind: msgTuple, Payload: r.processed, Size: 16}) {
				lastAcked = r.processed
				r.stats.AckMessages++
				r.cAcks.Inc()
				r.sc.Emit(obs.AckSend, 0, int64(r.processed), 0)
			}
		}
		r.retryEpochAck()
		r.inbox = batch
		for len(r.inbox) > 0 {
			// Pay the dispatch cost BEFORE popping, as grantLoop does: a
			// promotion that kills this task mid-dispatch finds the message
			// still in the inbox and routes it.
			if !r.sharded() && r.cfg.ReplayDispatchCost > 0 {
				t.Compute(r.cfg.ReplayDispatchCost)
			}
			m := r.inbox[0]
			r.inbox = r.inbox[1:]
			r.route(m)
		}
	}
}

// route performs the receive-side bookkeeping for one message, in ring
// order: duplicate filtering, history retention (the retained order must
// respect every per-thread and per-object order, which ring order does and
// per-shard completion order would not), then hand-off to the shard
// ingress queue, or straight into the grant table with one det shard.
func (r *Replayer) route(m shm.Message) {
	switch m.Kind {
	case msgEnv:
		if env, ok := m.Payload.(map[string]string); ok {
			if r.envReady {
				r.stats.Duplicates++
				return
			}
			r.env = env
			r.envReady = true
			r.envQ.WakeAll(0)
		}
	case msgTuple:
		if tu, ok := m.Payload.(Tuple); ok {
			key := objKey(tu.Op, tu.Obj)
			if tu.ObjSeq < r.objSeen[key] {
				// Behind the object's ring cursor: a stale duplicate
				// (injected duplication, or promotion-drain overlap).
				r.stats.Duplicates++
				return
			}
			if tu.ObjSeq > r.objSeen[key] {
				// The mailbox is FIFO and coherency loss only truncates a
				// suffix, so a per-object gap cannot occur on this path.
				panic(fmt.Sprintf("replication: per-object log gap: %v expected obj-seq %d", tu, r.objSeen[key]))
			}
			r.objSeen[key] = tu.ObjSeq + 1
			if r.sharded() {
				sh := r.shardQ[pthread.ShardOf(key, r.cfg.DetShards)]
				sh.q = append(sh.q, m)
				sh.wq.WakeAll(0)
			} else {
				r.admit(tu)
			}
		}
	case msgEpoch:
		if mark, ok := m.Payload.(EpochMark); ok && !r.noteEpoch(mark) {
			r.stats.Duplicates++
			return
		}
	}
	if r.cfg.Rejoinable {
		r.history = append(r.history, m)
	}
	r.stats.LogMessages++
}

// grantLoop is one det shard's dispatch task: it pays the per-tuple
// dispatch cost for its shard's tuples and admits them into the grant
// table. Shards progress independently — the replay-side analogue of the
// recorder's sharded det locks.
func (r *Replayer) grantLoop(t *kernel.Task, shard int) {
	sh := r.shardQ[shard]
	for {
		for len(sh.q) == 0 {
			sh.wq.Wait(t.Proc())
		}
		// Pay the dispatch cost BEFORE popping: if promotion kills this
		// task mid-dispatch, the tuple is still queued and the promotion
		// drain admits it — popping first would lose it and strand its
		// object's queue behind a permanent gap. This task is the queue's
		// only consumer, so the head cannot change across the yield.
		if r.cfg.ReplayDispatchCost > 0 {
			t.Compute(r.cfg.ReplayDispatchCost)
		}
		m := sh.q[0]
		sh.q = sh.q[1:]
		r.admit(m.Payload.(Tuple))
	}
}

// obj returns the object's grant-table entry, ranking it on first sight.
func (r *Replayer) obj(key uint64) *objQueue {
	o, ok := r.objs[key]
	if !ok {
		o = &objQueue{rank: len(r.objs)}
		r.objs[key] = o
	}
	return o
}

// admit enters one routed tuple into the per-object grant table.
func (r *Replayer) admit(tu Tuple) {
	o := r.obj(objKey(tu.Op, tu.Obj))
	if len(o.pending) == 0 {
		i := sort.Search(len(r.active), func(i int) bool { return r.active[i].rank > o.rank })
		r.active = append(r.active, nil)
		copy(r.active[i+1:], r.active[i:])
		r.active[i] = o
	}
	o.pending = append(o.pending, tu)
	r.unreplayed++
	r.tryGrantObj(o)
}

// SeedCheckpoint initializes a fresh replayer from an epoch checkpoint
// instead of sequence zero: the replay cursors, the per-object duplicate
// filters, the env mirror, and the receipt count all start at the
// checkpoint's watermarks, so the first message off the catch-up stream
// — the checkpoint's own epoch marker — is exactly the next expected log
// index. Must run before any log message arrives (the core rejoin path
// calls it in the same atomic instant that cuts the checkpoint and
// attaches the link). epoch is the checkpoint's epoch number; its marker
// is retained without re-verification.
func (r *Replayer) SeedCheckpoint(epoch, seqGlobal, sent uint64, objs []ObjCursor, env map[string]string) {
	r.frontier = seqGlobal
	r.baseSeqGlobal = seqGlobal
	r.processed = sent
	r.histBase = sent
	r.epochBase = epoch
	for _, c := range objs {
		r.objDone[c.Obj] = c.Seq
		r.objSeen[c.Obj] = c.Seq
		r.obj(c.Obj)
	}
	if env != nil {
		r.env = env
		r.envReady = true
		r.envQ.WakeAll(0)
	}
}

// OnEpoch installs the epoch-boundary verifier (core's digest check).
// Without one, markers are retained in the history for alignment but
// never verified, acked, or truncated at.
func (r *Replayer) OnEpoch(fn func(mark EpochMark) bool) { r.onEpoch = fn }

// noteEpoch handles one epoch marker off the ring, in ring order. It
// reports false for a stale duplicate (not retained). A fresh marker is
// always retained — at exactly the log index the primary cut it at, or
// replay has silently diverged from the primary's numbering — and, when
// a verifier is installed, armed for verification at the marker's exact
// replay frontier.
func (r *Replayer) noteEpoch(mark EpochMark) bool {
	if mark.Epoch <= r.epochSeen {
		return false
	}
	r.epochSeen = mark.Epoch
	if r.onEpoch == nil || mark.Epoch <= r.epochBase {
		return true
	}
	if at := r.histBase + uint64(len(r.history)); at != mark.Sent {
		r.diverge(fmt.Sprintf("epoch %d marker arrived at log index %d, cut at %d", mark.Epoch, at, mark.Sent))
		return true
	}
	r.armEpochSub(mark.SeqGlobal, func() { r.verifyEpoch(mark) })
	return true
}

// armEpochSub arms an epoch-tagged head sub (see OnHead): the callback
// runs when the replay head reaches seq, with grants at or past seq
// withheld so the replayed set is exactly the prefix the epoch fences.
func (r *Replayer) armEpochSub(seq uint64, fn func()) {
	if r.head() >= seq {
		r.kern.Sim().Schedule(0, fn)
		return
	}
	r.headSubs = append(r.headSubs, headSub{seq: seq, fn: fn, epoch: true})
}

// verifyEpoch runs at the marker's exact replay frontier (armed via the
// head-sub grant barrier, so the replayed prefix is quiesced): the
// verifier recomputes the checkpoint digest from local replayed state,
// and a match makes the boundary safe to truncate at — everything below
// it is subsumed by a checkpoint this replica has verified it could have
// produced itself. The ack tells the primary this backup no longer needs
// the prefix retained.
func (r *Replayer) verifyEpoch(mark EpochMark) {
	if r.live || r.primaryDead {
		return
	}
	if !r.onEpoch(mark) {
		r.diverge(fmt.Sprintf("epoch %d digest mismatch at Seq_global %d: replayed state does not reproduce the primary's checkpoint", mark.Epoch, mark.SeqGlobal))
		return
	}
	r.truncateAt(mark)
	r.sendEpochAck(mark.Epoch)
}

// truncateAt drops this replica's retained history below a verified
// epoch marker. The marker itself stays as history[0] — the primary
// retains it too after its quorum truncation, keeping both sides'
// log-index spaces aligned. Truncating above an unverified boundary
// would discard the only local copy of state a promotion might need, so
// only a verified marker's base is accepted.
func (r *Replayer) truncateAt(mark EpochMark) {
	verified := mark.Sent
	if verified < r.histBase {
		return // already truncated past this verified boundary
	}
	keep := verified - r.histBase
	if keep > uint64(len(r.history)) {
		r.diverge(fmt.Sprintf("epoch %d verified boundary %d beyond retained history end %d",
			mark.Epoch, verified, r.histBase+uint64(len(r.history))))
		return
	}
	r.history = r.history[keep:]
	r.histBase = verified
	r.baseSeqGlobal = mark.SeqGlobal
	r.stats.LogTruncated += keep
	r.sc.Emit(obs.EpochTruncate, 0, int64(mark.Epoch), int64(keep))
}

// sendEpochAck sends (or queues, when the ack ring is momentarily full)
// the epoch-boundary acknowledgement; retryEpochAck drains the queued
// one from the pull loop.
func (r *Replayer) sendEpochAck(epoch uint64) {
	if r.acks.TrySend(shm.Message{Kind: msgEpochAck, Payload: epoch, Size: 16}) {
		r.stats.AckMessages++
		return
	}
	if epoch > r.epochAckPend {
		r.epochAckPend = epoch
	}
}

func (r *Replayer) retryEpochAck() {
	if r.epochAckPend == 0 {
		return
	}
	if r.acks.TrySend(shm.Message{Kind: msgEpochAck, Payload: r.epochAckPend, Size: 16}) {
		r.epochAckPend = 0
		r.stats.AckMessages++
	}
}

// RetainedTuples and RetainedBytes expose the replica-side retained-log
// footprint for the ftns.log.retained.* gauges.
func (r *Replayer) RetainedTuples() int { return len(r.history) }

func (r *Replayer) RetainedBytes() int64 {
	var b int64
	for _, m := range r.history {
		b += int64(m.Size)
	}
	return b
}

func (r *Replayer) waitEnv(t *kernel.Task) map[string]string {
	for !r.envReady && !r.live {
		r.envQ.Wait(t.Proc())
	}
	return r.env
}

// noteGrant records a replay grant with the tuple's alignment identity
// <obj, Seq_obj> (matching the primary's TupleEmit of the same section)
// and the time the shadow thread spent parked before the grant — the
// replay-grant-wait stage of the causal critical path.
func (r *Replayer) noteGrant(w *replWaiter, tu Tuple) {
	wait := int64(r.kern.Sim().Now().Sub(w.parkedAt))
	r.sc.EmitDet(obs.Replay, tu.FTPid, int64(tu.GlobalSeq), wait, objKey(tu.Op, tu.Obj), int64(tu.ObjSeq))
}

// grantBarrier is the lowest GlobalSeq that may not be granted yet. With
// one det shard it is frontier+1: only the tuple at the frontier may run,
// one section at a time, in the exact recorded total order. It is also
// capped by the earliest armed head watermark: while the rejoin verifier
// waits at W, no tuple with GlobalSeq >= W may be granted, so the replayed
// set at frontier == W is exactly [0, W). Deadlock-free: the recorded
// prefix is closed under per-thread and per-object predecessors (GlobalSeq
// increases along both orders), so replay below the barrier always makes
// progress.
func (r *Replayer) grantBarrier() uint64 {
	min := ^uint64(0)
	if !r.sharded() {
		min = r.frontier + 1
	}
	for _, s := range r.headSubs {
		if s.seq < min {
			min = s.seq
		}
	}
	return min
}

// tryGrantObj hands the head of one object's queue to its shadow thread if
// it is below the grant barrier and the thread has arrived at the matching
// point in its program order. Thread-order matching happens here — the
// thread may legitimately still be short of this tuple while its earlier
// sections on other objects replay; op/object divergence is detected by
// verify after the grant.
func (r *Replayer) tryGrantObj(o *objQueue) {
	if r.live || o.granted || len(o.pending) == 0 {
		return
	}
	tu := o.pending[0]
	if tu.GlobalSeq >= r.grantBarrier() {
		return
	}
	w, ok := r.waiting[tu.FTPid]
	if !ok || w.th.seq != tu.ThreadSeq {
		return
	}
	delete(r.waiting, tu.FTPid)
	r.dropWaitOrder(tu.FTPid)
	o.granted = true
	w.tuple = tu
	w.granted = true
	r.noteGrant(w, tu)
	r.kern.FutexWakeRaw(w.key, 1)
}

// tryGrantAll rescans every object with queued tuples in first-arrival
// order — a deterministic order, unlike a map walk — after an event that
// can unblock more than one object (a park, a completed section, a lifted
// barrier). A grant only schedules a wake, so active cannot change under
// the scan.
func (r *Replayer) tryGrantAll() {
	for _, o := range r.active {
		r.tryGrantObj(o)
	}
}

func (r *Replayer) dropWaitOrder(ftpid int) {
	for i, id := range r.waitOrder {
		if id == ftpid {
			r.waitOrder = append(r.waitOrder[:i], r.waitOrder[i+1:]...)
			return
		}
	}
}

// park registers the calling shadow thread and blocks until its turn (or
// until promotion flushes it into live execution).
func (r *Replayer) park(th *Thread) *replWaiter {
	if _, dup := r.waiting[th.ftpid]; dup {
		panic(fmt.Sprintf("replication: ft_pid %d parked twice", th.ftpid))
	}
	start := th.task.Now()
	w := &replWaiter{th: th, key: r.kern.NewFutexKey(), parkedAt: start}
	r.waiting[th.ftpid] = w
	r.waitOrder = append(r.waitOrder, th.ftpid)
	r.tryGrantAll()
	for !w.granted {
		th.task.FutexWait(w.key, -1)
	}
	r.hGrantWait.Observe(int64(th.task.Now().Sub(start)))
	return w
}

// sectionDone runs after the granted shadow thread finished executing its
// section: it releases the object, advances its cursor and folds the
// completed GlobalSeq into the Lamport frontier.
func (r *Replayer) sectionDone(w *replWaiter) {
	tu := w.tuple
	key := objKey(tu.Op, tu.Obj)
	o := r.objs[key]
	o.granted = false
	o.pending = o.pending[1:]
	if len(o.pending) == 0 {
		i := sort.Search(len(r.active), func(i int) bool { return r.active[i].rank >= o.rank })
		r.active = append(r.active[:i], r.active[i+1:]...)
	}
	r.objDone[key] = tu.ObjSeq + 1
	r.unreplayed--
	r.stats.Sections++
	r.ahead[tu.GlobalSeq] = true
	for r.ahead[r.frontier] {
		delete(r.ahead, r.frontier)
		r.frontier++
	}
	// Fire watermark subs BEFORE rescanning: removing a sub lifts the
	// barrier, and its callback is scheduled ahead of any wake the rescan
	// issues, so the verifier observes the exact barrier-frozen state.
	r.fireHeadSubs()
	r.tryGrantAll()
	if r.primaryDead && r.unreplayed == 0 {
		r.finishPromotion()
	}
}

// OnHead arms fn to run once the replay head reaches seq (immediately if
// it already has). Callbacks run as scheduled events, never in the shadow
// thread's context; the rejoin checkpoint verifier uses this to compare
// cursor state exactly at the checkpoint watermark.
func (r *Replayer) OnHead(seq uint64, fn func()) {
	if r.head() >= seq {
		r.kern.Sim().Schedule(0, fn)
		return
	}
	r.headSubs = append(r.headSubs, headSub{seq: seq, fn: fn})
}

func (r *Replayer) fireHeadSubs() {
	for i := 0; i < len(r.headSubs); {
		if r.headSubs[i].seq <= r.head() {
			fn := r.headSubs[i].fn
			r.headSubs = append(r.headSubs[:i], r.headSubs[i+1:]...)
			r.kern.Sim().Schedule(0, fn)
			continue
		}
		i++
	}
}

func (r *Replayer) verify(w *replWaiter, op pthread.Op, obj uint64) {
	tu := w.tuple
	if tu.Op == op && tu.Obj == obj && tu.ThreadSeq == w.th.seq {
		return
	}
	r.diverge(fmt.Sprintf("tuple %v does not match section op=%v obj=%d thread-seq=%d ft_pid=%d",
		tu, op, obj, w.th.seq, w.th.ftpid))
}

func (r *Replayer) diverge(msg string) {
	r.stats.Divergences++
	if r.cfg.PanicOnDivergence {
		r.kern.Panic("replay divergence: "+msg, nil)
	}
}

func (r *Replayer) section(th *Thread, op pthread.Op, obj uint64, fn func()) {
	if r.live {
		if r.fork != nil {
			r.fork.section(th, op, obj, fn)
			return
		}
		fn()
		return
	}
	w := r.park(th)
	if w.liveFlush {
		if r.fork != nil {
			// Promotion forked the namespace into a recording primary:
			// the flushed section is recorded there, so the history the
			// next backup replays has no gap.
			r.fork.section(th, op, obj, fn)
			return
		}
		fn()
		return
	}
	th.task.Busy(r.cfg.ReplaySectionCost)
	r.verify(w, op, obj)
	fn()
	th.seq++
	r.sectionDone(w)
}

// resolve replays a resolve section: block is skipped (the outcome is the
// recorded one), settle is executed to apply the same state mutation, and
// the outcomes are compared for divergence detection.
func (r *Replayer) resolve(th *Thread, op pthread.Op, obj uint64, block func(), settle func() (uint64, []byte)) (uint64, []byte) {
	if r.live {
		if r.fork != nil {
			return r.fork.resolve(th, op, obj, block, settle)
		}
		block()
		return settle()
	}
	w := r.park(th)
	if w.liveFlush {
		if r.fork != nil {
			return r.fork.resolve(th, op, obj, block, settle)
		}
		block()
		return settle()
	}
	th.task.Busy(r.cfg.ReplaySectionCost)
	r.verify(w, op, obj)
	out, _ := settle()
	if out != w.tuple.Outcome {
		r.diverge(fmt.Sprintf("resolve outcome %d differs from recorded %d (%v obj=%d)", out, w.tuple.Outcome, op, obj))
	}
	th.seq++
	r.sectionDone(w)
	return w.tuple.Outcome, w.tuple.Data
}

// replayed replays a syscall section whose effect must NOT be re-executed
// locally (socket reads, clock reads): it returns the recorded result.
// When it reports false the caller must execute the call itself — through
// the returned fork recorder if non-nil (promotion converted the replica
// into a recording primary), natively otherwise.
func (r *Replayer) replayed(th *Thread, op pthread.Op, obj uint64) (uint64, []byte, bool, *Recorder) {
	if r.live {
		return 0, nil, false, r.fork
	}
	w := r.park(th)
	if w.liveFlush {
		return 0, nil, false, r.fork
	}
	th.task.Busy(r.cfg.ReplaySectionCost)
	r.verify(w, op, obj)
	th.seq++
	r.sectionDone(w)
	return w.tuple.Outcome, w.tuple.Data, true, nil
}

// Promote switches the replica from replay to live execution after the
// primary's death (§3.7): the remaining log is drained and replayed to the
// last stable point, then every parked shadow thread is released into
// unmanaged execution.
func (r *Replayer) Promote() {
	if r.primaryDead || r.live {
		return
	}
	r.primaryDead = true
	r.puller.Kill()
	for _, g := range r.granters {
		g.Kill()
	}
	// Epoch verifications still armed are moot — the primary that cut
	// them is dead — and their grant barriers would wedge the
	// drain-replay below. Drop them; the rejoin verifier's subs stay.
	subs := r.headSubs[:0]
	for _, s := range r.headSubs {
		if !s.epoch {
			subs = append(subs, s)
		}
	}
	r.headSubs = subs
	// Every received message replays before the replica goes live (§3.5):
	// first what the dead pull loop had received but not yet dispatched,
	// then what the dead primary left in shared memory (messages in the
	// mailbox survive the sender's death), in ring order.
	for _, m := range r.inbox {
		r.route(m)
	}
	r.inbox = nil
	drained := r.log.Drain()
	r.processed += uint64(len(drained))
	for _, m := range drained {
		r.route(m)
	}
	// The grant tasks are dead: admit everything routed (including
	// tuples they left queued) directly, without dispatch cost.
	for _, sh := range r.shardQ {
		for _, m := range sh.q {
			r.admit(m.Payload.(Tuple))
		}
		sh.q = nil
	}
	r.sc.Emit(obs.Promote, 0, int64(r.head()), int64(len(drained)))
	if r.unreplayed == 0 {
		r.finishPromotion()
	}
	// Otherwise replay continues as shadow threads arrive; the last
	// sectionDone completes the promotion.
}

func (r *Replayer) finishPromotion() {
	if r.live {
		return
	}
	r.live = true
	r.sc.Emit(obs.GoLive, 0, int64(r.head()), 0)
	if r.onFork != nil {
		// Fork BEFORE flushing waiters: their sections must be recorded
		// by the fork so the retained history stays gapless.
		hist, n := r.replayedHistory()
		r.fork = r.onFork(hist, r.histBase, n, r.objSeqSnapshot())
	}
	order := r.waitOrder
	r.waitOrder = nil
	for _, ftpid := range order {
		w := r.waiting[ftpid]
		delete(r.waiting, ftpid)
		w.liveFlush = true
		w.granted = true
		r.kern.FutexWakeRaw(w.key, 1)
	}
	r.envReady = true
	r.envQ.WakeAll(0)
	r.promoted.WakeAll(0)
}

// objSeqSnapshot copies the per-object cursors for the fork recorder,
// which continues each object's Seq_obj space where replay stopped.
func (r *Replayer) objSeqSnapshot() map[uint64]uint64 {
	keys := make([]uint64, 0, len(r.objDone))
	for k := range r.objDone { // ftvet:nondet collect-then-sort
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	out := make(map[uint64]uint64, len(keys))
	for _, k := range keys {
		out[k] = r.objDone[k]
	}
	return out
}

// replayedHistory returns the executed subset of the retained log — every
// environment message plus exactly the tuples whose sections replayed —
// with GlobalSeq renumbered densely in retained (ring) order from the
// retention window's base. With one det shard the replayed set is a
// prefix and the renumbering is the identity. With more, sections
// completed past a promotion gap would leave holes below the Lamport
// maximum; dropping unreplayed tuples and renumbering restores a dense,
// causally consistent order (ring order respects every per-thread and
// per-object order), so a backup rejoining the fork can replay the
// history under either shard count. Epoch markers are dropped:
// their digests describe the dead primary's numbering, and the fork's
// cutter starts a fresh boundary sequence over the renumbered space. It
// returns the history and the fork's starting GlobalSeq.
func (r *Replayer) replayedHistory() ([]shm.Message, uint64) {
	out := make([]shm.Message, 0, len(r.history))
	n := r.baseSeqGlobal
	for _, m := range r.history {
		if m.Kind == msgEpoch {
			continue
		}
		if m.Kind != msgTuple {
			out = append(out, m)
			continue
		}
		tu, ok := m.Payload.(Tuple)
		if !ok {
			continue
		}
		if tu.ObjSeq >= r.objDone[objKey(tu.Op, tu.Obj)] {
			continue // arrived but never replayed: beyond the stable point
		}
		if tu.GlobalSeq != n {
			tu.GlobalSeq = n
			m.Payload = tu
		}
		n++
		out = append(out, m)
	}
	return out, n
}

// Live reports whether promotion has completed.
func (r *Replayer) Live() bool { return r.live }

// AwaitLive blocks the calling task until promotion completes.
func (r *Replayer) AwaitLive(t *kernel.Task) {
	for !r.live {
		r.promoted.Wait(t.Proc())
	}
}
