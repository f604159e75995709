// Package replication implements FT-Linux's core contribution: transparent
// Primary-Backup replication of race-free multithreaded applications via
// record/replay of deterministic sections (§3.2, §3.3).
//
// The primary executes the application normally, except that every
// interposed operation (Pthreads primitives, selected syscalls) runs inside
// a deterministic section serialized by a namespace-wide global mutex; on
// leaving the section the primary streams a tuple
//
//	<Seq_thread, Seq_global, ft_pid> (+ op, object, outcome)
//
// to the secondary over the shared-memory messaging layer and increments
// both sequence numbers — the __det_start/__det_end protocol of Figure 3.
// The secondary replays: each shadow thread's deterministic section blocks
// until the tuple matching its thread and sequence number is at the head of
// the log, yielding the primary's total order while unordered code runs in
// parallel.
//
// With Config.DetShards > 1 the namespace-wide mutex is sharded into
// per-object sequencing: every replicated object (mutex, rwlock,
// condvar+internal-lock pair, replicated syscall class) owns a Seq_obj
// counter, sections on different objects record concurrently under
// different shard locks, and the secondary grants turns from a per-object
// table — independent objects replay in parallel. Seq_global is retained
// as a Lamport clock so output commit, checkpoint cuts and rejoin
// verification keep a scalar watermark; Seq_thread preserves each thread's
// program order. Shard count 1 is exactly the paper's global total order.
//
// Syscall results the secondary must not recompute (gettimeofday, bytes
// returned by reads, poll results) are recorded as resolve sections whose
// outcome (and payload bytes) travel with the tuple; the secondary returns
// the recorded result instead of executing the call.
//
// The package also implements output stability (§3.5): the primary's
// network output is released only once the secondary has acknowledged every
// log message the output depends on; the relaxed single-machine mode
// releases immediately, counting on cache coherency to deliver in-flight
// messages even across a primary failure.
package replication

import (
	"fmt"
	"time"

	"repro/internal/pthread"
)

// Role is a replica's role in the namespace.
type Role int

const (
	// RolePrimary records and streams deterministic sections.
	RolePrimary Role = iota + 1
	// RoleSecondary replays the primary's log.
	RoleSecondary
	// RoleLive runs unreplicated — the state after failover (either side).
	RoleLive
)

var roleNames = map[Role]string{
	RolePrimary:   "primary",
	RoleSecondary: "secondary",
	RoleLive:      "live",
}

func (r Role) String() string {
	if s, ok := roleNames[r]; ok {
		return s
	}
	return fmt.Sprintf("Role(%d)", int(r))
}

// Extended deterministic-section ops beyond the Pthreads set.
const (
	// OpThreadCreate assigns an ft_pid to a newly spawned replicated
	// thread, so thread identity matches across replicas.
	OpThreadCreate pthread.Op = 100 + iota
	// OpGetTimeOfDay replicates clock reads (§3.3).
	OpGetTimeOfDay
	// OpSockData replicates a socket syscall result carrying data bytes.
	OpSockData
	// OpSockResult replicates a scalar socket syscall result.
	OpSockResult
	// OpPoll replicates poll/epoll readiness results (§3.2).
	OpPoll
)

// Message kinds on the replication log ring.
const (
	msgTuple = iota + 1
	msgEnv
	// msgEpoch carries an EpochMark through the ordinary log stream: an
	// epoch checkpoint cut on the primary, delivered in order so every
	// backup sees the marker at exactly the log position it describes.
	msgEpoch
	// msgEpochAck travels the ack ring from backup to primary once the
	// backup has verified an epoch boundary against its replay watermark
	// and truncated its retained log there (payload = epoch number).
	msgEpochAck
)

// EpochMark is the epoch-checkpoint marker the primary emits through the
// log stream (msgEpoch). It rides the same ordered ring as the tuples it
// fences: a marker emitted right after a cut at sent-watermark S occupies
// log position S itself, so "truncate everything before the marker" on a
// backup drops exactly the S messages the checkpoint replaces — the same
// count the primary drops from its own history after the epoch-ack
// quorum.
type EpochMark struct {
	// Epoch is the monotone epoch number (1-based; survives failover).
	Epoch uint64
	// SeqGlobal is the namespace Lamport watermark at the cut.
	SeqGlobal uint64
	// Sent is the primary's cumulative log-message count at the cut: the
	// log position of this marker and the truncation base of the epoch.
	Sent uint64
	// Digest is the checkpoint digest a backup must reproduce from its
	// own replayed state at SeqGlobal before it may truncate.
	Digest uint64
	// Payload carries the full checkpoint (a *rejoin.EpochCheckpoint,
	// opaque here to keep the package dependency one-way). Backups store
	// the latest verified payload so a post-failover rejoin can start
	// from it instead of replaying full history.
	Payload any
}

// tupleBytes is the accounted shared-memory footprint of one log tuple:
// one cache line of sequence numbers and op metadata (the 64-byte slot
// header is added by the messaging layer).
const tupleBytes = 64

// Tuple is one deterministic-section record: <Seq_thread, Seq_obj, obj_id,
// ft_pid> plus the Lamport Seq_global watermark and the op metadata. The
// sequence numbers fit the same accounted cache line as before sharding
// (tupleBytes), so the wire footprint is unchanged.
type Tuple struct {
	ThreadSeq uint64
	// GlobalSeq is the namespace Lamport clock at emission. With one det
	// shard it is the paper's dense global sequence; with more it remains
	// unique and consistent with every per-thread and per-object order,
	// giving the scalar watermark output commit and checkpoints need.
	GlobalSeq uint64
	// ObjSeq is the section's rank in its sequencing object's own order —
	// the cursor the sharded replayer grants against.
	ObjSeq uint64
	FTPid  int
	Op     pthread.Op
	Obj    uint64
	// Outcome is the recorded result for resolve sections.
	Outcome uint64
	// Data carries payload bytes for data-bearing syscalls (reads).
	Data []byte
}

func (tu Tuple) size() int { return tupleBytes + len(tu.Data) }

func (tu Tuple) String() string {
	return fmt.Sprintf("<%d,%d,%d,%d> %v obj=%d out=%d len=%d",
		tu.ThreadSeq, tu.GlobalSeq, tu.ObjSeq, tu.FTPid, tu.Op, tu.Obj, tu.Outcome, len(tu.Data))
}

// objKey derives a tuple's sequencing object. Pthread primitives carry
// library-unique object ids already; the extended ops fold the op into the
// key so each replicated syscall class (and each socket fd within a class)
// gets its own sequencer. OpThreadCreate stays totally ordered among itself
// because ft_pid assignment mutates shared namespace state. A colliding key
// only over-orders — it can never under-order — so the packing is safe.
func objKey(op pthread.Op, obj uint64) uint64 {
	if op < OpThreadCreate {
		return obj
	}
	return uint64(op)<<48 | obj
}

// ObjCursor is one sequencing object's replication cursor: the Seq_obj its
// side has reached. The per-object cursor vector plus the Lamport watermark
// replaces the single global cursor in sharded checkpoints.
type ObjCursor struct {
	Obj uint64
	Seq uint64
}

// Config tunes the replication engine.
type Config struct {
	// SectionCost is the CPU cost of one deterministic section on the
	// primary (global-mutex critical section plus tuple write).
	SectionCost time.Duration
	// ReplayDispatchCost is the secondary's serial CPU cost to pull one
	// tuple off the ring and hand it to the waiting shadow thread; this
	// path (which rides wake_up_process) is the bottleneck of §4.1.
	ReplayDispatchCost time.Duration
	// ReplaySectionCost is the CPU cost of running one replayed section on
	// the shadow thread.
	ReplaySectionCost time.Duration
	// LogRingBytes is the in-flight log buffer; it absorbs bursts, and its
	// exhaustion is what drops sustained throughput to the secondary's
	// replay rate (§4.1).
	LogRingBytes int64
	// StrictOutputCommit selects waiting for secondary acknowledgements
	// before releasing network output; false is the §3.5 relaxed mode.
	StrictOutputCommit bool
	// AckEvery makes the secondary acknowledge once at least N messages
	// have been processed since the last ack (1 = eager, required for
	// low-latency strict output commit). Acks are cumulative, so a single
	// ack covers a whole ingested batch.
	AckEvery int
	// PanicOnDivergence makes the secondary kernel panic when replay
	// diverges (default counts divergences, for the FIFO-futex ablation).
	PanicOnDivergence bool
	// BatchTuples coalesces up to N log tuples per backup into one vectored
	// ring transfer sharing a single slot header and delivery event
	// (<= 1 streams every tuple individually, the pre-batching behavior).
	// An output-commit waiter always forces an immediate flush, so strict
	// output-commit latency never waits on a partially filled batch.
	BatchTuples int
	// FlushInterval bounds how long a partially filled batch may sit
	// buffered on the primary before the flusher pushes it out (0 with
	// BatchTuples > 1 selects defaultFlushInterval).
	FlushInterval time.Duration
	// AdaptiveBatching replaces the fixed BatchTuples policy with an AIMD
	// feedback controller: the effective batch size starts at BatchTuples,
	// grows while output commits find their watermark already acknowledged
	// (commit wait idle), and halves the moment an output commit stalls or
	// the unacked-log lag climbs past the controller's threshold. The
	// output-commit force-flush invariant is unchanged — a strict waiter
	// still flushes everything buffered before arming its watermark — so
	// the controller trades only buffering latency, never commit safety.
	// With AdaptiveBatching false the recorder's batch policy is exactly
	// the static BatchTuples/FlushInterval one.
	AdaptiveBatching bool
	// MaxBatchTuples caps the adaptive controller's effective batch size
	// (0 selects max(4*BatchTuples, 32)). Ignored without AdaptiveBatching.
	MaxBatchTuples int
	// CommitQuorum is the number of backup receipt acknowledgements an
	// output-commit watermark needs before the output is released. Zero
	// keeps the conservative all-backups rule (every live, caught-up
	// backup must have received the log — the paper's §3.5 behavior and
	// byte-identical to the pre-quorum engine). With k > 0 the recorder
	// releases output once the k-th-highest receipt watermark among the
	// live caught-up backups covers the tuple: any k backups suffice, so
	// one lagging replica no longer sits on the commit path. When fewer
	// than k backups remain alive the rule degrades to all-of-the-living
	// — never weaker than what the survivors can actually promise.
	CommitQuorum int
	// DetShards is the number of det-section locks the namespace global
	// mutex is sharded across. <= 1 selects the paper's single global
	// mutex: the replayer grants only the tuple at its frontier, in the
	// recorded total order, and its pull loop pays the dispatch cost.
	// With more shards, sections on different sequencing objects record
	// and replay concurrently, one grant task per shard paying the
	// dispatch cost; per-object FIFO hand-off and per-thread program order
	// are preserved, so race-free applications replay deterministically.
	DetShards int
	// Rejoinable retains the full log history on both sides so a fresh
	// backup can be re-integrated after a failure: the recorder keeps
	// every emitted message for catch-up streaming (AddReplica) and,
	// instead of going fully live when its last backup dies, degrades to
	// recording with vacuous output stability; the replayer keeps every
	// ingested message and, at promotion, forks the namespace into a
	// recording primary that continues the history seamlessly. It must be
	// set from construction: history cannot be recovered retroactively.
	Rejoinable bool
}

// defaultFlushInterval bounds buffered-tuple latency when batching is on
// but no interval was configured.
const defaultFlushInterval = 50 * time.Microsecond

// withBatchDefaults normalizes the batching knobs: a zero BatchTuples means
// batching off (1), batching without a flush interval gets the default so
// buffered tuples can never sit forever, and the adaptive controller gets
// its cap.
func (c Config) withBatchDefaults() Config {
	if c.BatchTuples < 1 {
		c.BatchTuples = 1
	}
	if c.batched() && c.FlushInterval <= 0 {
		c.FlushInterval = defaultFlushInterval
	}
	if c.AdaptiveBatching && c.MaxBatchTuples < 1 {
		c.MaxBatchTuples = 4 * c.BatchTuples
		if c.MaxBatchTuples < 32 {
			c.MaxBatchTuples = 32
		}
	}
	if c.DetShards < 1 {
		c.DetShards = 1
	}
	return c
}

// batched reports whether the recorder coalesces tuples at all — statically
// (BatchTuples > 1) or under controller governance (the controller may
// drive the effective batch above 1 even when BatchTuples is 1).
func (c Config) batched() bool {
	return c.BatchTuples > 1 || c.AdaptiveBatching
}

// DefaultConfig returns the calibrated engine configuration.
func DefaultConfig() Config {
	return Config{
		SectionCost:        8 * time.Microsecond,
		ReplayDispatchCost: 58 * time.Microsecond,
		ReplaySectionCost:  3 * time.Microsecond,
		LogRingBytes:       2 << 20,
		StrictOutputCommit: true,
		AckEvery:           1,
		BatchTuples:        8,
		FlushInterval:      defaultFlushInterval,
	}
}

// Stats summarizes one side's replication activity.
type Stats struct {
	Sections     uint64 // deterministic sections recorded or replayed
	LogMessages  uint64 // log entries emitted (primary) or processed (secondary)
	LogBatches   uint64 // vectored ring transfers: flushes (primary) or multi-tuple deliveries drained (secondary)
	AckMessages  uint64 // cumulative acknowledgements sent (secondary)
	Divergences  uint64 // replay mismatches detected (secondary)
	Duplicates   uint64 // stale log messages discarded by the replayer (injected duplicates)
	EpochCuts    uint64 // epoch checkpoint markers emitted (primary)
	LogTruncated uint64 // retained log messages dropped at verified epoch boundaries
}
