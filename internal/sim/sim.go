// Package sim implements a deterministic discrete-event simulation engine.
//
// The engine provides a virtual clock, a time-ordered event queue, and
// goroutine-backed simulated processes (Proc). At most one process runs at a
// time and all ties are broken by insertion order, so a simulation is fully
// deterministic for a given seed: running it twice produces the identical
// sequence of events, context switches, and random numbers.
//
// Control is a baton. Whichever goroutine holds it — the caller of Run or
// RunUntil, or the process that is running — pops events and runs their
// callbacks. A process that blocks keeps the baton and pops on its own
// behalf: if the next resumption is its own it simply returns, otherwise it
// hands the baton straight to the process that resumes, or back to the Run
// caller at the horizon, on Stop, or on a failure. The event queue is a
// 4-ary heap of value entries ordered by (time, sequence number), and a
// process carries its own park state, so scheduling a callback, sleeping,
// waking and timing out allocate nothing once the queue has grown.
//
// Everything else in this repository — the simulated hardware, the kernels,
// the replication protocol, and the benchmark workloads — is built on this
// package.
package sim

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"
)

// Time is an instant in virtual time, expressed in nanoseconds since the
// start of the simulation.
type Time int64

// Add returns the instant d after t.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Sub returns the duration between t and earlier instant u.
func (t Time) Sub(u Time) time.Duration { return time.Duration(t - u) }

// Duration converts t to the duration elapsed since the simulation started.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// Seconds reports t as floating-point seconds since the simulation started.
func (t Time) Seconds() float64 { return float64(t) / float64(time.Second) }

func (t Time) String() string { return time.Duration(t).String() }

// Event is a handle to a scheduled callback. It is a small value: copy it
// freely. The zero Event is inert. A handle names its event by sequence
// number, which is never reused, so a handle kept after its event fired or
// was cancelled can never touch a later event that reuses the slot.
type Event struct {
	s    *Simulation
	at   Time
	seq  uint64
	slot int32
}

// At reports the virtual time at which the event fires.
func (e Event) At() Time { return e.at }

// Pending reports whether the event is still scheduled: it has neither
// fired (its callback has not started) nor been cancelled.
func (e Event) Pending() bool { return e.s != nil && e.s.slots[e.slot].seq == e.seq }

// Cancel prevents the event from firing. Cancelling an event that already
// fired or was already cancelled, or the zero Event, is a no-op.
func (e Event) Cancel() {
	if e.Pending() {
		e.s.freeSlot(e.slot)
	}
}

// eventKind tags what a slot does when its event fires.
type eventKind uint8

const (
	evFunc    eventKind = iota // run fn
	evResume                   // resume p: spawn, wake-up or sleep expiry
	evTimeout                  // p's WaitTimeout expired
)

// slot holds a pending event's action. seq names the event that occupies
// it (0 when free); a heap entry or handle with another seq is stale.
type slot struct {
	seq  uint64
	fn   func()
	p    *Proc
	kind eventKind
}

// entry is one element of the event heap. A cancelled event's entry stays
// in the heap until it reaches the top and is dropped there, as its slot
// no longer carries its seq.
type entry struct {
	at   Time
	seq  uint64
	slot int32
}

func (a entry) before(b entry) bool {
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

// eventHeap is a 4-ary min-heap on (at, seq). Its entries are distinct, so
// any correct heap pops them in the same order.
type eventHeap []entry

func (h *eventHeap) push(e entry) {
	q := append(*h, e)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !e.before(q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = e
	*h = q
}

// popMin removes the minimum entry.
func (h *eventHeap) popMin() {
	q := *h
	n := len(q) - 1
	last := q[n]
	q = q[:n]
	*h = q
	if n == 0 {
		return
	}
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		best := first
		for c := first + 1; c < first+4 && c < n; c++ {
			if q[c].before(q[best]) {
				best = c
			}
		}
		if !q[best].before(last) {
			break
		}
		q[i] = q[best]
		i = best
	}
	q[i] = last
}

// ErrStopped is returned by Run when the simulation was halted by Stop.
var ErrStopped = errors.New("sim: stopped")

// Simulation owns the virtual clock, the event queue, and all processes.
// A Simulation must be created with New and is not safe for concurrent use;
// it is driven from a single goroutine by Run or RunUntil.
type Simulation struct {
	now      Time
	heap     eventHeap
	slots    []slot
	free     []int32 // free slot indices
	live     int     // scheduled, uncancelled events
	seq      uint64
	rng      *rand.Rand
	until    Time          // horizon of the current Run/RunUntil
	handback chan struct{} // returns the baton to the Run caller
	stopped  bool
	failure  any // panic value to re-raise on the Run caller's goroutine
	liveProc int

	// OnSwitch, if non-nil, is invoked on every context switch to a process
	// with the current virtual time and the process name. It exists so tests
	// can record and compare full execution traces.
	OnSwitch func(Time, string)
}

// New returns a simulation whose random source is seeded with seed.
func New(seed int64) *Simulation {
	return &Simulation{
		rng:      rand.New(rand.NewSource(seed)),
		handback: make(chan struct{}),
	}
}

// Now reports the current virtual time.
func (s *Simulation) Now() Time { return s.now }

// Rand returns the simulation's deterministic random source.
func (s *Simulation) Rand() *rand.Rand { return s.rng }

// Pending reports the number of scheduled (uncancelled) events.
func (s *Simulation) Pending() int { return s.live }

// Live reports the number of processes that have been spawned and have not
// yet finished.
func (s *Simulation) Live() int { return s.liveProc }

// Schedule arranges for fn to run at virtual time now+d. It must not
// block; to do blocking work, spawn a Proc instead.
func (s *Simulation) Schedule(d time.Duration, fn func()) Event {
	return s.push(s.now.Add(d), evFunc, nil, fn)
}

// ScheduleAt is like Schedule but takes an absolute instant. Scheduling in
// the past panics: it would violate causality.
func (s *Simulation) ScheduleAt(at Time, fn func()) Event {
	return s.push(at, evFunc, nil, fn)
}

// push schedules one event. Every event, whatever its kind, takes the next
// sequence number, which breaks ties between events at the same instant.
func (s *Simulation) push(at Time, kind eventKind, p *Proc, fn func()) Event {
	if at < s.now {
		panic(fmt.Sprintf("sim: event scheduled in the past: at=%v now=%v", at, s.now))
	}
	s.seq++
	var i int32
	if n := len(s.free); n > 0 {
		i = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		i = int32(len(s.slots))
		s.slots = append(s.slots, slot{})
	}
	s.slots[i] = slot{seq: s.seq, fn: fn, p: p, kind: kind}
	s.live++
	s.heap.push(entry{at: at, seq: s.seq, slot: i})
	return Event{s: s, at: at, seq: s.seq, slot: i}
}

func (s *Simulation) freeSlot(i int32) {
	s.slots[i] = slot{}
	s.free = append(s.free, i)
	s.live--
}

// Stop halts the simulation: Run returns ErrStopped once the currently
// running process blocks or finishes.
func (s *Simulation) Stop() { s.stopped = true }

// Run processes events until the event queue is empty, Stop is called, or a
// process panics (in which case Run re-panics with the original value and a
// note naming the process). Processes blocked on wait queues with no pending
// wake-up are left parked; callers can detect that via Live.
func (s *Simulation) Run() error {
	return s.run(math.MaxInt64)
}

// RunUntil processes events with firing time <= t, then advances the clock
// to exactly t and returns. Events scheduled after t remain pending.
func (s *Simulation) RunUntil(t Time) error {
	err := s.run(t)
	if err == nil && s.now < t && !s.stopped {
		s.now = t
	}
	return err
}

// RunFor is shorthand for RunUntil(Now()+d).
func (s *Simulation) RunFor(d time.Duration) error { return s.RunUntil(s.now.Add(d)) }

// run takes the baton on the caller's goroutine and returns once it comes
// back. A callback that panics here propagates directly; a failure raised
// on a process goroutine is re-raised here.
func (s *Simulation) run(until Time) error {
	s.until = until
	if p := s.next(); p != nil {
		p.resume <- struct{}{}
		<-s.handback
	}
	if f := s.failure; f != nil {
		s.failure = nil
		panic(f)
	}
	if s.stopped {
		return ErrStopped
	}
	return nil
}

// next runs events on the goroutine holding the baton until a process must
// resume, and returns that process (already announced to OnSwitch). It
// returns nil when the baton belongs to the Run caller: the queue is empty,
// the next event lies past the horizon, Stop was called, or a process
// failed.
func (s *Simulation) next() *Proc {
	for len(s.heap) > 0 && !s.stopped && s.failure == nil {
		e := s.heap[0]
		if e.at > s.until {
			return nil
		}
		s.heap.popMin()
		sl := s.slots[e.slot]
		if sl.seq != e.seq {
			continue // cancelled
		}
		if e.at < s.now {
			panic(fmt.Sprintf("sim: time went backwards: event at %v, now %v", e.at, s.now))
		}
		s.now = e.at
		s.freeSlot(e.slot)
		p := sl.p
		switch sl.kind {
		case evFunc:
			sl.fn()
		case evTimeout:
			if !p.wq.remove(p) {
				continue
			}
			p.timedOut = true
			p.makeRunnable(0)
		case evResume:
			if p.finished {
				continue
			}
			p.parked = notParked
			if s.OnSwitch != nil {
				s.OnSwitch(s.now, p.name)
			}
			return p
		}
	}
	return nil
}

// pass is next for a process goroutine, which then hands the baton on.
// self is the process that just blocked, or nil for one that finished.
// pass returns once self holds the baton again; with self nil it returns
// as soon as the baton has left. A callback that panics on a process
// goroutine stops the run: its value is re-raised by Run on the caller's
// goroutine.
func (s *Simulation) pass(self *Proc) {
	next := s.nextRecover()
	if next != nil && next == self {
		return
	}
	if next != nil {
		next.resume <- struct{}{}
	} else {
		s.handback <- struct{}{}
	}
	if self != nil {
		<-self.resume
	}
}

func (s *Simulation) nextRecover() (p *Proc) {
	defer func() {
		if r := recover(); r != nil {
			s.failure = r
			p = nil
		}
	}()
	return s.next()
}
