package kernel

import (
	"fmt"
	"time"

	"repro/internal/sim"
)

// Task is one kernel thread (a schedulable entity). A task holds a core
// only while inside Compute; blocking operations release the CPU, exactly
// as a Linux thread sleeping in the kernel does.
type Task struct {
	kernel *Kernel
	proc   *sim.Proc
	tid    int
	name   string

	wakeQ    *sim.WaitQueue // personal queue for core hand-off
	core     int            // core assigned by a releasing task, -1 otherwise
	doneQ    *sim.WaitQueue // joiners
	finished bool
}

// scheduler multiplexes tasks over the kernel's cores.
type scheduler struct {
	k         *Kernel
	ncores    int
	idle      []int      // idle core IDs (most recently used last)
	idleSince []sim.Time // per core
	// Two-level run queue, as in Linux's wake-preemption: tasks that just
	// woke from a block (interactive) are dispatched before tasks that
	// merely exhausted their timeslice (batch), so a brief lock hold or
	// syscall is not penalized by a full quantum behind CPU hogs. A boosted
	// arrival with no idle core preempts a running batch task mid-quantum.
	boostq  []*Task
	runq    []*Task
	slices  []runSlice  // one reusable timeslice record per core
	running []*runSlice // core -> current timeslice, nil while none runs
}

// runSlice is one task's current occupancy of a core. Each core reuses one
// record, whose expiry callback is bound once.
type runSlice struct {
	t         *Task
	core      int
	batch     bool
	start     sim.Time
	timer     sim.Event
	expire    func()
	finished  bool
	preempted bool
}

func newScheduler(k *Kernel, ncores int) *scheduler {
	s := &scheduler{
		k:         k,
		ncores:    ncores,
		idleSince: make([]sim.Time, ncores),
		slices:    make([]runSlice, ncores),
		running:   make([]*runSlice, ncores),
	}
	for c := range s.slices {
		sl := &s.slices[c]
		sl.core = c
		sl.expire = sl.onExpire
	}
	for c := ncores - 1; c >= 0; c-- {
		s.idle = append(s.idle, c)
	}
	return s
}

// Spawn starts fn as a new kernel task. The task's goroutine dies with the
// kernel.
func (k *Kernel) Spawn(name string, fn func(t *Task)) *Task {
	k.nextTID++
	t := &Task{
		kernel: k,
		tid:    k.nextTID,
		name:   name,
		core:   -1,
		wakeQ:  sim.NewWaitQueue(k.sim),
		doneQ:  sim.NewWaitQueue(k.sim),
	}
	t.proc = k.group.Spawn(fmt.Sprintf("%s/%s.%d", k.name, name, t.tid), func(p *sim.Proc) {
		defer func() {
			t.finished = true
			t.doneQ.WakeAll(0)
		}()
		fn(t)
	})
	return t
}

// Kernel returns the kernel the task runs on.
func (t *Task) Kernel() *Kernel { return t.kernel }

// TID returns the task's thread ID, unique within its kernel.
func (t *Task) TID() int { return t.tid }

// Name returns the task's name.
func (t *Task) Name() string { return t.name }

// Proc returns the underlying simulated process.
func (t *Task) Proc() *sim.Proc { return t.proc }

// Now returns the current virtual time.
func (t *Task) Now() sim.Time { return t.kernel.sim.Now() }

// Finished reports whether the task function has returned.
func (t *Task) Finished() bool { return t.finished }

// Kill terminates the task at its next block point.
func (t *Task) Kill() { t.proc.Kill() }

// Join blocks the calling task until t finishes.
func (t *Task) Join(caller *Task) {
	for !t.finished {
		t.doneQ.Wait(caller.proc)
	}
}

// Sleep blocks the task for d without holding a core.
func (t *Task) Sleep(d time.Duration) { t.proc.Sleep(d) }

// Busy occupies the task for d of short on-CPU work WITHOUT a scheduling
// point: the model of a brief kernel path (syscall entry, lock word
// update, log write) that runs to completion on the thread's current core
// rather than rescheduling. It advances time and utilization accounting
// but does not contend for a core.
func (t *Task) Busy(d time.Duration) {
	if d <= 0 {
		return
	}
	t.proc.Sleep(d)
	t.kernel.computeNS += int64(d)
}

// Syscall charges the base syscall entry/exit cost.
func (t *Task) Syscall() { t.Busy(t.kernel.params.SyscallCost) }

// Compute consumes d of CPU time on one of the kernel's cores, competing
// with other tasks. Dispatch costs (context switch, deep-idle wake penalty)
// are added on top of d.
func (t *Task) Compute(d time.Duration) {
	if d <= 0 {
		return
	}
	s := t.kernel.sched
	core := s.acquire(t, true)
	batch := false
	for d > 0 {
		q := d
		if q > t.kernel.params.Quantum {
			q = t.kernel.params.Quantum
		}
		elapsed := s.runSliceFor(t, core, q, batch)
		t.kernel.computeNS += int64(elapsed)
		d -= elapsed
		if d > 0 && s.queued() > 0 {
			// Contended (or preempted): yield the core and requeue as batch.
			s.release(core)
			core = s.acquire(t, false)
			batch = true
		}
	}
	s.release(core)
}

// runSliceFor occupies the core for up to q of compute, returning the time
// actually run: a batch slice ends early when a freshly woken task preempts
// it.
func (s *scheduler) runSliceFor(t *Task, core int, q time.Duration, batch bool) time.Duration {
	slice := &s.slices[core]
	slice.t, slice.batch, slice.start = t, batch, s.k.sim.Now()
	slice.finished, slice.preempted = false, false
	s.running[core] = slice
	defer func() {
		s.running[core] = nil
		if r := recover(); r != nil {
			// The task was killed mid-slice: cancel the expiry, so the
			// core's next slice never sees it, and free the core as we
			// unwind.
			slice.timer.Cancel()
			s.release(core)
			panic(r)
		}
	}()
	slice.timer = s.k.sim.Schedule(q, slice.expire)
	t.wakeQ.Wait(t.proc)
	return s.k.sim.Now().Sub(slice.start)
}

// onExpire ends the slice when its quantum runs out.
func (sl *runSlice) onExpire() {
	if sl.finished {
		return
	}
	sl.finished = true
	sl.t.wakeQ.WakeOne(0)
}

// preemptBatch interrupts the longest-running batch slice, if any,
// reporting whether one was preempted.
func (s *scheduler) preemptBatch() bool {
	var victim *runSlice
	for _, sl := range s.running {
		if sl != nil && sl.batch && !sl.finished && !sl.preempted &&
			(victim == nil || sl.start < victim.start || (sl.start == victim.start && sl.core < victim.core)) {
			victim = sl
		}
	}
	if victim == nil {
		return false
	}
	victim.preempted = true
	victim.finished = true
	victim.timer.Cancel()
	victim.t.wakeQ.WakeOne(s.k.params.ContextSwitch)
	return true
}

func (s *scheduler) queued() int { return len(s.boostq) + len(s.runq) }

// acquire obtains a core for t, paying dispatch latency. If every core is
// busy the task queues behind other runnable tasks: freshly woken tasks
// (boost) ahead of timeslice-expired ones.
func (s *scheduler) acquire(t *Task, boost bool) int {
	if len(s.idle) > 0 {
		core := s.idle[len(s.idle)-1]
		s.idle = s.idle[:len(s.idle)-1]
		idleFor := s.k.sim.Now().Sub(s.idleSince[core])
		if pen := s.dispatchPenalty(idleFor); pen > 0 {
			t.proc.Sleep(pen)
		}
		return core
	}
	if boost {
		s.boostq = append(s.boostq, t)
		// Wake-preemption: evict a running batch slice so the woken task
		// gets a core within a context switch rather than a full quantum —
		// granted with the configured probability, as CFS's vruntime check
		// only sometimes allows it.
		if pr := s.k.params.WakePreemptProb; pr > 0 && (pr >= 1 || s.k.sim.Rand().Float64() < pr) {
			s.preemptBatch()
		}
	} else {
		s.runq = append(s.runq, t)
	}
	t.wakeQ.Wait(t.proc)
	return t.core
}

// dispatchPenalty models wake_up_process: a context switch, plus an
// idle-exit penalty that grows with how long the target core has been idle
// (deeper C-states take longer to leave), up to tens of milliseconds for
// long-idle cores (§4.1). The penalty is bounded by a twentieth of the
// idle time, so waking costs can degrade but never dominate a busy
// system's throughput.
func (s *scheduler) dispatchPenalty(idleFor time.Duration) time.Duration {
	p := s.k.params
	pen := p.ContextSwitch
	if idleFor <= p.IdleThreshold || p.IdleWakeMax <= p.IdleWakeMin {
		return pen
	}
	depth := idleFor / 20
	if max := p.IdleWakeMax - p.IdleWakeMin; depth > max {
		depth = max
	}
	pen += p.IdleWakeMin
	if depth > 0 {
		pen += time.Duration(s.k.sim.Rand().Int63n(int64(depth)))
	}
	return pen
}

// release returns a core, handing it directly to the next queued task if
// any (paying only a context switch — the core never goes idle); boosted
// (freshly woken) tasks are served before batch tasks.
func (s *scheduler) release(core int) {
	for s.queued() > 0 {
		var next *Task
		if len(s.boostq) > 0 {
			next = s.boostq[0]
			s.boostq = s.boostq[1:]
		} else {
			next = s.runq[0]
			s.runq = s.runq[1:]
		}
		if next.proc.Killed() || next.finished {
			continue
		}
		next.core = core
		next.wakeQ.WakeOne(s.k.params.ContextSwitch)
		return
	}
	s.idleSince[core] = s.k.sim.Now()
	s.idle = append(s.idle, core)
}

// Runnable reports the number of tasks queued for a core.
func (k *Kernel) Runnable() int { return k.sched.queued() }

// IdleCores reports the number of idle cores.
func (k *Kernel) IdleCores() int { return len(k.sched.idle) }
