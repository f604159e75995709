package sim

import "time"

// WaitQueue is a FIFO queue of parked processes — the simulation analogue of
// a kernel wait queue. Wake-ups can carry a delay, which models the cost of
// wake_up_process (scheduler latency, idle-state exit) without the waker
// having to block.
type WaitQueue struct {
	sim   *Simulation
	procs []*Proc
}

// NewWaitQueue returns an empty wait queue.
func NewWaitQueue(s *Simulation) *WaitQueue {
	return &WaitQueue{sim: s}
}

// Len reports the number of parked processes.
func (q *WaitQueue) Len() int { return len(q.procs) }

// Wait parks p until a WakeOne or WakeAll releases it.
func (q *WaitQueue) Wait(p *Proc) {
	q.wait(p, -1)
}

// WaitTimeout parks p until it is woken or until d elapses. It reports true
// if the process was woken and false if the wait timed out.
func (q *WaitQueue) WaitTimeout(p *Proc, d time.Duration) bool {
	return q.wait(p, d)
}

func (q *WaitQueue) wait(p *Proc, d time.Duration) bool {
	p.timer = Event{}
	p.timedOut = false
	if d >= 0 {
		p.timer = q.sim.push(q.sim.now.Add(d), evTimeout, p, nil)
	}
	q.procs = append(q.procs, p)
	p.parked = waiting
	p.wq = q
	p.block()
	return !p.timedOut
}

// WakeOne releases the longest-waiting process, scheduling it to resume
// after delay. It returns the woken process, or nil if the queue was empty.
func (q *WaitQueue) WakeOne(delay time.Duration) *Proc {
	return q.WakeIndex(0, delay)
}

// WakeIndex releases the i-th parked process (0 = longest waiting),
// scheduling it to resume after delay. It returns the woken process, or nil
// if fewer than i+1 processes are parked. It exists to model wake policies
// that are NOT first-in-first-out (e.g. the stock futex behaviour that the
// paper's FIFO modification replaces).
func (q *WaitQueue) WakeIndex(i int, delay time.Duration) *Proc {
	if i < 0 || i >= len(q.procs) {
		return nil
	}
	p := q.procs[i]
	q.removeAt(i)
	release(p, delay)
	return p
}

// WakeAll releases every parked process, each scheduled to resume after
// delay, in FIFO order. It reports how many processes were woken.
func (q *WaitQueue) WakeAll(delay time.Duration) int {
	n := len(q.procs)
	for _, p := range q.procs {
		release(p, delay)
	}
	clear(q.procs)
	q.procs = q.procs[:0]
	return n
}

func release(p *Proc, delay time.Duration) {
	p.timer.Cancel()
	p.makeRunnable(delay)
}

// remove deletes p from the queue, reporting whether it was present.
func (q *WaitQueue) remove(p *Proc) bool {
	for i, x := range q.procs {
		if x == p {
			q.removeAt(i)
			return true
		}
	}
	return false
}

// removeAt deletes the i-th process, shifting the rest down so the
// backing array is reused by later waits.
func (q *WaitQueue) removeAt(i int) {
	n := len(q.procs) - 1
	copy(q.procs[i:], q.procs[i+1:])
	q.procs[n] = nil
	q.procs = q.procs[:n]
}
