package sim

import (
	"fmt"
	"runtime/debug"
	"time"
)

// killedPanic unwinds a process goroutine after Kill. It is recovered by the
// process wrapper and never escapes the package.
type killedPanic struct{}

// procPanic wraps a real panic raised inside a process so the scheduler can
// re-panic with context about which process failed.
type procPanic struct {
	proc  string
	value any
	stack []byte
}

func (p procPanic) String() string {
	return fmt.Sprintf("sim: process %q panicked: %v\n%s", p.proc, p.value, p.stack)
}

// parkState records what a blocked process is parked on, so Kill can
// unpark it without a per-block closure.
type parkState uint8

const (
	notParked parkState = iota // running, runnable, or not yet started
	sleeping                   // in Sleep; timer is the wake-up
	waiting                    // on wq; timer is the timeout, if any
)

// Proc is a simulated process: a goroutine that runs under the simulation
// scheduler. At most one Proc executes at any moment; a Proc advances virtual
// time only by blocking (Sleep, WaitQueue.Wait, ...). All Proc methods must
// be called from the Proc's own goroutine unless documented otherwise.
type Proc struct {
	sim      *Simulation
	group    *Group
	name     string
	resume   chan struct{}
	killed   bool
	finished bool

	parked   parkState
	wq       *WaitQueue // queue the process waits on while waiting
	timer    Event      // pending sleep wake-up or wait timeout
	timedOut bool       // the last WaitTimeout expired
}

// Spawn starts fn as a new simulated process that begins running at the
// current virtual time. It may be called from the scheduler (inside an
// event callback) or from another process.
func (s *Simulation) Spawn(name string, fn func(p *Proc)) *Proc {
	return s.SpawnAfter(name, 0, fn)
}

// SpawnAfter starts fn as a new simulated process that begins running after
// delay d.
func (s *Simulation) SpawnAfter(name string, d time.Duration, fn func(p *Proc)) *Proc {
	p := &Proc{
		sim:    s,
		name:   name,
		resume: make(chan struct{}),
	}
	s.liveProc++
	go p.main(fn)
	p.makeRunnable(d)
	return p
}

func (p *Proc) main(fn func(p *Proc)) {
	<-p.resume
	func() {
		defer func() {
			r := recover()
			if r == nil {
				return
			}
			if _, ok := r.(killedPanic); ok {
				return
			}
			p.sim.failure = procPanic{proc: p.name, value: r, stack: debug.Stack()}.String()
		}()
		if !p.killed {
			fn(p)
		}
	}()
	p.finished = true
	p.sim.liveProc--
	if p.group != nil {
		p.group.procDone(p)
	}
	p.sim.pass(nil)
}

// Sim returns the simulation the process belongs to.
func (p *Proc) Sim() *Simulation { return p.sim }

// Name returns the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Now reports the current virtual time.
func (p *Proc) Now() Time { return p.sim.now }

// Killed reports whether the process (or its group) has been killed. A
// running process observes this before it unwinds at its next block point.
func (p *Proc) Killed() bool { return p.killed }

// Finished reports whether the process function has returned or unwound.
func (p *Proc) Finished() bool { return p.finished }

// block parks the process until it is resumed. Its park state must already
// be set. If the process was killed in the meantime it unwinds.
func (p *Proc) block() {
	p.sim.pass(p)
	if p.killed {
		panic(killedPanic{})
	}
}

// makeRunnable schedules the process to resume after delay d and clears its
// park state. Called from scheduler or another process context.
func (p *Proc) makeRunnable(d time.Duration) {
	p.parked = notParked
	p.wq = nil
	p.sim.push(p.sim.now.Add(d), evResume, p, nil)
}

// Sleep blocks the process for duration d of virtual time.
func (p *Proc) Sleep(d time.Duration) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative sleep %v in process %q", d, p.name))
	}
	p.timer = p.sim.push(p.sim.now.Add(d), evResume, p, nil)
	p.parked = sleeping
	p.block()
}

// Kill marks the process as killed and, if it is parked, unparks it so the
// goroutine unwinds. A killed process stops at its next block point and
// never runs user code again. Kill may be called from the scheduler or from
// another process; killing the calling process takes effect at its next
// block point. Kill is idempotent.
func (p *Proc) Kill() {
	if p.killed || p.finished {
		return
	}
	p.killed = true
	switch p.parked {
	case sleeping:
		p.timer.Cancel()
		p.makeRunnable(0)
	case waiting:
		p.wq.remove(p)
		p.timer.Cancel()
		p.makeRunnable(0)
	}
}

// Group is a named set of processes that can be killed together — the
// simulation analogue of halting a hardware partition. Spawning into a
// killed group yields a process that unwinds before running.
type Group struct {
	sim    *Simulation
	name   string
	killed bool
	procs  []*Proc // live procs in spawn order, for deterministic kill order
}

// NewGroup returns an empty process group.
func (s *Simulation) NewGroup(name string) *Group {
	return &Group{sim: s, name: name}
}

// Name returns the group name.
func (g *Group) Name() string { return g.name }

// Killed reports whether the group has been killed.
func (g *Group) Killed() bool { return g.killed }

// Live reports the number of unfinished processes in the group.
func (g *Group) Live() int { return len(g.procs) }

// Spawn starts a process that belongs to the group.
func (g *Group) Spawn(name string, fn func(p *Proc)) *Proc {
	return g.SpawnAfter(name, 0, fn)
}

// SpawnAfter starts a process in the group after delay d.
func (g *Group) SpawnAfter(name string, d time.Duration, fn func(p *Proc)) *Proc {
	p := g.sim.SpawnAfter(name, d, fn)
	p.group = g
	if g.killed {
		p.Kill()
		return p
	}
	g.procs = append(g.procs, p)
	return p
}

// Kill kills every live process in the group, in spawn order, and marks the
// group so future spawns die immediately. It is idempotent.
func (g *Group) Kill() {
	if g.killed {
		return
	}
	g.killed = true
	procs := g.procs
	g.procs = nil
	for _, p := range procs {
		p.Kill()
	}
}

func (g *Group) procDone(p *Proc) {
	for i, q := range g.procs {
		if q == p {
			g.procs = append(g.procs[:i], g.procs[i+1:]...)
			return
		}
	}
}
