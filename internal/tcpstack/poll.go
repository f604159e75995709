package tcpstack

import (
	"time"

	"repro/internal/kernel"
	"repro/internal/sim"
)

// Pollable is a socket that can be watched for readiness — the kernel
// objects behind poll/epoll interest sets, which FT-Linux maintains on the
// secondary so failover can transition to unmanaged execution (§3.2).
type Pollable interface {
	// PollReadable reports whether a read-type operation would not block.
	PollReadable() bool
	// PollWritable reports whether a write-type operation would not block.
	PollWritable() bool
	// OnPollChange registers a readiness-change callback.
	OnPollChange(fn func())
}

var (
	_ Pollable = (*Conn)(nil)
	_ Pollable = (*Listener)(nil)
)

// PollReadable reports readable data, a pending EOF, or a terminal error.
func (c *Conn) PollReadable() bool {
	return c.rcvBuf.Len() > 0 || c.peerFin || c.err != nil || c.state == stateClosed
}

// PollWritable reports available send-buffer space on a live connection.
func (c *Conn) PollWritable() bool {
	return c.state == stateEstablished && c.sndBuf.Len() < c.stack.params.SendBuf
}

// OnPollChange registers a readiness callback.
func (c *Conn) OnPollChange(fn func()) { c.pollFns = append(c.pollFns, fn) }

func (c *Conn) notifyPoll() {
	for _, fn := range c.pollFns {
		fn()
	}
}

// PollReadable reports a pending connection (accept would not block).
func (l *Listener) PollReadable() bool { return len(l.ready) > 0 || l.closed }

// PollWritable always reports false for listeners.
func (l *Listener) PollWritable() bool { return false }

// OnPollChange registers a readiness callback.
func (l *Listener) OnPollChange(fn func()) { l.pollFns = append(l.pollFns, fn) }

func (l *Listener) notifyPoll() {
	for _, fn := range l.pollFns {
		fn()
	}
}

// Poller is an epoll-like readiness multiplexer over a fixed interest set.
type Poller struct {
	kern  *kernel.Kernel
	items []Pollable
	q     *sim.WaitQueue
}

// NewPoller creates an empty poller.
func NewPoller(k *kernel.Kernel) *Poller {
	return &Poller{kern: k, q: sim.NewWaitQueue(k.Sim())}
}

// Add registers a socket in the interest set.
func (p *Poller) Add(item Pollable) {
	p.items = append(p.items, item)
	item.OnPollChange(func() { p.q.WakeAll(0) })
}

// Items returns the interest set (shared; callers must not modify).
func (p *Poller) Items() []Pollable { return p.items }

// Wait blocks until at least one registered socket is readable (or the
// timeout elapses; negative waits forever) and returns the readable set.
func (p *Poller) Wait(t *kernel.Task, timeout time.Duration) []Pollable {
	t.Syscall()
	deadline := t.Now().Add(timeout)
	for {
		var ready []Pollable
		for _, it := range p.items {
			if it.PollReadable() {
				ready = append(ready, it)
			}
		}
		if len(ready) > 0 {
			return ready
		}
		if timeout < 0 {
			p.q.Wait(t.Proc())
			continue
		}
		remain := deadline.Sub(t.Now())
		if remain <= 0 || !p.q.WaitTimeout(t.Proc(), remain) {
			return nil
		}
	}
}
