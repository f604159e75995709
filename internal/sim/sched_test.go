package sim

import (
	"errors"
	"fmt"
	"hash/fnv"
	"testing"
	"time"
)

// TestSwitchTracePinned pins the context-switch trace of a fixed random
// workload: the number of OnSwitch calls and a digest of every (time,
// process) pair. The numbers were taken from the container/heap scheduler
// with a round trip through the scheduler goroutine per resumption; the
// baton hand-off and the value heap must reproduce them exactly.
func TestSwitchTracePinned(t *testing.T) {
	want := []struct {
		switches int
		digest   uint64
	}{
		{168, 0xcb57970bd97d08bc}, // seed 1
		{168, 0xcb9bbcea32f2d643}, // seed 2
		{168, 0xbb726ad02f40c299}, // seed 3
	}
	for i, w := range want {
		seed := int64(i + 1)
		trace := randomWorkload(t, seed)
		h := fnv.New64a()
		for _, sw := range trace {
			fmt.Fprintln(h, sw)
		}
		if len(trace) != w.switches || h.Sum64() != w.digest {
			t.Errorf("seed %d: %d switches, digest %#x; want %d, %#x",
				seed, len(trace), h.Sum64(), w.switches, w.digest)
		}
	}
}

func TestStaleHandleCancelIsNoop(t *testing.T) {
	s := New(1)
	var zero Event
	zero.Cancel() // the zero handle is inert
	if zero.Pending() {
		t.Error("zero Event reports Pending")
	}

	// A cancelled event's slot is reused at once.
	var got []string
	stale := s.Schedule(time.Millisecond, func() { t.Error("cancelled event fired") })
	stale.Cancel()
	a := s.Schedule(time.Millisecond, func() { got = append(got, "a") })
	// A fired event's slot is reused too.
	fired := s.Schedule(time.Microsecond, func() {})
	if err := s.RunUntil(Time(2 * time.Microsecond)); err != nil {
		t.Fatal(err)
	}
	b := s.Schedule(2*time.Millisecond, func() { got = append(got, "b") })
	if a.slot != stale.slot || b.slot != fired.slot {
		t.Fatalf("slots not reused: a=%d (freed %d), b=%d (freed %d)", a.slot, stale.slot, b.slot, fired.slot)
	}
	stale.Cancel()
	fired.Cancel()
	if stale.Pending() || fired.Pending() {
		t.Error("stale handle reports Pending")
	}
	if !a.Pending() || !b.Pending() || s.Pending() != 2 {
		t.Fatalf("stale Cancel touched a reused slot: a=%v b=%v Pending()=%d", a.Pending(), b.Pending(), s.Pending())
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Errorf("fired %v, want [a b]", got)
	}
}

// TestKillWhileParked kills a process at each kind of block point and
// checks that it unwinds at once without running user code again and
// without leaving an event or a queue entry behind.
func TestKillWhileParked(t *testing.T) {
	cases := []struct {
		name string
		// block parks p; wake, if non-nil, runs at 1ms just before the kill.
		block    func(p *Proc, q *WaitQueue)
		wake     func(q *WaitQueue)
		unwindAt Time
	}{
		{"sleep", func(p *Proc, q *WaitQueue) { p.Sleep(time.Hour) }, nil, Time(time.Millisecond)},
		{"wait-timeout", func(p *Proc, q *WaitQueue) { q.WaitTimeout(p, time.Hour) }, nil, Time(time.Millisecond)},
		// Woken with a 5ms delay, then killed before it runs: it must
		// resume once, at the wake-up, and unwind there.
		{"between-wake-and-run", func(p *Proc, q *WaitQueue) { q.Wait(p) },
			func(q *WaitQueue) { q.WakeOne(5 * time.Millisecond) }, Time(6 * time.Millisecond)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := New(1)
			q := NewWaitQueue(s)
			switches := 0
			s.OnSwitch = func(Time, string) { switches++ }
			reached := false
			var unwound Time
			p := s.Spawn("victim", func(p *Proc) {
				defer func() { unwound = p.Now() }()
				c.block(p, q)
				reached = true
			})
			s.Schedule(time.Millisecond, func() {
				if c.wake != nil {
					c.wake(q)
				}
				p.Kill()
			})
			if err := s.Run(); err != nil {
				t.Fatal(err)
			}
			if reached {
				t.Error("killed process ran past its block point")
			}
			if !p.Finished() || s.Live() != 0 {
				t.Errorf("Finished()=%v Live()=%d, want true, 0", p.Finished(), s.Live())
			}
			if unwound != c.unwindAt {
				t.Errorf("unwound at %v, want %v", unwound, c.unwindAt)
			}
			if switches != 2 {
				t.Errorf("%d switches, want 2 (start and unwind)", switches)
			}
			if s.Pending() != 0 || q.Len() != 0 {
				t.Errorf("left %d events and %d waiters behind", s.Pending(), q.Len())
			}
		})
	}
}

// TestCallbackPanicOnProcGoroutine raises a panic in a callback that runs
// while a process holds the baton (the process has just gone to sleep and
// pops the next event itself). RunUntil must re-raise the original value,
// and the simulation must stay usable afterwards.
func TestCallbackPanicOnProcGoroutine(t *testing.T) {
	type boom struct{ n int }
	s := New(1)
	woke := Time(-1)
	s.Spawn("holder", func(p *Proc) {
		p.Sleep(2 * time.Millisecond)
		woke = p.Now()
	})
	s.Schedule(time.Millisecond, func() { panic(boom{7}) })
	func() {
		defer func() {
			if r := recover(); r != (boom{7}) {
				t.Errorf("RunUntil re-panicked with %v, want boom{7}", r)
			}
		}()
		_ = s.RunUntil(Time(time.Second))
		t.Error("RunUntil returned instead of panicking")
	}()
	if s.Now() != Time(time.Millisecond) {
		t.Errorf("Now() = %v after the panic, want 1ms", s.Now())
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if woke != Time(2*time.Millisecond) || s.Live() != 0 {
		t.Errorf("holder woke at %v with Live()=%d, want 2ms and 0", woke, s.Live())
	}
}

// TestProcPanicKeepsWrapping checks that a panic inside a process still
// reaches the Run caller wrapped with the process name.
func TestProcPanicKeepsWrapping(t *testing.T) {
	s := New(1)
	s.Spawn("other", func(p *Proc) { p.Sleep(time.Millisecond) })
	s.Spawn("bad", func(p *Proc) {
		p.Sleep(time.Millisecond)
		panic("boom")
	})
	defer func() {
		r := recover()
		msg, ok := r.(string)
		if !ok || len(msg) < 30 || msg[:30] != `sim: process "bad" panicked: b` {
			t.Errorf("Run re-panicked with %q, want the sim: process \"bad\" wrapping", r)
		}
	}()
	_ = s.Run()
}

func TestStopFromProcess(t *testing.T) {
	s := New(1)
	var afterStop, afterBlock, late bool
	s.Spawn("stopper", func(p *Proc) {
		p.Sleep(time.Millisecond)
		s.Stop()
		afterStop = true // Stop takes effect when the process blocks
		p.Sleep(time.Millisecond)
		afterBlock = true
	})
	s.Schedule(1500*time.Microsecond, func() { late = true })
	if err := s.Run(); !errors.Is(err, ErrStopped) {
		t.Fatalf("Run = %v, want ErrStopped", err)
	}
	if !afterStop || afterBlock || late {
		t.Errorf("afterStop=%v afterBlock=%v late=%v, want true false false", afterStop, afterBlock, late)
	}
	if s.Now() != Time(time.Millisecond) {
		t.Errorf("Now() = %v, want 1ms", s.Now())
	}
}

// TestRunUntilHandsBackFromProcess stops at a horizon that a process, not
// the Run caller, reaches: the process pops its own next wake-up, finds
// it past the horizon and hands the baton back.
func TestRunUntilHandsBackFromProcess(t *testing.T) {
	s := New(1)
	var wakes []Time
	s.Spawn("ticker", func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Sleep(time.Millisecond)
			wakes = append(wakes, p.Now())
		}
	})
	horizon := Time(2*time.Millisecond + 500*time.Microsecond)
	if err := s.RunUntil(horizon); err != nil {
		t.Fatal(err)
	}
	if s.Now() != horizon {
		t.Errorf("Now() = %v, want exactly %v", s.Now(), horizon)
	}
	if len(wakes) != 2 || s.Pending() != 1 || s.Live() != 1 {
		t.Fatalf("wakes %v, Pending()=%d, Live()=%d; want 2 wakes, 1, 1", wakes, s.Pending(), s.Live())
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(wakes) != 5 || wakes[2] != Time(3*time.Millisecond) || s.Live() != 0 {
		t.Errorf("wakes %v, Live()=%d after Run", wakes, s.Live())
	}
}
