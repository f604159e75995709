package sim

import (
	"testing"
	"time"
)

// The scheduler's steady state allocates nothing: once the event heap and
// the slot table have grown, a sleep, a wait/wake hand-off and a callback
// scheduled with a pre-built func all reuse what is there.

func TestSleepAllocatesNothing(t *testing.T) {
	s := New(1)
	p := s.Spawn("sleeper", func(p *Proc) {
		for {
			p.Sleep(time.Microsecond)
		}
	})
	defer func() { p.Kill(); _ = s.Run() }()
	checkNoAllocs(t, s, "Sleep")
}

func TestWaitWakeAllocatesNothing(t *testing.T) {
	s := New(1)
	q := NewWaitQueue(s)
	body := func(p *Proc) {
		for {
			q.WakeOne(time.Microsecond)
			q.Wait(p)
		}
	}
	ping, pong := s.Spawn("ping", body), s.Spawn("pong", body)
	defer func() { ping.Kill(); pong.Kill(); _ = s.Run() }()
	checkNoAllocs(t, s, "Wait/WakeOne")
}

func TestScheduleAllocatesNothing(t *testing.T) {
	s := New(1)
	fired := 0
	fn := func() { fired++ }
	warm := func() {
		s.Schedule(time.Microsecond, fn)
		if err := s.RunFor(time.Microsecond); err != nil {
			t.Fatal(err)
		}
	}
	warm()
	if n := testing.AllocsPerRun(1000, warm); n != 0 {
		t.Errorf("Schedule + fire: %v allocs/op, want 0", n)
	}
	if fired != 1002 {
		t.Errorf("fired %d events, want 1002", fired)
	}
}

// checkNoAllocs advances s one microsecond at a time, which the workloads
// above turn into one resumption each.
func checkNoAllocs(t *testing.T, s *Simulation, what string) {
	t.Helper()
	step := func() {
		if err := s.RunFor(time.Microsecond); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 16; i++ {
		step()
	}
	if n := testing.AllocsPerRun(1000, step); n != 0 {
		t.Errorf("%s: %v allocs/op, want 0", what, n)
	}
}
