package sim

import (
	"testing"
	"time"
)

// BenchmarkSimSchedule measures the event queue: each op schedules one
// event and later pops and runs it. Events are scheduled in batches of
// 1024 in scrambled time order and drained by RunUntil, so the heap works
// at a steady depth instead of degenerating to a FIFO.
func BenchmarkSimSchedule(b *testing.B) {
	const batch = 1024
	s := New(1)
	fired := 0
	fn := func() { fired++ }
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Schedule(time.Duration(i*7919%batch+1)*time.Microsecond, fn)
		if i%batch == batch-1 || i == b.N-1 {
			if err := s.RunUntil(s.Now().Add((batch + 1) * time.Microsecond)); err != nil {
				b.Fatal(err)
			}
		}
	}
	if fired != b.N {
		b.Fatalf("fired %d of %d events", fired, b.N)
	}
}

// BenchmarkProcSwitch measures a process park/resume: two processes
// ping-pong through a WaitQueue, so each op is one wake-up, one park and
// one hand-off from one process goroutine to the other.
func BenchmarkProcSwitch(b *testing.B) {
	s := New(1)
	q := NewWaitQueue(s)
	n := 0
	body := func(p *Proc) {
		for n < b.N {
			n++
			q.WakeOne(0)
			q.Wait(p)
		}
		q.WakeAll(0)
	}
	s.Spawn("ping", body)
	s.Spawn("pong", body)
	b.ReportAllocs()
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
	if s.Live() != 0 {
		b.Fatalf("%d processes still parked", s.Live())
	}
}
