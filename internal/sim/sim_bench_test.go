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
