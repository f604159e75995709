package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"repro/internal/sim"
)

// metric is one named measurement; its unit is the one BENCHMARK.json
// gives the name.
type metric struct {
	name  string
	value float64
}

// slice is the virtual-time granularity at which the harness hands
// control back between RunUntil calls to sample the live heap.
const slice = sim.Time(50 * time.Millisecond)

// clock accounts the host cost of one repetition: wall time spent inside
// RunUntil, the largest live heap seen between slices, and (traced runs)
// the scheduler's context switches.
type clock struct {
	firstRun time.Time     // when the first RunUntil began: set-up ends here
	simTime  time.Duration // host time inside RunUntil
	virtual  time.Duration // virtual time simulated, summed over simulations
	peakLive uint64
	switches int64
	countSw  bool
	live     []metrics.Sample
}

func newClock(countSwitches bool) *clock {
	return &clock{countSw: countSwitches, live: []metrics.Sample{{Name: "/gc/heap/live:bytes"}}}
}

// attach installs the switch counter on a simulation (traced runs only:
// the hook costs a call per switch).
func (c *clock) attach(s *sim.Simulation) {
	if c.countSw {
		s.OnSwitch = func(sim.Time, string) { c.switches++ }
	}
}

// runWhile advances s slice by slice until t or until more returns
// false, whichever comes first.
func (c *clock) runWhile(s *sim.Simulation, t sim.Time, more func() bool) error {
	for s.Now() < t && more() {
		next := s.Now() + slice
		if next > t {
			next = t
		}
		start := time.Now()
		if c.firstRun.IsZero() {
			c.firstRun = start
		}
		from := s.Now()
		err := s.RunUntil(next)
		c.simTime += time.Since(start)
		c.virtual += s.Now().Sub(from)
		c.sampleHeap()
		if err != nil {
			return err
		}
	}
	return nil
}

func (c *clock) sampleHeap() {
	metrics.Read(c.live)
	if v := c.live[0].Value; v.Kind() == metrics.KindUint64 && v.Uint64() > c.peakLive {
		c.peakLive = v.Uint64()
	}
}

// allocCounters reads cumulative allocated bytes and objects.
func allocCounters() (bytes, objects uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc, ms.Mallocs
}

// median returns the middle value of xs (mean of the middle two for an
// even count); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile is the nearest-rank q-quantile of xs; +Inf entries (failed
// operations) sort last, so a failure counts as infinitely late.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

func sortTimes(ts []sim.Time) { sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] }) }

// nanos converts instants to float nanoseconds since time 0.
func nanos(ts []sim.Time) []float64 { return since(ts, 0) }

// since returns each instant's distance from t0 in nanoseconds.
func since(ts []sim.Time, t0 sim.Time) []float64 {
	out := make([]float64, len(ts))
	for i, t := range ts {
		out[i] = float64(t - t0)
	}
	return out
}

// rateIn counts instants of ts in [from, to] per virtual second.
func rateIn(ts []sim.Time, from, to sim.Time) float64 {
	if to <= from {
		return 0
	}
	n := 0
	for _, t := range ts {
		if t >= from && t <= to {
			n++
		}
	}
	return float64(n) / (to - from).Seconds()
}

func ms(ns float64) float64 { return ns / 1e6 }
func us(ns float64) float64 { return ns / 1e3 }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
