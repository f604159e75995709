package main

import (
	"fmt"
	"hash/fnv"
	"math"

	"repro/internal/core"
	"repro/internal/sim"
)

// instance is one repetition of a workload: both deployments built and
// their apps registered, ready to simulate.
type instance interface {
	simulate(c *clock) error
	check() *result
	system() *core.System
}

// workload names a set of inputs and how to build them from a seed.
type workload struct {
	name  string
	build func(seed int64, traced bool) (instance, error)
}

var workloads = []workload{
	{"pbzip2", buildPbzip2},
	{"web", buildWeb},
	{"stream-failover", buildStream},
}

// result is what one repetition observed on the virtual clock. Every
// field is a pure function of the seed.
type result struct {
	virtual   []metric
	layers    map[string]float64
	digest    digest
	attempted int
	failed    int
	problems  []string
	ops       float64 // FT operations, the per-op denominator
}

func (r *result) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *result) layer(name string, v float64) {
	if r.layers == nil {
		r.layers = make(map[string]float64)
	}
	r.layers[name] = v
}

// checkDivergences fails the run if any replica, boot-time or rejoined,
// reports a replay divergence.
func (r *result) checkDivergences(sys *core.System) {
	seen := map[*core.Replica]bool{}
	reps := append(append([]*core.Replica{}, sys.ReplicaSet...), sys.Active())
	reps = append(reps, sys.Backups()...)
	for _, rep := range reps {
		if rep == nil || seen[rep] {
			continue
		}
		seen[rep] = true
		if d := rep.NS.Stats().Divergences; d > 0 {
			r.fail("replica in slot %d: %d replay divergences", rep.Slot(), d)
		}
	}
}

// endToEnd records the virtual-clock end-to-end metrics every workload
// defines. ft/bt are FT and baseline steady-state completions per second;
// ftLat/btLat each operation's latency in ns, from when it was issued to
// its completion; transferS the FT time to complete all of them.
func (r *result) endToEnd(ft, bt float64, ftLat, btLat []float64, transferS float64) {
	p50 := quantile(ftLat, 0.50)
	r.virtual = append(r.virtual,
		metric{"throughput_ops_s", ft},
		metric{"pct_of_baseline", 100 * ratio(ft, bt)},
		metric{"p50_ms", ms(p50)},
		metric{"p95_ms", ms(quantile(ftLat, 0.95))},
		metric{"p99_ms", ms(quantile(ftLat, 0.99))},
		metric{"latency_overhead_pct", 100 * ratio(p50, quantile(btLat, 0.50))},
		metric{"transfer_s", transferS},
	)
	for i := range r.virtual {
		if v := r.virtual[i].value; math.IsInf(v, 0) || math.IsNaN(v) {
			r.fail("%s is not finite", r.virtual[i].name)
			r.virtual[i].value = -1
		}
	}
	r.digest.add(int64(math.Float64bits(ft)), int64(math.Float64bits(bt)), int64(r.attempted), int64(r.failed))
}

// digest fingerprints every virtual-clock observation of a repetition,
// so two same-seed runs can be compared beyond the summary metrics.
type digest struct{ h uint64 }

func (d *digest) add(vs ...int64) {
	f := fnv.New64a()
	var b [8]byte
	for _, v := range vs {
		for i := range b {
			b[i] = byte(uint64(v) >> (8 * i))
		}
		f.Write(b[:])
	}
	d.h = d.h*1099511628211 ^ f.Sum64()
}

func (d *digest) times(ts []sim.Time) {
	vs := make([]int64, len(ts))
	for i, t := range ts {
		vs[i] = int64(t)
	}
	d.add(vs...)
}
