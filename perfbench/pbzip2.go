package main

import (
	"fmt"
	"time"

	"repro/internal/apps/pbzip2"
	"repro/internal/core"
	"repro/internal/replication"
	"repro/internal/sim"
	"repro/internal/tcprep"
)

// pbzip2 input: 25 KB blocks, where replay is the bottleneck and FT runs
// near half the baseline (at 50 KB default batching already recovers
// ~99%, so no replication change could show). The block count bounds the
// work; both systems drain it to completion.
const (
	pbzipBlocks   = 10000
	pbzipBlockKB  = 25
	pbzipRamp     = sim.Time(2 * time.Second)        // FT runs near baseline speed until the log ring fills
	pbzipBaseRamp = sim.Time(250 * time.Millisecond) // the baseline's pipeline fill
	pbzipDeadline = sim.Time(60 * time.Second)
)

type pbzipRun struct {
	cfg    pbzip2.Config
	base   *core.Baseline
	sys    *core.System
	baseSt pbzip2.Stats
	ftSt   map[*replication.Namespace]*pbzip2.Stats
}

func buildPbzip2(seed int64, traced bool) (instance, error) {
	cfg := pbzip2.DefaultConfig()
	cfg.BlockSize = pbzipBlockKB << 10
	cfg.Workers = 32
	cfg.MaxBlocks = pbzipBlocks
	w := &pbzipRun{cfg: cfg, ftSt: make(map[*replication.Namespace]*pbzip2.Stats)}

	base, err := core.NewBaseline(core.DefaultConfig(seed))
	if err != nil {
		return nil, fmt.Errorf("pbzip2 baseline: %w", err)
	}
	w.base = base
	base.NS.Start("pbzip2", nil, func(th *replication.Thread) { pbzip2.Run(th, cfg, &w.baseSt) })

	// The paper's configuration: two replicas, the single global det
	// mutex, static 8-tuple batching.
	opts := []core.Option{core.WithSeed(seed), core.WithReplicaSet(2), core.WithDetShards(1),
		core.WithBatching(8, 0)}
	if traced {
		opts = append(opts, core.WithTrace())
	}
	sys, err := core.New(opts...)
	if err != nil {
		return nil, fmt.Errorf("pbzip2 FT: %w", err)
	}
	w.sys = sys
	for _, rep := range sys.ReplicaSet {
		w.ftSt[rep.NS] = &pbzip2.Stats{}
	}
	sys.Run(core.App{Name: "pbzip2", Main: func(th *replication.Thread, _ *tcprep.Sockets) {
		pbzip2.Run(th, cfg, w.ftSt[th.NS()])
	}})
	return w, nil
}

func (w *pbzipRun) system() *core.System { return w.sys }

func (w *pbzipRun) simulate(c *clock) error {
	if err := c.runWhile(w.base.Sim, pbzipDeadline, func() bool { return !w.baseSt.Done }); err != nil {
		return err
	}
	c.attach(w.sys.Sim)
	return c.runWhile(w.sys.Sim, pbzipDeadline, func() bool {
		for _, st := range w.ftSt {
			if !st.Done {
				return true
			}
		}
		return false
	})
}

func (w *pbzipRun) check() *result {
	r := &result{ops: pbzipBlocks}
	want := pbzip2.ExpectChecksum(w.cfg)
	verify := func(who string, st *pbzip2.Stats) {
		r.attempted += pbzipBlocks
		ok := st.Done && st.Blocks == pbzipBlocks && st.Checksum == want
		if !ok {
			r.failed += pbzipBlocks - goodBlocks(st, want)
			r.fail("%s: done=%v blocks=%d/%d checksum=%#x want %#x",
				who, st.Done, st.Blocks, pbzipBlocks, st.Checksum, want)
		}
		r.digest.times(st.BlockTimes)
		r.digest.add(int64(st.Checksum), int64(st.FinishedAt))
	}
	verify("baseline", &w.baseSt)
	prim := w.ftSt[w.sys.Primary.NS]
	for i, rep := range w.sys.ReplicaSet {
		verify(fmt.Sprintf("replica %d", i), w.ftSt[rep.NS])
	}
	r.checkDivergences(w.sys)

	ft := steadyRate(prim.BlockTimes, pbzipRamp)
	bt := steadyRate(w.baseSt.BlockTimes, pbzipBaseRamp)
	// The whole input is requested at time 0, so a block's latency is its
	// completion time.
	r.endToEnd(ft, bt, nanos(prim.BlockTimes), nanos(w.baseSt.BlockTimes), prim.FinishedAt.Seconds())
	return r
}

func goodBlocks(st *pbzip2.Stats, want uint64) int {
	if st.Checksum != want {
		return 0
	}
	return st.Blocks
}

// steadyRate is the completion rate from the end of the ramp to the last
// completion.
func steadyRate(ts []sim.Time, ramp sim.Time) float64 {
	if len(ts) == 0 {
		return 0
	}
	return rateIn(ts, ramp, ts[len(ts)-1])
}
