package replication

import (
	"fmt"
	"testing"

	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/shm"
	"repro/internal/sim"
)

// independentCounters runs four threads, each taking its own mutex n
// times: four sequencing objects, so with DetShards 4 the sections replay
// on four grant tasks in parallel.
func independentCounters(n int) func(*Thread) {
	return func(root *Thread) {
		lib := root.Lib()
		var threads []*Thread
		for i := 0; i < 4; i++ {
			m := lib.NewMutex()
			threads = append(threads, root.NS().SpawnThread(root, "w", func(th *Thread) {
				for j := 0; j < n; j++ {
					m.Lock(th.Task())
					m.Unlock(th.Task())
				}
			}))
		}
		for _, th := range threads {
			root.Join(th)
		}
	}
}

// grantBenchKernel boots one replica's kernel on its own four cores.
func grantBenchKernel(b *testing.B, s *sim.Simulation, name string, cores ...int) (*kernel.Kernel, *hw.Partition) {
	b.Helper()
	part, err := hw.New(s, hw.Opteron6376x4()).NewPartition(name, cores...)
	if err != nil {
		b.Fatal(err)
	}
	kp := kernel.DefaultParams()
	kp.IdleWakeMin, kp.IdleWakeMax = 0, 0
	kp.FutexFIFO = true
	k, err := kernel.Boot(part, kernel.Config{Name: name, Params: kp})
	if err != nil {
		b.Fatal(err)
	}
	return k, part
}

// recordLog runs the app on a primary alone and returns every message it
// streamed, drained by a sink standing in for the backup.
func recordLog(b *testing.B, cfg Config, app func(*Thread)) []shm.Message {
	b.Helper()
	s := sim.New(1)
	k, _ := grantBenchKernel(b, s, "primary", 0, 1, 2, 3)
	fabric := shm.NewFabric(s, 0)
	log := fabric.NewRing("log", 0, cfg.LogRingBytes)
	acks := fabric.NewRing("acks", 1, 64<<10)
	NewPrimary("ftns", k, cfg, log, acks).Start("app", nil, app)
	var out []shm.Message
	s.Spawn("sink", func(p *sim.Proc) {
		for {
			out = append(out, log.RecvBatch(p, 0)...)
		}
	})
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
	return out
}

// BenchmarkReplayGrant times the backup's replay engine alone: a log
// recorded before the timer starts is fed to a fresh backup, whose shadow
// threads park, are granted and complete every section. One op is one
// replayed det section: pull-loop receipt and routing, grant-table admit,
// park, grant and sectionDone, with the simulated thread switches they
// cause.
func BenchmarkReplayGrant(b *testing.B) {
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.DetShards = shards
			app := independentCounters(b.N/4 + 1)
			msgs := recordLog(b, cfg, app)
			b.ReportAllocs()
			b.ResetTimer()
			s := sim.New(1)
			k, _ := grantBenchKernel(b, s, "secondary", 4, 5, 6, 7)
			fabric := shm.NewFabric(s, 0)
			log := fabric.NewRing("log", 0, cfg.LogRingBytes)
			acks := fabric.NewRing("acks", 1, 64<<10)
			ns := NewSecondary("ftns", k, cfg, log, acks)
			ns.Start("app", nil, app)
			s.Spawn("feeder", func(p *sim.Proc) {
				for i := 0; i < len(msgs); i += cfg.BatchTuples {
					log.SendBatch(p, msgs[i:min(i+cfg.BatchTuples, len(msgs))])
				}
			})
			if err := s.Run(); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			st := ns.Stats()
			if want := uint64(len(msgs) - 1); st.Sections != want || st.Divergences != 0 {
				b.Fatalf("replayed %d of %d sections, %d divergences", st.Sections, want, st.Divergences)
			}
		})
	}
}
