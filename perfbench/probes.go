package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/obs"
	"repro/internal/shm"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// probe times one layer's public calls in isolation. moves names the
// workloads whose host_s a change to the layer should move.
type probe struct {
	name  string
	moves string
	ops   int
	run   func(n int) error
}

var probes = []probe{
	{"sim", "pbzip2, web", 200000, probeSim},
	{"shm", "pbzip2", 50000, probeShm},
	{"tcpstack", "stream-failover", 4000, probeTCP},
	{"obs_on", "every traced run", 200000, func(n int) error { return probeObs(n, true) }},
	{"obs_off", "pbzip2, web, stream-failover", 200000, func(n int) error { return probeObs(n, false) }},
}

// runProbes reports probe.<name>.ns_op and probe.<name>.allocs_op.
func runProbes() (map[string]float64, error) {
	out := map[string]float64{}
	for _, p := range probes {
		runtime.GC()
		_, o0 := allocCounters()
		start := time.Now()
		if err := p.run(p.ops); err != nil {
			return nil, fmt.Errorf("probe %s: %w", p.name, err)
		}
		d := time.Since(start)
		_, o1 := allocCounters()
		out["probe."+p.name+".ns_op"] = float64(d.Nanoseconds()) / float64(p.ops)
		out["probe."+p.name+".allocs_op"] = float64(o1-o0) / float64(p.ops)
	}
	return out, nil
}

// probeSim schedules events in batches of 1024 and drains each batch
// with RunUntil.
func probeSim(n int) error {
	s := sim.New(1)
	fn := func() {}
	for done := 0; done < n; done += 1024 {
		for i := 0; i < 1024; i++ {
			s.Schedule(time.Duration(i%64)*time.Nanosecond, fn)
		}
		if err := s.RunUntil(s.Now() + 64); err != nil {
			return err
		}
	}
	return nil
}

// probeShm moves n single-message spans between two procs:
// Reserve/Put/Commit on one side, Recv on the other.
func probeShm(n int) error {
	s := sim.New(1)
	ring := shm.NewFabric(s, 100*time.Nanosecond).NewRing("probe", 0, 64<<10)
	s.Spawn("send", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			sp := ring.Reserve(p, 1, 64)
			sp.Put(shm.Message{Kind: 1, Size: 64})
			sp.Commit()
		}
	})
	got := 0
	s.Spawn("recv", func(p *sim.Proc) {
		for ; got < n; got++ {
			ring.Recv(p)
		}
	})
	if err := s.Run(); err != nil {
		return err
	}
	if got != n {
		return fmt.Errorf("received %d of %d messages", got, n)
	}
	return nil
}

// probeTCP sends n 16 KiB writes from the client machine to a receiver
// on the baseline server across the simulated gigabit link.
func probeTCP(n int) error {
	const chunk = 16 << 10
	base, err := core.NewBaseline(core.DefaultConfig(1))
	if err != nil {
		return err
	}
	client, err := base.AttachNetwork(simnet.GigabitEthernet())
	if err != nil {
		return err
	}
	l, err := base.Stack.Listen(9000, 1)
	if err != nil {
		return err
	}
	got := 0
	base.Kernel.Spawn("recv", func(t *kernel.Task) {
		c, err := l.Accept(t)
		if err != nil {
			return
		}
		for got < n*chunk {
			data, err := c.Recv(t, 64<<10)
			if err != nil {
				return
			}
			got += len(data)
		}
	})
	client.Kernel.Spawn("send", func(t *kernel.Task) {
		c, err := client.Stack.Connect(t, client.ServerAddr(9000))
		if err != nil {
			return
		}
		buf := make([]byte, chunk)
		for i := 0; i < n; i++ {
			if _, err := c.Send(t, buf); err != nil {
				return
			}
		}
	})
	for got < n*chunk && base.Sim.Now() < sim.Time(time.Minute) {
		if err := base.Sim.RunFor(10 * time.Millisecond); err != nil {
			return err
		}
	}
	if got != n*chunk {
		return fmt.Errorf("received %d of %d bytes", got, n*chunk)
	}
	return nil
}

// probeObs emits n events on one scope with the full trace retained or
// off (flight ring only).
func probeObs(n int, trace bool) error {
	sc := obs.New(sim.New(1), obs.Config{Trace: trace}).Scope("probe")
	for i := 0; i < n; i++ {
		sc.Emit(obs.Replay, 1, int64(i), int64(i))
	}
	return nil
}
