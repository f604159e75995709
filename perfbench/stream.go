package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/apps/restream"
	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/replication"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/tcpstack"
)

// stream-failover: a restorable download over 1 Gb/s whose primary is
// fail-stopped about a second in. The file is large enough that the
// transfer continues past the election and both serialized rejoins.
const (
	streamBytes      = 256 << 20
	streamChunk      = 64 << 10    // one operation: a 64 KiB piece of the stream
	streamKillAt     = time.Second // plus up to streamKillJitter drawn from the seed
	streamKillJitter = 100 * time.Millisecond
	streamRamp       = sim.Time(250 * time.Millisecond)
	streamDeadline   = sim.Time(60 * time.Second)
	streamPoll       = time.Millisecond
)

// downloader is the benchmark's verifying client: it checks every byte
// against restream.Fill and records when each 64 KiB piece arrived and
// the gaps between receipts.
type downloader struct {
	startAt, doneAt sim.Time
	received        int
	corrupt         int
	pieces          []sim.Time
	lastRecv        sim.Time
	maxGap          sim.Time
	killGap         sim.Time // the longest receipt gap ending after the kill
	done            bool
	want            []byte
}

func (d *downloader) run(client *core.Client, port int, killAt sim.Time) {
	d.want = make([]byte, 256<<10)
	client.Kernel.Spawn("wget", func(t *kernel.Task) {
		defer func() { d.done = true }()
		d.startAt = t.Now()
		c, err := client.Stack.Connect(t, client.ServerAddr(port))
		if err != nil {
			return
		}
		d.lastRecv = t.Now()
		for d.received < streamBytes {
			data, err := c.Recv(t, len(d.want))
			if err != nil {
				break
			}
			now := t.Now()
			if gap := now - d.lastRecv; gap > d.maxGap {
				d.maxGap = gap
			}
			if killAt > 0 && now >= killAt && now-d.lastRecv > d.killGap {
				d.killGap = now - d.lastRecv
			}
			d.lastRecv = now
			want := d.want[:len(data)]
			restream.Fill(want, d.received)
			for i := range data {
				if data[i] != want[i] {
					d.corrupt++
				}
			}
			before := d.received / streamChunk
			d.received += len(data)
			for k := before; k < d.received/streamChunk; k++ {
				d.pieces = append(d.pieces, now)
			}
		}
		d.doneAt = t.Now()
		_ = c.Close(t)
	})
}

func (d *downloader) pending() bool { return !d.done }

type streamRun struct {
	base   *core.Baseline
	sys    *core.System
	bd, fd downloader

	killAt   sim.Time
	fullAt   sim.Time // back to full strength with every backup caught up
	catchup  uint64   // log messages the rejoined backups consumed by then
	pollDone bool
}

func buildStream(seed int64, traced bool) (instance, error) {
	tcp := tcpstack.DefaultParams()
	tcp.MSS = 32 << 10
	cfg := restream.Config{Port: 80, Chunk: 64 << 10, Total: streamBytes}
	killAt := streamKillAt + time.Duration(rand.New(rand.NewSource(seed)).Int63n(int64(streamKillJitter)))
	w := &streamRun{killAt: sim.Time(killAt)}

	bcfg := core.DefaultConfig(seed)
	bcfg.TCP = tcp
	base, err := core.NewBaseline(bcfg)
	if err != nil {
		return nil, fmt.Errorf("stream baseline: %w", err)
	}
	bclient, err := base.AttachNetwork(simnet.GigabitEthernet())
	if err != nil {
		return nil, fmt.Errorf("stream baseline network: %w", err)
	}
	base.NS.Start("stream", nil, func(th *replication.Thread) { restream.New(cfg).Main(th, base.Sockets) })
	w.bd.run(bclient, cfg.Port, 0)
	w.base = base

	// Three replicas with a majority quorum, epoch checkpoints every
	// 250 ms, the paper's 5 s NIC reload and a 1 s repair delay.
	opts := []core.Option{core.WithSeed(seed), core.WithReplicaSet(3),
		core.WithEpochCheckpoints(250*time.Millisecond, 0),
		core.WithNICDriverLoadTime(5 * time.Second), core.WithRejoinDelay(time.Second),
		core.WithTCP(tcp)}
	if traced {
		opts = append(opts, core.WithTrace())
	}
	sys, err := core.New(opts...)
	if err != nil {
		return nil, fmt.Errorf("stream FT: %w", err)
	}
	fclient, err := sys.AttachNetwork(simnet.GigabitEthernet())
	if err != nil {
		return nil, fmt.Errorf("stream FT network: %w", err)
	}
	sys.Run(core.App{Name: "stream", State: func() core.AppState { return restream.New(cfg) }})
	w.fd.run(fclient, cfg.Port, w.killAt)
	sys.InjectPrimaryFailure(killAt, hw.CoreFailStop)
	sys.Sim.Schedule(killAt, w.poll)
	w.sys = sys
	return w, nil
}

// poll watches, every millisecond of virtual time after the kill, for
// the replica set to be back at full strength: healthy, every slot
// filled, and every backup link live and out of catch-up in the
// recorder's own accounting.
func (w *streamRun) poll() {
	sys := w.sys
	full := sys.Cfg.Replicas - 1
	if sys.FailedAt >= w.killAt && sys.Healthy() == nil && len(sys.Backups()) == full && sys.Active().NS.LiveBackups() == full {
		var msgs uint64
		for _, b := range sys.Backups() {
			msgs += b.NS.Stats().LogMessages
		}
		w.fullAt, w.catchup, w.pollDone = sys.Sim.Now(), msgs, true
		return
	}
	sys.Sim.Schedule(streamPoll, w.poll)
}

func (w *streamRun) system() *core.System { return w.sys }

func (w *streamRun) simulate(c *clock) error {
	if err := c.runWhile(w.base.Sim, streamDeadline, w.bd.pending); err != nil {
		return err
	}
	c.attach(w.sys.Sim)
	return c.runWhile(w.sys.Sim, streamDeadline, func() bool { return w.fd.pending() || !w.pollDone })
}

func (w *streamRun) check() *result {
	ops := streamBytes / streamChunk
	r := &result{ops: float64(ops)}
	for _, side := range []struct {
		name string
		d    *downloader
	}{{"baseline", &w.bd}, {"FT", &w.fd}} {
		d := side.d
		r.attempted += ops
		good := len(d.pieces)
		if d.corrupt > 0 {
			good = 0
		}
		r.failed += ops - good
		if d.received != streamBytes || d.corrupt > 0 {
			r.fail("%s: received %d of %d bytes, %d corrupt", side.name, d.received, streamBytes, d.corrupt)
		}
		r.digest.times(d.pieces)
		r.digest.add(int64(d.startAt), int64(d.doneAt), int64(d.maxGap), int64(d.killGap))
	}
	sys := w.sys
	if !w.pollDone {
		r.fail("replica set never returned to full strength (state %v, generation %d)", sys.State(), sys.Generation())
	}
	if err := sys.RejoinErr(); err != nil {
		r.fail("rejoin: %v", err)
	}
	r.checkDivergences(sys)
	r.digest.add(int64(sys.FailedAt), int64(sys.LiveAt), int64(w.fullAt), int64(w.catchup), int64(sys.Generation()))

	ft := rateIn(w.fd.pieces, streamRamp, w.killAt)
	bt := rateIn(w.bd.pieces, streamRamp, w.killAt)
	// The whole file is requested at once, so a piece's latency is its
	// arrival time since the request.
	r.endToEnd(ft, bt, since(w.fd.pieces, w.fd.startAt), since(w.bd.pieces, w.bd.startAt),
		w.fd.doneAt.Sub(w.fd.startAt).Seconds())

	r.layer("outage_s", w.fd.killGap.Seconds())
	r.layer("degraded_s", w.fullAt.Sub(w.killAt).Seconds())
	r.layer("tcpstack.recv_gap_max_ms", ms(float64(w.fd.maxGap)))
	r.layer("failure.detect_ms", ms(float64(sys.FailedAt-w.killAt)))
	r.layer("core.promote_ms", ms(float64(sys.LiveAt-sys.FailedAt)))
	r.layer("rejoin.catchup_msgs", float64(w.catchup))
	return r
}
