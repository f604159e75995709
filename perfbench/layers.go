package main

import (
	"strings"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/obs/causal"
)

// workloadLayers are per-layer metrics only some workloads exercise; a
// workload that does not produce one reports 0 for it. outage_s and
// degraded_s are end-to-end in kind but exist only where a fault is
// injected, so they cannot carry a bound on every workload.
var workloadLayers = []string{
	"outage_s", "degraded_s",
	"tcpstack.connect_p50_us", "tcpstack.ttfb_p50_us", "tcpstack.body_p50_us",
	"tcpstack.recv_gap_max_ms", "web.gen_late_p99_us",
	"failure.detect_ms", "core.promote_ms", "rejoin.catchup_msgs",
}

// critStages names causal.Attribute's stages as metric names.
var critStages = []string{"seq_wait", "replay_grant", "ring_reserve", "batch_residency", "transfer", "commit_wait"}

// systemLayers reads the FT deployment's own counters after a traced
// repetition: the obs registry, fabric and namespace stats, and the
// causal critical-path split of every committed output.
func systemLayers(r *result, sys *core.System) {
	for _, name := range workloadLayers {
		if _, ok := r.layers[name]; !ok {
			r.layer(name, 0)
		}
	}
	snap := sys.Obs.Registry().Snapshot()
	hist := func(name string) obs.HistogramSnap {
		h, _ := snap.Histogram(name)
		return h
	}
	gauge := func(name string) float64 {
		v, _ := snap.Gauge(name)
		return float64(v)
	}
	mean := func(h obs.HistogramSnap) float64 { return ratio(float64(h.Sum), float64(h.Count)) }
	perOp := func(v float64) float64 { return ratio(v, r.ops) }

	r.layer("replication.grant_wait_p99_us", us(float64(hist("ftns.grant.wait").P99)))
	r.layer("replication.flush_lag_p99", float64(hist("ftns.flush.lag").P99))
	r.layer("replication.shard_wait_p99_us", us(float64(hist("ftns.shard.wait").P99)))
	r.layer("replication.commit_wait_p50_us", us(float64(hist("ftns.commit.wait").P50)))
	r.layer("replication.commit_wait_p99_us", us(float64(hist("ftns.commit.wait").P99)))
	r.layer("replication.ctrl_batch_final", gauge("ftns.ctrl.batch"))
	r.layer("replication.sections_per_op", perOp(float64(sys.Primary.NS.Stats().Sections)))
	r.layer("replication.flush_batch_mean", mean(hist("ftns.flush.batch")))
	r.layer("replication.retained_tuples_end", float64(sys.Active().NS.RetainedTuples()))
	r.layer("replication.epoch_pause_p99_us", us(float64(hist("ftns.epoch.pause").P99)))
	r.layer("tcprep.sync_batch_mean", mean(hist("tcprep.sync.batch")))

	fs := sys.Fabric.Stats()
	r.layer("shm.msgs_per_op", perOp(float64(fs.Messages)))
	r.layer("shm.bytes_per_op", perOp(float64(fs.Bytes)))
	r.layer("shm.reserve_waits", float64(fs.ReserveWaits))
	r.layer("shm.send_wait_ms", ms(float64(fs.SendWaitNs)))

	// The replay lag left once the workload has finished: sections the
	// recording side holds that some backup has not replayed.
	var lag uint64
	head := sys.Active().NS.SeqGlobal()
	for _, b := range sys.Backups() {
		if h := b.NS.ReplayHead(); head > h && head-h > lag {
			lag = head - h
		}
	}
	r.layer("replication.replay_lag_end", float64(lag))

	events := sys.Obs.Events()
	r.layer("obs.events_per_op", perOp(float64(len(events))))
	var cuts, elections, outputs int
	var resync float64
	for _, ev := range events {
		switch ev.Kind {
		case obs.EpochCut:
			cuts++
		case obs.Election:
			elections++
		case obs.ResyncDone:
			if ev.Arg > 0 {
				resync += float64(ev.Arg)
			}
		case obs.OutputReleased:
			outputs++
		}
	}
	r.layer("replication.epoch_cuts", float64(cuts))
	r.layer("core.elections", float64(elections))
	r.layer("rejoin.resync_ms", ms(resync))

	// The causal graph is only worth building when some output waited
	// for commit; without one every stage is zero.
	stages := make([]int64, len(critStages))
	if outputs > 0 {
		for _, st := range causal.Attribute(causal.Build(events)).Stages {
			for i, name := range critStages {
				if strings.ReplaceAll(st.Stage, "-", "_") == name {
					stages[i] = st.P99
				}
			}
		}
	}
	for i, name := range critStages {
		r.layer("critpath."+name+"_p99_us", us(float64(stages[i])))
	}
}
