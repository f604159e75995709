package main

import (
	"bytes"
	"math"
	"runtime/pprof"
	"testing"
	"time"
)

func TestClassify(t *testing.T) {
	for _, tc := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.mallocgc", "repro/internal/tcpstack.(*Conn).Recv", "main.(*downloader).run"}, "tcpstack"},
		{[]string{"container/heap.Pop", "repro/internal/sim.(*Simulation).run"}, "sim"},
		{[]string{"repro/internal/apps/mongoose.serve"}, "apps"},
		{[]string{"repro/internal/obs/causal.Build"}, "obs"},
		{[]string{"repro/internal/kmem.(*Accounting).Alloc"}, "kernel"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.memmove", "repro/internal/shm.(*Ring).deliver", "runtime.gcAssistAlloc"}, "gc"},
		{[]string{"bytes.Equal", "main.(*webClient).request"}, "bench"},
		{[]string{"runtime.futex", "runtime.schedule"}, "runtime"},
	} {
		if got := classify(tc.stack); got != tc.want {
			t.Errorf("classify(%v) = %s, want %s", tc.stack, got, tc.want)
		}
	}
}

// TestSelfByLayer decodes a real CPU profile: every sample lands in
// exactly one layer, so the shares sum to 100.
func TestSelfByLayer(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler unavailable:", err)
	}
	x := 1.0
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		x = math.Sqrt(x + 1)
	}
	pprof.StopCPUProfile()
	self, err := selfByLayer(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, l := range hostLayers {
		sum += self[l]
	}
	if sum != 0 && math.Abs(sum-100) > 1e-6 {
		t.Fatalf("layer shares sum to %v, want 100 (x=%v)", sum, x)
	}
}
