// Command perfbench is the repository's benchmark: it runs one named
// workload on the unreplicated baseline and on the FT deployment with
// identical generated inputs, checks every output, and prints the
// end-to-end metrics (or, with --trace 1, the per-layer metrics) named
// in BENCHMARK.json. Run it from the repository root:
//
//	bash perfbench/run.sh --workload web --seed 7 --seconds 20 --trace 0
//
// Each repetition runs in a fresh child process, so host-clock metrics
// (wall time, allocations, live heap) describe one repetition alone.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// procStart approximates process start for setup_s.
var procStart = time.Now()

// subSeeds is how many inputs a run draws from its seed. Each virtual
// metric is the median over them, so one unusual input (a pbzip2 seed
// whose log ring fills early, a bursty web schedule) cannot swing a run.
const subSeeds = 5

// subSeed derives input i of a run; distinct seeds never share an input.
func subSeed(seed int64, i int) int64 { return seed*subSeeds + int64(i) }

const (
	minReps      = subSeeds + 1 // every input once, then one repeat checked for determinism
	maxReps      = 15           // cap on untraced repetitions per run
	minSetups    = 21           // set-up samples behind the setup_s median
	runBudget    = 170 * time.Second
	specFile     = "BENCHMARK.json"
	childTimeout = 150 * time.Second
)

func main() {
	name := flag.String("workload", "", "workload name from BENCHMARK.json")
	seed := flag.Int64("seed", 1, "workload seed: drives the generated inputs and core.WithSeed")
	seconds := flag.Int("seconds", 10, "host seconds to spend on repetitions")
	trace := flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run")
	child := flag.String("child", "", "internal: rep, traced, setup or probes in this process")
	flag.Parse()
	if n := runtime.NumCPU(); n < 2 {
		runtime.GOMAXPROCS(n)
	} else {
		runtime.GOMAXPROCS(2)
	}
	if *child != "" {
		if err := runChild(*child, *name, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	ok, err := runParent(*name, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

// repOut is one child's report. Key is the virtual-clock section, which
// must be byte-identical across same-seed repetitions.
type repOut struct {
	SetupS    float64            `json:"setup_s"`
	HostS     float64            `json:"host_s"`
	AllocB    float64            `json:"alloc_bytes"`
	Allocs    float64            `json:"allocs"`
	PeakLive  float64            `json:"peak_live_bytes"`
	VirtualS  float64            `json:"virtual_s"`
	Switches  float64            `json:"switches"`
	Ops       float64            `json:"ops"`
	Virtual   map[string]float64 `json:"virtual"`
	Key       string             `json:"key"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Problems  []string           `json:"problems"`
	Layers    map[string]float64 `json:"layers"`
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// runChild runs one repetition (or the probes) and prints its repOut.
func runChild(mode, name string, seed int64) error {
	var out repOut
	switch mode {
	case "probes":
		layers, err := runProbes()
		if err != nil {
			return err
		}
		out.Layers = layers
	case "setup", "rep", "traced":
		w, err := findWorkload(name)
		if err != nil {
			return err
		}
		traced := mode == "traced"
		inst, err := w.build(seed, traced)
		if err != nil {
			return err
		}
		if mode == "setup" {
			out.SetupS = time.Since(procStart).Seconds()
			break
		}
		c := newClock(traced)
		var prof bytes.Buffer
		if traced {
			if err := pprof.StartCPUProfile(&prof); err != nil {
				return err
			}
		}
		err = inst.simulate(c)
		if traced {
			pprof.StopCPUProfile()
		}
		if err != nil {
			return err
		}
		r := inst.check()
		if traced {
			systemLayers(r, inst.system())
			self, err := selfByLayer(prof.Bytes())
			if err != nil {
				return err
			}
			for l, v := range self {
				r.layer("host.self_pct."+l, v)
			}
		}
		alloc, allocs := allocCounters()
		out = repOut{
			SetupS: c.firstRun.Sub(procStart).Seconds(), HostS: c.simTime.Seconds(),
			AllocB: float64(alloc), Allocs: float64(allocs), PeakLive: float64(c.peakLive),
			VirtualS: c.virtual.Seconds(), Switches: float64(c.switches), Ops: r.ops,
			Virtual: map[string]float64{}, Key: virtualKey(r),
			Attempted: r.attempted, Failed: r.failed, Problems: r.problems, Layers: r.layers,
		}
		for _, m := range r.virtual {
			out.Virtual[m.name] = m.value
		}
	default:
		return fmt.Errorf("unknown child mode %q", mode)
	}
	return json.NewEncoder(os.Stdout).Encode(out)
}

// virtualKey renders the virtual-clock section exactly: every metric
// with all its digits plus the digest of every observation.
func virtualKey(r *result) string {
	var b strings.Builder
	for _, m := range r.virtual {
		b.WriteString(m.name + "=" + strconv.FormatFloat(m.value, 'g', -1, 64) + ";")
	}
	b.WriteString("digest=" + strconv.FormatUint(r.digest.h, 16))
	return b.String()
}

// spawn runs one child of this executable and decodes its report.
func spawn(ctx context.Context, mode, name string, seed int64) (repOut, error) {
	var out repOut
	self, err := os.Executable()
	if err != nil {
		return out, err
	}
	ctx, cancel := context.WithTimeout(ctx, childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, self, "--child", mode, "--workload", name, "--seed", strconv.FormatInt(seed, 10))
	cmd.Stderr = os.Stderr
	// A child dies with the benchmark, so no repetition outlives a kill.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.Output()
	if err != nil {
		return out, fmt.Errorf("%s child: %w", mode, err)
	}
	if err := json.Unmarshal(stdout, &out); err != nil {
		return out, fmt.Errorf("%s child output: %w", mode, err)
	}
	return out, nil
}

// tally accumulates what a run's children report.
type tally struct {
	values    map[string]float64
	attempted int
	failed    int
	problems  []string
}

func (t *tally) add(r repOut) {
	t.attempted += r.Attempted
	t.failed += r.Failed
	t.problems = append(t.problems, r.Problems...)
}

func runParent(name string, seed int64, seconds time.Duration, trace bool) (bool, error) {
	start := time.Now()
	spec, err := loadSpec(specFile)
	if err != nil {
		return false, err
	}
	if !spec.hasWorkload(name) {
		return false, fmt.Errorf("workload %q is not in %s", name, specFile)
	}
	if _, err := findWorkload(name); err != nil {
		return false, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), runBudget)
	defer cancel()
	printProvenance(name, seed)

	t := &tally{values: map[string]float64{}}
	wanted := spec.EndToEnd
	if trace {
		wanted = spec.PerLayer
		err = t.traced(ctx, name, seed)
	} else {
		err = t.measured(ctx, name, seed, start, seconds)
	}
	if err != nil {
		return false, err
	}

	metrics := map[string]resultMetric{}
	for _, m := range wanted {
		v, ok := t.values[m.Name]
		if !ok {
			return false, fmt.Errorf("metric %s named in %s is not measured", m.Name, specFile)
		}
		metrics[m.Name] = resultMetric{Value: v, Unit: m.Unit}
		fmt.Printf("  %-36s %16.6f %s\n", m.Name, v, m.Unit)
	}
	for _, p := range t.problems {
		fmt.Println("CHECK FAILED:", p)
	}
	correct := len(t.problems) == 0 && t.failed == 0 && t.attempted > 0
	line, err := json.Marshal(struct {
		Correct   bool                    `json:"correct"`
		Attempted int                     `json:"attempted"`
		Failed    int                     `json:"failed"`
		Metrics   map[string]resultMetric `json:"metrics"`
	}{correct, t.attempted, t.failed, metrics})
	if err != nil {
		return false, err
	}
	fmt.Println(string(line))
	return correct, nil
}

// measured repeats the workload until seconds have passed (at least
// minReps times): virtual metrics from the first repetition, which every
// other must match byte for byte, and host metrics as medians.
func (t *tally) measured(ctx context.Context, name string, seed int64, start time.Time, seconds time.Duration) error {
	var reps []repOut
	for len(reps) < minReps || (time.Since(start) < seconds && len(reps) < maxReps) {
		r, err := spawn(ctx, "rep", name, subSeed(seed, len(reps)%subSeeds))
		if err != nil {
			return err
		}
		reps = append(reps, r)
	}
	var setups []float64
	for _, r := range reps {
		setups = append(setups, r.SetupS)
	}
	for len(setups) < minSetups {
		r, err := spawn(ctx, "setup", name, subSeed(seed, 0))
		if err != nil {
			return err
		}
		setups = append(setups, r.SetupS)
	}
	for i, r := range reps {
		t.add(r)
		if first := reps[i%subSeeds]; r.Key != first.Key {
			t.problems = append(t.problems, fmt.Sprintf("repetition %d: virtual-clock section differs from repetition %d on the same input", i, i%subSeeds))
		}
	}
	pickFrom := func(reps []repOut, f func(repOut) float64) float64 {
		var xs []float64
		for _, r := range reps {
			xs = append(xs, f(r))
		}
		return median(xs)
	}
	for k := range reps[0].Virtual {
		t.values[k] = pickFrom(reps[:subSeeds], func(r repOut) float64 { return r.Virtual[k] })
	}
	pick := func(f func(repOut) float64) float64 { return pickFrom(reps, f) }
	t.values["host_s"] = pick(func(r repOut) float64 { return r.HostS })
	t.values["alloc_mb"] = pick(func(r repOut) float64 { return r.AllocB }) / 1e6
	t.values["allocs_m"] = pick(func(r repOut) float64 { return r.Allocs }) / 1e6
	t.values["peak_live_heap_mb"] = pick(func(r repOut) float64 { return r.PeakLive }) / 1e6
	t.values["setup_s"] = median(setups)
	var hosts []string
	for _, r := range reps {
		hosts = append(hosts, strconv.FormatFloat(r.HostS, 'f', 3, 64))
	}
	fmt.Printf("workload %s seed %d: %d repetitions (host_s %s), %d set-ups, %.1f s\n",
		name, seed, len(reps), strings.Join(hosts, " "), len(setups), time.Since(start).Seconds())
	return nil
}

// traced runs one untraced and one traced repetition plus the layer
// probes, and derives the per-layer metrics.
func (t *tally) traced(ctx context.Context, name string, seed int64) error {
	plain, err := spawn(ctx, "rep", name, subSeed(seed, 0))
	if err != nil {
		return err
	}
	traced, err := spawn(ctx, "traced", name, subSeed(seed, 0))
	if err != nil {
		return err
	}
	probed, err := spawn(ctx, "probes", name, 0)
	if err != nil {
		return err
	}
	t.add(plain)
	t.add(traced)
	if traced.Key != plain.Key {
		t.problems = append(t.problems, "the traced run's virtual-clock section differs from the untraced run's")
	}
	for _, m := range []map[string]float64{traced.Virtual, traced.Layers, probed.Layers} {
		for k, v := range m {
			t.values[k] = v
		}
	}
	t.values["failed_frac"] = ratio(float64(t.failed), float64(t.attempted))
	t.values["host.alloc_bytes_per_op"] = ratio(plain.AllocB, plain.Ops)
	t.values["sim.virtual_s_per_host_s"] = ratio(plain.VirtualS, plain.HostS)
	t.values["sim.switches_per_op"] = ratio(traced.Switches, traced.Ops)
	t.values["sim.host_ns_per_switch"] = ratio(plain.HostS*1e9, traced.Switches)
	t.values["obs.trace_overhead_pct"] = 100 * ratio(traced.HostS, plain.HostS)
	fmt.Printf("workload %s input %d: traced run; probes time each layer's public calls alone:\n", name, subSeed(seed, 0))
	for _, p := range probes {
		fmt.Printf("  probe %-9s should move host_s of %s\n", p.name, p.moves)
	}
	return nil
}

type resultMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(s.EndToEnd) == 0 || len(s.PerLayer) == 0 {
		return nil, errors.New(path + ": no metrics")
	}
	return &s, nil
}

func (s *benchSpec) hasWorkload(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// printProvenance stamps the result with what produced it.
func printProvenance(name string, seed int64) {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					commit += "+dirty"
				}
			}
		}
	}
	b, _ := json.Marshal(map[string]any{
		"commit": commit, "go": runtime.Version(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu": cpuModel(), "workload": name, "seed": seed,
		"inputs": fmt.Sprintf("seeds %d..%d", subSeed(seed, 0), subSeed(seed, subSeeds-1)),
	})
	fmt.Println("provenance", string(b))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
