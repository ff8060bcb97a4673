// Command perfbench is raidsim's benchmark: it replays a named campaign
// workload through the public campaign, core and workload APIs in a
// closed loop, checks the simulated output, and prints every end-to-end
// metric by name and unit. With --trace 1 it follows the measured phase
// with a separate profiled run and prints the per-layer table too.
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload fleet-grid --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; metrics holds the end-to-end
// metrics, or with --trace 1 the per-layer ones. --workload all runs
// every workload in turn.
package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"text/tabwriter"
	"time"
)

//go:embed gate.json
var gateJSON []byte

// gate holds the output pins: at the default seed every workload's
// merged fleet must reproduce these exactly, so a speed-up that changes
// simulated results cannot register.
type gate struct {
	DefaultSeed uint64         `json:"default_seed"`
	HeldOutSeed uint64         `json:"held_out_seed"`
	Legacy      string         `json:"legacy"`
	Pins        map[string]pin `json:"pins"`
}

type pin struct {
	Fingerprint string `json:"fleet_fingerprint_sha256"`
	Events      uint64 `json:"events"`
	Requests    int64  `json:"requests"`
}

type metricDef struct{ name, unit, better string }

// endToEnd are the metrics a user of the simulator sees, all measured
// on the host clock with tracing off. failed_frac is printed in the
// table; the JSON carries it as failed/attempted.
var endToEnd = []metricDef{
	{"requests_per_s", "1/s", "higher"},
	{"runs_per_s", "1/s", "higher"},
	{"run_ms_p50", "ms", "lower"},
	{"run_ms_tail", "ms", "lower"},
	{"cpu_us_per_request", "us", "lower"},
	{"allocs_per_request", "count", "lower"},
	{"alloc_bytes_per_request", "B", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"setup_s", "s", "lower"},
}

// perLayer are the traced run's metrics.
var perLayer = func() []metricDef {
	var out []metricDef
	for _, l := range append(append([]string{}, layers...), "runtime.malloc", "runtime.gc", "other") {
		out = append(out, metricDef{"cpu." + l, "frac", "lower"})
	}
	for _, l := range append(append([]string{}, layers...), "other") {
		out = append(out, metricDef{"alloc." + l, "frac", "lower"})
	}
	return append(out, []metricDef{
		{"runtime.gc_cpu_frac", "frac", "lower"},
		{"runtime.gc_cycles", "count", "lower"},
		{"trace.split_ms", "ms", "lower"},
		{"trace.split_bytes", "B", "lower"},
		{"campaign.pool_busy_frac", "frac", "higher"},
		{"campaign.steals", "count", "lower"},
		{"campaign.overhead_ms_per_run", "ms", "lower"},
		{"campaign.merge_ms", "ms", "lower"},
		{"campaign.journal_append_us_p50", "us", "lower"},
		{"sim.events_per_request", "count", "lower"},
		{"sim.heap_high_water", "count", "lower"},
		{"sim.call_hit_ratio", "frac", "higher"},
		{"disk.cpu_ns_per_access", "ns", "lower"},
		{"disk.accesses_per_request", "count", "lower"},
		{"cache.cpu_ns_per_request", "ns", "lower"},
		{"cache.read_hit_ratio", "frac", "higher"},
		{"cache.write_hit_ratio", "frac", "higher"},
		{"array.parity_accesses_per_request", "count", "lower"},
		{"obs.events_dropped", "count", "lower"},
		{"workload.generate_s", "s", "lower"},
		{"tracing.overhead_frac", "frac", "lower"},
	}...)
}()

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "fleet-grid", `workload to run, or "all" for each in turn`)
	seed := flag.Uint64("seed", 0, "workload seed (0 = the gate's default seed)")
	seconds := flag.Float64("seconds", 20, "length of the measured phase")
	traced := flag.Int("trace", 0, "1 = add a profiled run and report per-layer metrics")
	flag.Parse()
	if *traced != 0 && *traced != 1 {
		return fail("--trace must be 0 or 1, got %d", *traced)
	}

	var g gate
	if err := json.Unmarshal(gateJSON, &g); err != nil {
		return fail("gate.json: %v", err)
	}
	if *seed == 0 {
		*seed = g.DefaultSeed
	}
	if *name == "all" {
		return runAll()
	}
	b, err := findBench(*name)
	if err != nil {
		return fail("%v", err)
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		return fail("the go toolchain is needed to slice profiles: %v", err)
	}

	// Every file a run writes lives in a private directory under
	// .bench_build; run IDs name the trace spec relative to it.
	root, err := os.Getwd()
	if err != nil {
		return fail("%v", err)
	}
	outDir := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return fail("%v", err)
	}
	dir, err := os.MkdirTemp(outDir, "run-")
	if err != nil {
		return fail("%v", err)
	}
	defer os.RemoveAll(dir)
	if err := os.Chdir(dir); err != nil {
		return fail("%v", err)
	}
	defer os.Chdir(root)

	fmt.Printf("host: %s\n", hostRecord())
	fmt.Printf("workload: %s seed=%d (default %d, held-out %d) seconds=%g trace=%d\n",
		b.name, *seed, g.DefaultSeed, g.HeldOutSeed, *seconds, *traced)

	r := &runner{b: b, seed: *seed, workers: b.workers}
	if r.workers == 0 {
		r.workers = max(1, runtime.NumCPU()-1)
	}
	res, err := r.execute(*seconds, *traced == 1, goBin, filepath.Join(outDir, "traced"))
	if err != nil {
		return fail("%s: %v", b.name, err)
	}
	r.checkPins(g)
	res.Correct = len(r.problems) == 0
	res.Attempted, res.Failed = r.attempted, r.failed
	for i, p := range r.problems {
		if i == 20 {
			fmt.Fprintf(os.Stderr, "perfbench: ... %d more\n", len(r.problems)-i)
			break
		}
		fmt.Fprintf(os.Stderr, "perfbench: CHECK FAILED: %s\n", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return fail("%v", err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// runAll runs every workload in turn, each in its own process so peak
// memory and runtime state stay per workload, and fails if any does.
func runAll() int {
	self, err := os.Executable()
	if err != nil {
		return fail("%v", err)
	}
	code := 0
	for _, b := range benches {
		args := []string{"--workload", b.name}
		flag.Visit(func(f *flag.Flag) {
			if f.Name != "workload" {
				args = append(args, "--"+f.Name, f.Value.String())
			}
		})
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", b.name, err)
			code = 1
		}
	}
	return code
}

func fail(format string, args ...any) int {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	return 1
}

// execute sets up, warms up, measures, and (when traced) profiles one
// workload, printing the metric tables as it goes.
func (r *runner) execute(seconds float64, traced bool, goBin, tracedDir string) (result, error) {
	setupS, err := r.setup()
	if err != nil {
		return result{}, err
	}
	if _, err := r.measure(0); err != nil { // warm-up: one pass
		return result{}, err
	}
	// Peak memory of set-up plus one pass over the grid: later passes
	// only add GC-pacing noise, and how many there are depends on speed.
	rssMB := peakRSSMB()
	fmt.Printf("gate: runs=%d fleet_fingerprint_sha256=%s events=%d requests=%d\n",
		len(r.points), r.fingerprint, r.events, r.requests)
	m, err := r.measure(seconds)
	if err != nil {
		return result{}, err
	}
	fmt.Printf("passes: %d, requests/s per pass:", m.passes)
	for _, v := range m.passReqRate {
		fmt.Printf(" %.0f", v)
	}
	fmt.Println()
	e2e := m.metrics(setupS, rssMB, r.b.tail)
	printTable("end to end (tracing off)", endToEnd, e2e)
	fmt.Printf("  failed_frac %g (%d of %d runs attempted)\n", frac(r.failed, r.attempted), r.failed, r.attempted)
	if tp, ok := tailPercentile(len(m.runMS), r.b.tail); ok {
		fmt.Printf("  run_ms_tail is p%g of %d runs\n", tp, len(m.runMS))
	}
	if !traced {
		return result{Metrics: pick(endToEnd, e2e)}, nil
	}
	layer, err := r.traced(m, goBin, tracedDir)
	if err != nil {
		return result{}, err
	}
	printTable("per layer (traced run)", perLayer, layer)
	return result{Metrics: pick(perLayer, layer)}, nil
}

func pick(defs []metricDef, vals map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.name] = metricValue{Value: vals[d.name], Unit: d.unit}
	}
	return out
}

func printTable(title string, defs []metricDef, vals map[string]float64) {
	fmt.Printf("%s:\n", title)
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	for _, d := range defs {
		fmt.Fprintf(tw, "  %s\t%.6g\t%s\t(%s is better)\n", d.name, vals[d.name], d.unit, d.better)
	}
	tw.Flush()
}

func frac(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func sha256hex(s string) string { return fmt.Sprintf("%x", sha256.Sum256([]byte(s))) }

// checkPins compares the workload's fleet with the gate at the default
// seed.
func (r *runner) checkPins(g gate) {
	if r.seed != g.DefaultSeed {
		return
	}
	p, ok := g.Pins[r.b.name]
	switch {
	case !ok:
		r.problem("gate.json has no pin for %s", r.b.name)
	case p.Fingerprint != r.fingerprint || p.Events != r.events || p.Requests != r.requests:
		r.problem("output differs from the pin at seed %d: fingerprint %s events %d requests %d, pinned %s %d %d",
			r.seed, r.fingerprint, r.events, r.requests, p.Fingerprint, p.Events, p.Requests)
	}
}

// hostRecord names the machine a result comes from.
func hostRecord() string {
	model := "unknown"
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d cpu=%q go=%s", runtime.NumCPU(), runtime.GOMAXPROCS(0), model, runtime.Version())
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Maxrss is in KiB on Linux
}

func readMem() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}
