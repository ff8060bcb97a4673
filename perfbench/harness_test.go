package main

import (
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

// The benchmark contract's charsets for metric and workload names and
// for units.
var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func validName(s string) bool { return nameRE.MatchString(s) }
func validUnit(s string) bool { return unitRE.MatchString(s) }

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{0, 0, false},
		{19, 0, false}, // p50 leaves only 9 beyond
		{20, 50, true}, // rank 10, 10 beyond
		{39, 50, true},
		{40, 75, true},   // rank 30, 10 beyond
		{99, 75, true},   // p90 would leave 9
		{100, 90, true},  // rank 90, 10 beyond
		{200, 95, true},  // rank 190, 10 beyond
		{999, 95, true},  // p99 would leave 9
		{1000, 99, true}, // rank 990, 10 beyond
		{9999, 99, true},
		{10000, 99.9, true},
	} {
		got, ok := tailPercentile(tc.n, 99.9)
		if got != tc.want || ok != tc.ok {
			t.Errorf("tailPercentile(%d) = %g, %v; want %g, %v", tc.n, got, ok, tc.want, tc.ok)
		}
		if ok {
			if beyond := tc.n - rank(got, tc.n); beyond < minBeyond {
				t.Errorf("n=%d: p%g leaves %d beyond, want >= %d", tc.n, got, beyond, minBeyond)
			}
		}
	}
	// A limit holds the tail at one percentile on a faster host.
	for _, n := range []int{100, 1000, 100000} {
		if got, _ := tailPercentile(n, 90); got != 90 {
			t.Errorf("tailPercentile(%d, 90) = %g, want 90", n, got)
		}
	}
	if got, _ := tailPercentile(50, 90); got != 75 {
		t.Errorf("tailPercentile(50, 90) = %g, want 75", got)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for p, want := range map[float64]float64{50: 5, 90: 9, 99: 10, 10: 1, 0: 1} {
		if got := percentile(append([]float64(nil), xs...), p); got != want {
			t.Errorf("percentile(p%g) = %g, want %g", p, got, want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
}

func TestSelfTime(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	parent := span{Start: ms(0), End: ms(100)}
	for _, tc := range []struct {
		name     string
		children []span
		want     time.Duration
	}{
		{"no children", nil, ms(100)},
		{"disjoint", []span{{Start: ms(10), End: ms(20)}, {Start: ms(50), End: ms(80)}}, ms(60)},
		// Overlapping children (runs on a wider pool) count once.
		{"overlapping", []span{{Start: ms(10), End: ms(40)}, {Start: ms(30), End: ms(60)}}, ms(50)},
		{"nested", []span{{Start: ms(10), End: ms(90)}, {Start: ms(20), End: ms(30)}}, ms(20)},
		{"touching", []span{{Start: ms(0), End: ms(50)}, {Start: ms(50), End: ms(100)}}, 0},
		// Only the part inside the parent's interval is covered.
		{"sticking out", []span{{Start: ms(-20), End: ms(10)}, {Start: ms(95), End: ms(130)}}, ms(85)},
		{"outside", []span{{Start: ms(150), End: ms(160)}}, ms(100)},
		{"unsorted", []span{{Start: ms(70), End: ms(90)}, {Start: ms(0), End: ms(10)}, {Start: ms(5), End: ms(20)}}, ms(60)},
	} {
		if got := selfTime(parent, tc.children); got != tc.want {
			t.Errorf("%s: selfTime = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestMetricNames pins the metric-name and unit charset and checks that
// the harness reports exactly the metrics BENCHMARK.json declares.
func TestMetricNames(t *testing.T) {
	for _, s := range []string{"requests_per_s", "cpu.runtime.gc", "alloc.array", "9lives", "a-b_c.d"} {
		if !validName(s) {
			t.Errorf("validName(%q) = false", s)
		}
	}
	for _, s := range []string{"", "_x", ".x", "a b", "a/b", "a:b", strings.Repeat("x", 65)} {
		if validName(s) {
			t.Errorf("validName(%q) = true", s)
		}
	}
	for _, s := range []string{"ms", "1/s", "%", "count", "frac", "B"} {
		if !validUnit(s) {
			t.Errorf("validUnit(%q) = false", s)
		}
	}
	for _, s := range []string{"", "per second", strings.Repeat("u", 17)} {
		if validUnit(s) {
			t.Errorf("validUnit(%q) = true", s)
		}
	}

	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []decl `json:"end_to_end"`
		PerLayer []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []metricDef, want []decl) {
		if len(got) != len(want) {
			t.Errorf("%s: harness has %d metrics, BENCHMARK.json %d", kind, len(got), len(want))
			return
		}
		seen := map[string]bool{}
		for i, d := range got {
			w := want[i]
			if d.name != w.Name || d.unit != w.Unit || d.better != w.Better {
				t.Errorf("%s[%d]: harness %v, BENCHMARK.json %+v", kind, i, d, w)
			}
			if !validName(d.name) || !validUnit(d.unit) {
				t.Errorf("%s: invalid name or unit %q %q", kind, d.name, d.unit)
			}
			if seen[d.name] {
				t.Errorf("%s: %q declared twice", kind, d.name)
			}
			seen[d.name] = true
		}
	}
	check("end_to_end", endToEnd, spec.EndToEnd)
	check("per_layer", perLayer, spec.PerLayer)
	if len(spec.Workloads) != len(benches) {
		t.Fatalf("BENCHMARK.json has %d workloads, harness %d", len(spec.Workloads), len(benches))
	}
	for i, w := range spec.Workloads {
		if w.Name != benches[i].name || !validName(w.Name) {
			t.Errorf("workload %d: BENCHMARK.json %q, harness %q", i, w.Name, benches[i].name)
		}
	}
}

func TestGatePinsEveryWorkload(t *testing.T) {
	var g gate
	if err := json.Unmarshal(gateJSON, &g); err != nil {
		t.Fatal(err)
	}
	if g.DefaultSeed == 0 || g.HeldOutSeed == 0 || g.DefaultSeed == g.HeldOutSeed {
		t.Errorf("seeds: default %d, held-out %d", g.DefaultSeed, g.HeldOutSeed)
	}
	for _, b := range benches {
		p, ok := g.Pins[b.name]
		if !ok || len(p.Fingerprint) != 64 || p.Events == 0 || p.Requests == 0 {
			t.Errorf("%s: incomplete pin %+v", b.name, p)
		}
	}
}

const rawCPU = `PeriodType: cpu nanoseconds
Period: 10000000
Samples:
samples/count cpu/nanoseconds
          3   30000000: 1 2
          2   20000000: 3 2
          1   10000000: 4 5 2
          1   10000000: 6
                label:[x]
Locations
     1: 0x1 M=1 raidsim/internal/disk.(*Disk).service /src/disk.go:10:0 s=1
     2: 0x2 M=1 raidsim/internal/core.feedStep /src/core.go:10:0 s=1
             raidsim/internal/core.RunContext /src/core.go:20:0 s=1
     3: 0x3 M=1 math.archLog /src/log.go:1:0 s=1
             raidsim/internal/stats.binOf /src/stats.go:1:0 s=1
     4: 0x4 M=1 runtime.nextFreeFast /src/malloc.go:1:0 s=1
     5: 0x5 M=1 runtime.mallocgc /src/malloc.go:2:0 s=1
     6: 0x6 M=1 runtime.scanobject /src/mgcmark.go:1:0 s=1
             runtime.gcDrain /src/mgcmark.go:2:0 s=1
Mappings
1: 0x0/0x0/0x0 pb  [FN]
`

func TestParseRawAndShares(t *testing.T) {
	samples, err := parseRaw(strings.NewReader(rawCPU), "cpu")
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 4 {
		t.Fatalf("parsed %d samples, want 4", len(samples))
	}
	if got := strings.Join(samples[1].frames, " "); got != "math.archLog raidsim/internal/stats.binOf raidsim/internal/core.feedStep raidsim/internal/core.RunContext" {
		t.Errorf("inlined frames: %s", got)
	}
	got := cpuShares(samples)
	want := map[string]float64{"disk": 3.0 / 7, "stats": 2.0 / 7, "runtime.malloc": 1.0 / 7, "runtime.gc": 1.0 / 7}
	if len(got) != len(want) {
		t.Errorf("shares %v, want %v", got, want)
	}
	for k, w := range want {
		if d := got[k] - w; d > 1e-12 || d < -1e-12 {
			t.Errorf("share %s = %g, want %g", k, got[k], w)
		}
	}
	if _, err := parseRaw(strings.NewReader(rawCPU), "alloc_space"); err == nil {
		t.Error("missing sample type: want an error")
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"raidsim/internal/sim.(*Engine).Step":            "sim",
		"raidsim/internal/campaign/shard.MapStats.func1": "campaign",
		"raidsim/internal/fault.New":                     "other",
		"raidsim/perfbench.main":                         "other",
		"encoding/json.Marshal":                          "other",
		"runtime.mallocgc":                               "other",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
