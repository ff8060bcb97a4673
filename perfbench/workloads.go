package main

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"

	"raidsim/internal/campaign"
	"raidsim/internal/campaign/shard"
	"raidsim/internal/workload"
)

// bench is one named workload: the campaign grid it sweeps, the trace
// generator its seed drives, and the closed-loop pool that runs it.
type bench struct {
	name string
	// source names the seeded trace generator: the built-in trace1 or
	// trace2 profile, or the built-in diurnal workload spec.
	source string
	// traces is how many independently seeded traces the grid's traces
	// axis sweeps. One trace's luck (which disks run hot) moves the
	// per-request cost by tens of percent, so a workload averages
	// several.
	traces int
	// workers is the closed-loop pool width; 0 means one per CPU but
	// one, leaving a CPU for the collector's workers and the rest of the
	// host so the loop does not contend for the CPU it measures.
	workers int
	// tail caps the percentile run_ms_tail reports, so the percentile
	// does not move with the host's or a commit's speed. Each cap leaves
	// at least 10 runs beyond it on a host half as fast as a 2-vCPU EPYC
	// over 20 seconds; trace1-reads stops at p75 because its slowest runs
	// amplify host stalls.
	tail float64
	// journal makes every pass append its records to a fresh journal.
	journal bool
	// spanTopK arms the per-request span tracer in every run.
	spanTopK int
	// grid is the campaign grid; expand fills in its Traces and Seed.
	grid campaign.Spec
	// only, when set, keeps just the grid points whose "org/cache/n"
	// is listed, so a workload can sweep a subset of a cross product.
	only []string
}

// benches are the benchmark's workloads.
var benches = []bench{
	{
		// The examples/campaign/fleet.json grid, its eight replications
		// spread over eight traces: 1000 short runs, so per-run fixed
		// cost (trace split, array and cache construction, record
		// building, journal, merge, pool) does most of the work.
		name:    "fleet-grid",
		source:  "trace2",
		traces:  8,
		tail:    99,
		journal: true,
		grid: campaign.Spec{
			Name:    "fleet",
			Scale:   0.02,
			Orgs:    []string{"base", "mirror", "raid5", "pstripe", "raid4"},
			N:       []int{2, 5, 10, 20, 25},
			CacheMB: []int{0, 8, 16, 32, 64},
		},
	},
	{
		// Long uncached read-mostly runs over 130 data disks in 13
		// arrays: the per-request path sim, array, disk, bus, geom and
		// stats does almost all the work.
		name:    "trace1-reads",
		source:  "trace1",
		traces:  8,
		tail:    75,
		workers: 1,
		grid: campaign.Spec{
			Name:  "trace1-reads",
			Scale: 0.025,
			Orgs:  []string{"base", "mirror", "raid5"},
			N:     []int{10},
		},
	},
	{
		// Trace 2 at twice its arrival rate (the paper's Figs 10 and 18):
		// read-modify-write, mirrored writes, parity-sync holds, NV-cache
		// destage and RAID4 parity spooling.
		name:    "trace2-writes",
		source:  "trace2",
		traces:  6,
		tail:    90,
		workers: 1,
		grid: campaign.Spec{
			Name:    "trace2-writes",
			Scale:   0.25,
			Speeds:  []float64{2},
			Orgs:    []string{"raid5", "pstripe", "mirror", "raid4"},
			N:       []int{10},
			CacheMB: []int{0, 16},
		},
		only: []string{"raid5/0/10", "pstripe/0/10", "mirror/0/10", "raid5/16/10", "raid4/16/10"},
	},
	{
		// The built-in 3-class diurnal spec (OLTP gold beside scan and
		// backup batch classes) with windowed observability and the span
		// tracer armed: the only workload where obs and per-class
		// accounting do real work.
		name:     "diurnal-obs",
		source:   "diurnal",
		traces:   5,
		tail:     90,
		workers:  1,
		spanTopK: 8,
		grid: campaign.Spec{
			Name:       "diurnal-obs",
			Scale:      1,
			Orgs:       []string{"mirror", "raid5"},
			N:          []int{5, 10},
			CacheMB:    []int{0, 16},
			ObsWindowS: 10,
		},
		only: []string{"mirror/0/10", "raid5/16/5", "raid5/16/10"},
	},
}

func findBench(name string) (bench, error) {
	var names []string
	for _, b := range benches {
		if b.name == name {
			return b, nil
		}
		names = append(names, b.name)
	}
	return bench{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// sourceFiles are the workload-spec files the grid's traces axis names,
// relative to the run directory so run IDs do not depend on where the
// checkout lives.
func (b bench) sourceFiles() []string {
	out := make([]string, b.traces)
	for k := range out {
		out[k] = fmt.Sprintf("%s-%d.json", b.source, k)
	}
	return out
}

// writeSources writes one seeded workload spec per trace: the built-in
// profile or spec with its generator seed derived from the benchmark
// seed, so the simulator sees only the generated traces.
func (b bench) writeSources(seed uint64) error {
	for _, name := range b.sourceFiles() {
		var sp workload.Spec
		switch b.source {
		case "trace1", "trace2":
			p := workload.Trace1Profile()
			if b.source == "trace2" {
				p = workload.Trace2Profile()
			}
			p.Seed = shard.SeedFor(seed, name)
			sp = workload.SpecFromProfile(p)
		case "diurnal":
			sp = workload.DiurnalSpec()
			sp.Seed = shard.SeedFor(seed, name)
		default:
			return fmt.Errorf("workload %s: unknown trace source %q", b.name, b.source)
		}
		sp.Version = workload.SpecVersion
		raw, err := json.MarshalIndent(sp, "", "  ")
		if err != nil {
			return fmt.Errorf("workload %s: encoding trace spec: %w", b.name, err)
		}
		if err := os.WriteFile(name, raw, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// spec is the grid with its traces axis and campaign seed filled in.
func (b bench) spec(seed uint64) campaign.Spec {
	g := b.grid
	g.Traces = b.sourceFiles()
	g.Seed = seed
	return g
}

// expand generates the traces and expands the grid into points: the
// set-up that setup_s times.
func (b bench) expand(seed uint64) ([]campaign.Point, error) {
	pts, err := b.spec(seed).Points()
	if err != nil {
		return nil, fmt.Errorf("workload %s: %w", b.name, err)
	}
	out := pts[:0]
	for _, p := range pts {
		if b.only != nil && !slices.Contains(b.only, p.Params["org"]+"/"+p.Params["cache"]+"/"+p.Params["n"]) {
			continue
		}
		p.Config.Obs.SpanTopK = b.spanTopK
		out = append(out, p)
	}
	return out, nil
}
