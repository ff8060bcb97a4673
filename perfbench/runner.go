package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"raidsim/internal/campaign"
)

// Set-up is repeated so setup_s can be a median: at least setupMinReps
// times, and more while the total stays under setupBudget.
const (
	setupMinReps = 5
	setupMaxReps = 101
	setupBudget  = time.Second
)

// runner drives one workload: a closed loop of r.workers goroutines,
// each taking the next run as soon as its last one finishes, over the
// workload's points. A pass is one campaign.Execute over every point
// followed by campaign.Merge; the loop runs passes back to back.
type runner struct {
	b       bench
	seed    uint64
	workers int
	points  []campaign.Point
	passes  int

	// The first pass's merged fleet; every later pass must match it.
	fingerprint string
	events      uint64
	requests    int64

	attempted, failed int
	problems          []string
}

func (r *runner) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// setup writes the seeded trace spec, then generates the traces and
// expands the points several times, returning the median wall time.
func (r *runner) setup() (float64, error) {
	if err := r.b.writeSources(r.seed); err != nil {
		return 0, err
	}
	var times []float64
	var total time.Duration
	for rep := 0; rep < setupMaxReps && (rep < setupMinReps || total < setupBudget); rep++ {
		r.points = nil
		runtime.GC() // start every repetition from the same heap state
		t0 := time.Now()
		pts, err := r.b.expand(r.seed)
		d := time.Since(t0)
		if err != nil {
			return 0, err
		}
		r.points = pts
		times = append(times, d.Seconds())
		total += d
	}
	return median(times), nil
}

// passResult is one pass's outcome and the host times of its phases.
type passResult struct {
	start, executed, merged time.Time
	out                     *campaign.Outcome
	fleet                   *campaign.Fleet
}

func (p passResult) wall() time.Duration { return p.merged.Sub(p.start) }

// pass runs every point once with opts, journaling into a fresh file
// when the workload keeps a journal.
func (r *runner) pass(opts campaign.Options) (passResult, error) {
	opts.Workers = r.workers
	var jpath string
	if r.b.journal {
		jpath = fmt.Sprintf("journal-%d.jsonl", r.passes)
		j, err := campaign.OpenJournal(jpath, r.b.name, r.b.spec(r.seed).Hash())
		if err != nil {
			return passResult{}, err
		}
		defer os.Remove(jpath)
		defer j.Close()
		opts.Journal = j
	}
	r.passes++
	var p passResult
	var err error
	p.start = time.Now()
	if p.out, err = campaign.Execute(r.points, opts); err != nil {
		return p, err
	}
	p.executed = time.Now()
	if p.fleet, err = campaign.Merge(p.out.Records); err != nil {
		return p, err
	}
	p.merged = time.Now()
	return p, nil
}

// check verifies a pass's simulated output: no run failed, every run
// completed exactly its trace's requests, and the merged fleet is the
// same on every pass.
func (r *runner) check(p passResult) {
	r.attempted += len(r.points)
	for i, e := range p.out.Errors {
		if e != "" {
			r.failed++
			r.problem("run failed: %s", e)
			continue
		}
		rec := p.out.Records[i]
		if want := int64(len(r.points[i].Trace.Records)); rec.Requests != want {
			r.problem("%s completed %d requests, its trace holds %d", rec.ID, rec.Requests, want)
		}
	}
	fp := sha256hex(p.fleet.Fingerprint())
	if r.fingerprint == "" {
		r.fingerprint, r.events, r.requests = fp, p.fleet.Events, p.fleet.Requests
	} else if fp != r.fingerprint || p.fleet.Events != r.events || p.fleet.Requests != r.requests {
		r.problem("pass %d merged fleet differs from the first pass", r.passes)
	}
}

// measured accumulates the untraced passes of the measured phase.
type measured struct {
	passes  int
	wall    time.Duration // summed pass wall time (Execute + Merge)
	runMS   []float64     // per-run wall time, as each run's record reports it
	mallocs uint64
	bytes   uint64
	// Per pass: requests and runs per wall second, CPU µs per request.
	passReqRate, passRunRate, passCPU []float64
	requests                          int64
}

// measure runs passes until their summed wall time reaches seconds (at
// least one pass).
func (r *runner) measure(seconds float64) (measured, error) {
	var m measured
	for m.passes == 0 || m.wall.Seconds() < seconds {
		cpu0, mem0 := cpuTime(), readMem()
		p, err := r.pass(campaign.Options{})
		if err != nil {
			return m, err
		}
		cpu1, mem1 := cpuTime(), readMem()
		var runs, req int64
		for i, rec := range p.out.Records {
			if p.out.Errors[i] == "" {
				runs++
				req += rec.Requests
				m.runMS = append(m.runMS, rec.ElapsedMS)
			}
		}
		wall := p.wall()
		m.passes++
		m.wall += wall
		m.requests += req
		m.mallocs += mem1.Mallocs - mem0.Mallocs
		m.bytes += mem1.TotalAlloc - mem0.TotalAlloc
		m.passReqRate = append(m.passReqRate, float64(req)/wall.Seconds())
		m.passRunRate = append(m.passRunRate, float64(runs)/wall.Seconds())
		m.passCPU = append(m.passCPU, float64(cpu1-cpu0)/float64(time.Microsecond)/float64(req))
		r.check(p)
	}
	return m, nil
}

// metrics derives the end-to-end metrics. Rates are medians over the
// passes, so a transient stall on a shared host moves one pass, not the
// result; counts are totals over the measured phase.
func (m measured) metrics(setupS, rssMB, tail float64) map[string]float64 {
	req := float64(m.requests)
	out := map[string]float64{
		"requests_per_s":          median(append([]float64(nil), m.passReqRate...)),
		"runs_per_s":              median(append([]float64(nil), m.passRunRate...)),
		"cpu_us_per_request":      median(append([]float64(nil), m.passCPU...)),
		"allocs_per_request":      float64(m.mallocs) / req,
		"alloc_bytes_per_request": float64(m.bytes) / req,
		"peak_rss_mb":             rssMB,
		"setup_s":                 setupS,
	}
	runMS := append([]float64(nil), m.runMS...)
	out["run_ms_p50"] = percentile(runMS, 50)
	if tp, ok := tailPercentile(len(runMS), tail); ok {
		out["run_ms_tail"] = percentile(runMS, tp)
	}
	return out
}
