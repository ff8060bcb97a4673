package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"time"

	"raidsim/internal/campaign"
	"raidsim/internal/core"
	"raidsim/internal/trace"
	"raidsim/internal/workload"
)

// counts are the simulated per-run counters the traced run sums from
// every run's full results.
type counts struct {
	requests, events        int64
	diskAccesses, parity    int64
	readHits, readMisses    int64
	writeHits, writeMisses  int64
	obsDropped              int64
	heapHighWater           int
	callHits, callMisses    uint64
	runMS, mergeMS, poolCap float64 // ms; poolCap is workers × Execute wall
	busy                    time.Duration
	steals                  int
	runs                    int
}

func (c *counts) addRun(res *core.Results) {
	c.requests += res.Requests
	c.events += int64(res.Events)
	for _, a := range res.DiskAccesses {
		c.diskAccesses += a
	}
	c.parity += res.ParityAccesses
	c.readHits += res.ReadHits
	c.readMisses += res.ReadMisses
	c.writeHits += res.WriteHits
	c.writeMisses += res.WriteMisses
	c.obsDropped += res.ObsEventsDropped + res.SpanTreesDropped
	c.heapHighWater = max(c.heapHighWater, res.Engine.HeapHighWater)
	c.callHits += res.Engine.CallHits
	c.callMisses += res.Engine.CallMisses
}

// runtimeSnap reads the runtime's own CPU and GC accounting.
func runtimeSnap() []metrics.Sample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	return s
}

func sampleFloat(s metrics.Sample) float64 {
	switch s.Value.Kind() {
	case metrics.KindFloat64:
		return s.Value.Float64()
	case metrics.KindUint64:
		return float64(s.Value.Uint64())
	}
	return 0
}

// traced repeats the measured phase's passes with profiles and the
// harness's spans on: a CPU and an allocation profile around set-up and
// the passes, spans around each call into a layer and one child span per
// run, and probes of trace generation, trace splitting and journal
// appends. It returns the per-layer metrics.
func (r *runner) traced(untraced measured, goBin, outDir string) (map[string]float64, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	prefix := filepath.Join(outDir, fmt.Sprintf("%s-seed%d", r.b.name, r.seed))
	cpuPath, allocs0, allocs1 := prefix+".cpu.pprof", prefix+".allocs-before.pprof", prefix+".allocs-after.pprof"
	met := map[string]float64{}
	rec := newSpanRecorder()
	root := rec.begin("traced-run", r.b.name, 0)

	// Probe: trace generation alone (Spec.Points below includes it).
	for _, name := range r.b.sourceFiles() {
		t0 := rec.now()
		if _, err := workload.ResolveTrace(name, r.b.grid.Scale); err != nil {
			return nil, err
		}
		t1 := rec.now()
		rec.add("workload.ResolveTrace", name, root, t0, t1)
		met["workload.generate_s"] += (t1 - t0).Seconds()
	}

	cpuFile, err := os.Create(cpuPath)
	if err != nil {
		return nil, err
	}
	defer cpuFile.Close() // a second Close after the profile's is harmless
	if err := writeAllocs(allocs0); err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(cpuFile); err != nil {
		return nil, err
	}
	defer pprof.StopCPUProfile() // on error paths; a no-op once stopped
	cpu0, rt0 := cpuTime(), runtimeSnap()

	id := rec.begin("Spec.Points", r.b.grid.Name, root)
	pts, err := r.b.expand(r.seed)
	rec.end(id)
	if err != nil {
		return nil, err
	}
	r.points = pts

	var c counts
	var last passResult
	var wall time.Duration
	for k := 0; k < untraced.passes; k++ {
		p, err := r.tracedPass(rec, root, &c)
		if err != nil {
			return nil, err
		}
		wall += p.wall()
		last = p
	}

	cpu1, rt1 := cpuTime(), runtimeSnap()
	pprof.StopCPUProfile()
	if err := cpuFile.Close(); err != nil {
		return nil, err
	}
	if err := writeAllocs(allocs1); err != nil {
		return nil, err
	}

	if err := r.probeSplit(rec, root, met); err != nil {
		return nil, err
	}
	if err := r.probeJournal(rec, root, last.out.Records, met); err != nil {
		return nil, err
	}
	rec.end(root)

	// Slice the profiles by layer.
	cpuSamples, err := readRaw(goBin, "cpu", "", cpuPath)
	if err != nil {
		return nil, err
	}
	for k, v := range cpuShares(cpuSamples) {
		met["cpu."+k] = v
	}
	allocSamples, err := readRaw(goBin, "alloc_space", allocs0, allocs1)
	if err != nil {
		return nil, err
	}
	for k, v := range allocShares(allocSamples) {
		met["alloc."+k] = v
	}

	cpuNS := float64(cpu1 - cpu0)
	gc := sampleFloat(rt1[0]) - sampleFloat(rt0[0])
	busy := (sampleFloat(rt1[1]) - sampleFloat(rt0[1])) - (sampleFloat(rt1[2]) - sampleFloat(rt0[2]))
	if busy > 0 {
		met["runtime.gc_cpu_frac"] = gc / busy
	}
	met["runtime.gc_cycles"] = sampleFloat(rt1[3]) - sampleFloat(rt0[3])

	req := float64(c.requests)
	passes := float64(untraced.passes)
	met["campaign.pool_busy_frac"] = float64(c.busy) / float64(time.Millisecond) / c.poolCap
	met["campaign.steals"] = float64(c.steals) / passes
	met["campaign.merge_ms"] = c.mergeMS / passes
	met["campaign.overhead_ms_per_run"] = (c.poolCap - c.runMS) / float64(c.runs)
	met["sim.events_per_request"] = float64(c.events) / req
	met["sim.heap_high_water"] = float64(c.heapHighWater)
	met["sim.call_hit_ratio"] = float64(c.callHits) / float64(c.callHits+c.callMisses)
	met["disk.accesses_per_request"] = float64(c.diskAccesses) / req
	met["disk.cpu_ns_per_access"] = met["cpu.disk"] * cpuNS / float64(c.diskAccesses)
	met["cache.cpu_ns_per_request"] = met["cpu.cache"] * cpuNS / req
	met["cache.read_hit_ratio"] = ratio(c.readHits, c.readMisses)
	met["cache.write_hit_ratio"] = ratio(c.writeHits, c.writeMisses)
	met["array.parity_accesses_per_request"] = float64(c.parity) / req
	met["obs.events_dropped"] = float64(c.obsDropped)
	met["tracing.overhead_frac"] = wall.Seconds()/untraced.wall.Seconds() - 1

	spanPath := prefix + ".spans.json"
	if err := rec.writeJSON(spanPath); err != nil {
		return nil, err
	}
	fmt.Printf("profiles and spans written to %s.*\n", prefix)
	rec.writeTable(os.Stdout)
	return met, nil
}

// tracedPass is one pass with self-metrics, a run log and a result hook
// armed. It records spans for Execute and Merge, one child span per run
// (its wall time from the run log, ending when the pool reported it),
// and sums the runs' counters into c.
func (r *runner) tracedPass(rec *spanRecorder, root int, c *counts) (passResult, error) {
	logPath := fmt.Sprintf("runlog-%d.jsonl", r.passes)
	rl, err := campaign.OpenRunLog(logPath, r.b.name)
	if err != nil {
		return passResult{}, err
	}
	defer os.Remove(logPath)
	ends := make(map[string]time.Duration, len(r.points))
	p, err := r.pass(campaign.Options{
		SelfMetrics: true,
		RunLog:      rl,
		// OnResult calls are serialized by Execute.
		OnResult: func(_ int, pt campaign.Point, res *core.Results) {
			ends[pt.ID] = rec.now()
			c.addRun(res)
		},
	})
	if cerr := rl.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return p, err
	}
	r.check(p)

	exec := rec.add("campaign.Execute", fmt.Sprintf("pass %d", r.passes), root, p.start.Sub(rec.epoch), p.executed.Sub(rec.epoch))
	rec.add("campaign.Merge", fmt.Sprintf("pass %d", r.passes), root, p.executed.Sub(rec.epoch), p.merged.Sub(rec.epoch))
	_, entries, _, err := campaign.ReadRunLog(logPath)
	if err != nil {
		return p, err
	}
	for _, e := range entries {
		end := ends[e.ID]
		rec.add("core.RunContext", e.ID, exec, end-time.Duration(e.WallMS*float64(time.Millisecond)), end)
		c.runMS += e.WallMS
		c.runs++
	}
	execMS := float64(p.executed.Sub(p.start)) / float64(time.Millisecond)
	c.poolCap += execMS * float64(len(p.out.Workers))
	for _, w := range p.out.Workers {
		c.busy += w.Busy
		c.steals += w.Steals
	}
	c.mergeMS += float64(p.merged.Sub(p.executed)) / float64(time.Millisecond)
	return p, nil
}

// probeSplit times trace.SplitByGroup once per distinct (trace, N) the
// points use and reports the mean per-run cost, weighting each probe by
// the runs that split that way.
func (r *runner) probeSplit(rec *spanRecorder, root int, met map[string]float64) error {
	type key struct {
		tr *trace.Trace
		n  int
	}
	type cost struct {
		ms, bytes float64
	}
	probed := map[key]cost{}
	var sumMS, sumBytes float64
	for _, p := range r.points {
		k := key{p.Trace, p.Config.N}
		cst, ok := probed[k]
		if !ok {
			var times []float64
			for i := 0; i < 5; i++ {
				t0 := rec.now()
				if _, err := k.tr.SplitByGroup(k.n); err != nil {
					return err
				}
				t1 := rec.now()
				rec.add("trace.SplitByGroup", fmt.Sprintf("N=%d", k.n), root, t0, t1)
				times = append(times, ms(t1-t0))
			}
			m0 := readMem()
			if _, err := k.tr.SplitByGroup(k.n); err != nil {
				return err
			}
			m1 := readMem()
			cst = cost{ms: median(times), bytes: float64(m1.TotalAlloc - m0.TotalAlloc)}
			probed[k] = cst
		}
		sumMS += cst.ms
		sumBytes += cst.bytes
	}
	met["trace.split_ms"] = sumMS / float64(len(r.points))
	met["trace.split_bytes"] = sumBytes / float64(len(r.points))
	return nil
}

// probeJournal appends one pass's records to a fresh journal, one span
// per append, and reports the median append time.
func (r *runner) probeJournal(rec *spanRecorder, root int, records []campaign.RunRecord, met map[string]float64) error {
	const path = "probe-journal.jsonl"
	j, err := campaign.OpenJournal(path, r.b.name, r.b.spec(r.seed).Hash())
	if err != nil {
		return err
	}
	defer os.Remove(path)
	var us []float64
	for _, rr := range records {
		t0 := rec.now()
		if err := j.Append(rr); err != nil {
			j.Close()
			return err
		}
		t1 := rec.now()
		rec.add("Journal.Append", rr.ID, root, t0, t1)
		us = append(us, float64(t1-t0)/float64(time.Microsecond))
	}
	met["campaign.journal_append_us_p50"] = median(us)
	return j.Close()
}

// writeAllocs writes the cumulative allocation profile as of a fresh
// collection.
func writeAllocs(path string) error {
	runtime.GC()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func ratio(hits, misses int64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}
