package core

import (
	"testing"

	"raidsim/internal/array"
	"raidsim/internal/geom"
	"raidsim/internal/sim"
	"raidsim/internal/trace"
	"raidsim/internal/workload"
)

func closedLoopTrace(t *testing.T) *trace.Trace {
	t.Helper()
	p := workload.Trace2Profile()
	p.Requests = 3000
	p.Duration = 150 * sim.Second
	tr, err := workload.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestClosedLoopCompletesEveryRequest(t *testing.T) {
	tr := closedLoopTrace(t)
	cfg := Config{
		Org: array.OrgRAID5, DataDisks: 10, N: 10,
		Spec: geom.Default(), Sync: array.DF, Seed: 1,
	}
	res, err := RunClosedLoop(cfg, tr, ClosedLoopConfig{MPL: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != int64(len(tr.Records)) {
		t.Fatalf("completed %d of %d", res.Requests, len(tr.Records))
	}
	if res.Makespan <= 0 || res.Throughput() <= 0 {
		t.Fatalf("makespan %d throughput %f", res.Makespan, res.Throughput())
	}
}

func TestClosedLoopThroughputGrowsWithMPL(t *testing.T) {
	tr := closedLoopTrace(t)
	cfg := Config{
		Org: array.OrgRAID5, DataDisks: 10, N: 10,
		Spec: geom.Default(), Sync: array.DF, Seed: 1,
	}
	tp := func(mpl int) float64 {
		res, err := RunClosedLoop(cfg, tr, ClosedLoopConfig{MPL: mpl})
		if err != nil {
			t.Fatalf("mpl %d: %v", mpl, err)
		}
		return res.Throughput()
	}
	t1, t4, t16 := tp(1), tp(4), tp(16)
	if !(t1 < t4 && t4 < t16) {
		t.Fatalf("throughput not increasing with MPL: %f %f %f", t1, t4, t16)
	}
	// Response time rises with MPL (queueing).
	r1, _ := RunClosedLoop(cfg, tr, ClosedLoopConfig{MPL: 1})
	r16, _ := RunClosedLoop(cfg, tr, ClosedLoopConfig{MPL: 16})
	if r16.Resp.Mean() <= r1.Resp.Mean() {
		t.Fatalf("MPL=16 response (%.2f) should exceed MPL=1 (%.2f)",
			r16.Resp.Mean(), r1.Resp.Mean())
	}
}

func TestClosedLoopThinkTimeLowersThroughput(t *testing.T) {
	tr := closedLoopTrace(t)
	cfg := Config{
		Org: array.OrgBase, DataDisks: 10, N: 10,
		Spec: geom.Default(), Seed: 1,
	}
	fast, err := RunClosedLoop(cfg, tr, ClosedLoopConfig{MPL: 4})
	if err != nil {
		t.Fatal(err)
	}
	slow, err := RunClosedLoop(cfg, tr, ClosedLoopConfig{MPL: 4, ThinkTime: 50 * sim.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if slow.Throughput() >= fast.Throughput() {
		t.Fatalf("think time did not lower throughput: %f vs %f",
			slow.Throughput(), fast.Throughput())
	}
}

func TestClosedLoopValidation(t *testing.T) {
	tr := closedLoopTrace(t)
	cfg := Config{Org: array.OrgBase, DataDisks: 10, N: 10, Spec: geom.Default()}
	if _, err := RunClosedLoop(cfg, tr, ClosedLoopConfig{MPL: 0}); err == nil {
		t.Fatal("MPL=0 accepted")
	}
	bad := cfg
	bad.DataDisks = 7
	if _, err := RunClosedLoop(bad, tr, ClosedLoopConfig{MPL: 2}); err == nil {
		t.Fatal("mismatched trace accepted")
	}
}

// TestClosedLoopRejectsBlocksPerDiskMismatch: the closed loop validates
// the trace against the disk model exactly as Run does.
func TestClosedLoopRejectsBlocksPerDiskMismatch(t *testing.T) {
	tr := closedLoopTrace(t)
	bad := *tr
	bad.BlocksPerDisk = 1234
	cfg := Config{Org: array.OrgBase, DataDisks: 10, N: 10, Spec: geom.Default()}
	if _, err := RunClosedLoop(cfg, &bad, ClosedLoopConfig{MPL: 2}); err == nil {
		t.Fatal("trace with mismatched blocks/disk accepted")
	}
}

// TestClosedLoopSelfMetrics: a metered closed loop meters every event it
// executes and reports the same results as an unmetered one.
func TestClosedLoopSelfMetrics(t *testing.T) {
	tr := closedLoopTrace(t)
	cfg := closedLoopCaseConfig(array.OrgRAID5, true, false)
	cl := ClosedLoopConfig{MPL: 4, ThinkTime: 5 * sim.Millisecond}
	plain, err := RunClosedLoop(cfg, tr, cl)
	if err != nil {
		t.Fatal(err)
	}
	cfg.SelfMetrics = true
	res, err := RunClosedLoop(cfg, tr, cl)
	if err != nil {
		t.Fatal(err)
	}
	if res.Engine.Events == 0 || res.Engine.Events != res.Events {
		t.Fatalf("meter counted %d events, results report %d", res.Engine.Events, res.Events)
	}
	if got, want := closedLoopFingerprint(res), closedLoopFingerprint(plain); got != want {
		t.Fatalf("metering changed the closed loop\n got: %s\nwant: %s", got, want)
	}
}

// TestClosedLoopWorkerInvariance: the closed-loop fingerprints do not
// depend on how many workers, and so how many reused engines, simulate
// the arrays.
func TestClosedLoopWorkerInvariance(t *testing.T) {
	tr := closedLoopTrace(t)
	for _, tc := range closedLoopCases {
		cfg := closedLoopCaseConfig(tc.org, tc.cached, tc.faulted)
		cl := ClosedLoopConfig{MPL: tc.mpl, ThinkTime: tc.think}
		var want string
		for _, workers := range []int{1, 2, 4} {
			cfg.Workers = workers
			res, err := RunClosedLoop(cfg, tr, cl)
			if err != nil {
				t.Fatalf("%s/workers=%d: %v", tc.name, workers, err)
			}
			got := closedLoopFingerprint(res)
			if workers == 1 {
				want = got
			} else if got != want {
				t.Errorf("%s/workers=%d: fingerprint moved\n got: %s\nwant: %s", tc.name, workers, got, want)
			}
		}
	}
}
