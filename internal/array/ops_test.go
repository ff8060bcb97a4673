package array

import (
	"testing"

	"raidsim/internal/disk"
	"raidsim/internal/fault"
	"raidsim/internal/sim"
	"raidsim/internal/trace"
)

// spreadLBAs returns n request addresses scattered over the data space,
// each with room for a request of the given size.
func spreadLBAs(ctrl Controller, n, blocks int) []int64 {
	span := ctrl.DataBlocks() - int64(blocks)
	out := make([]int64, n)
	for i := range out {
		out[i] = (int64(i)*7919*131 + 17) % span
	}
	return out
}

// TestRequestPathAllocationFree pins the request path's allocation
// budget: once a non-cached controller's free lists, disk queues and
// engine heap are warm, submitting requests and draining them allocates
// nothing.
func TestRequestPathAllocationFree(t *testing.T) {
	cases := []struct {
		name   string
		org    Org
		op     trace.Op
		blocks int
	}{
		{"base-read", OrgBase, trace.Read, 1},
		{"mirror-read", OrgMirror, trace.Read, 1},
		{"raid5-read", OrgRAID5, trace.Read, 1},
		{"raid5-multiblock-read", OrgRAID5, trace.Read, 6},
		{"raid5-write", OrgRAID5, trace.Write, 1},
		{"raid5-multiblock-write", OrgRAID5, trace.Write, 6},
		{"mirror-write", OrgMirror, trace.Write, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng, ctrl := build(t, testConfig(tc.org, false))
			lbas := spreadLBAs(ctrl, 64, tc.blocks)
			submit := func(from, n int) {
				for i := from; i < from+n; i++ {
					ctrl.Submit(Request{Op: tc.op, LBA: lbas[i%len(lbas)], Blocks: tc.blocks})
				}
				eng.Run()
			}
			// Warm up at twice the measured concurrency.
			for i := 0; i < len(lbas); i += 8 {
				submit(i, 8)
			}
			next := 0
			allocs := testing.AllocsPerRun(50, func() {
				submit(next, 4)
				next += 4
			})
			if allocs != 0 {
				t.Fatalf("%.2f allocations per 4 requests after warm-up, want 0", allocs)
			}
			if !ctrl.Drained() {
				t.Fatal("controller did not drain")
			}
		})
	}
}

func TestPooledGuards(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	var p pooled
	p.take()
	mustPanic("reuse of an in-flight op", p.take)
	p.give()
	mustPanic("double release", p.give)

	n := 1
	if !countDown(&n) {
		t.Fatal("countDown did not reach zero")
	}
	mustPanic("over-release", func() { countDown(&n) })

	// A disk completion that fires twice releases its op twice.
	eng, ctrl := build(t, testConfig(OrgBase, false))
	c := ctrl.(*schemeCtrl).common
	c.mediaRead(run{disk: 0, start: 0, blocks: 1}, disk.PriNormal, 0, 0, nil, func() {})
	eng.Run()
	dr := c.ops.devs.pop()
	if dr == nil {
		t.Fatal("finished device read was not returned to its free list")
	}
	mustPanic("stale completion", dr.doneFn)
}

// TestPoolsUnderFaults drives the fault and robustness paths with the
// pools armed — drive death (queued accesses dropped, behind both
// front-ends), latent-sector retries, transient-error retries with
// backoff, and hedged reads — and
// checks that every request completes exactly once and every op returns
// to its free list.
func TestPoolsUnderFaults(t *testing.T) {
	cases := []struct {
		name  string
		cfg   func() Config
		check func(t *testing.T, r *Results, dropped int64)
	}{
		{"disk-drop", func() Config {
			cfg := faultConfig(OrgRAID5, false)
			cfg.Fault = fault.Config{DiskFails: []fault.DiskFail{{Disk: 1, At: 30 * sim.Millisecond}}}
			return cfg
		}, func(t *testing.T, r *Results, dropped int64) {
			if dropped == 0 || r.Fault.Failures != 1 {
				t.Errorf("no access was dropped by the dying drive: dropped=%d failures=%d", dropped, r.Fault.Failures)
			}
		}},
		{"cached-disk-drop", func() Config {
			cfg := faultConfig(OrgRAID5, true)
			cfg.CacheBlocks = 64
			cfg.Spares = 1
			cfg.Fault = fault.Config{DiskFails: []fault.DiskFail{{Disk: 2, At: 30 * sim.Millisecond}}}
			return cfg
		}, func(t *testing.T, r *Results, _ int64) {
			if r.Fault.Failures != 1 || r.Fault.Rebuilds != 1 || r.ReadMisses == 0 {
				t.Errorf("cached failure paths idle: %+v, %d read misses", r.Fault, r.ReadMisses)
			}
		}},
		{"sector-retry", func() Config {
			cfg := faultConfig(OrgMirror, false)
			cfg.Fault = fault.Config{SectorErrorRate: 0.3, MaxReadRetries: 2, Seed: 5}
			return cfg
		}, func(t *testing.T, r *Results, _ int64) {
			if r.Fault.SectorRetries == 0 || r.Fault.SectorReconstructs == 0 {
				t.Errorf("sector retry paths idle: %+v", r.Fault)
			}
		}},
		{"transient-retry", func() Config {
			cfg := faultConfig(OrgRAID5, false)
			cfg.Robust = RobustConfig{Retries: 2}
			cfg.Fault = fault.Config{SickDisks: []fault.SickDisk{{Disk: 0, TransientRate: 0.5}}, Seed: 3}
			return cfg
		}, func(t *testing.T, r *Results, _ int64) {
			if r.Robust.Retries == 0 || r.Robust.RetriesExhausted == 0 {
				t.Errorf("transient retry paths idle: %+v", r.Robust)
			}
		}},
		{"hedged-read", func() Config {
			cfg := faultConfig(OrgMirror, false)
			cfg.Robust = RobustConfig{HedgeAfter: 2 * sim.Millisecond}
			cfg.Fault = fault.Config{SickDisks: []fault.SickDisk{{Disk: 0, SlowFactor: 6}}}
			return cfg
		}, func(t *testing.T, r *Results, _ int64) {
			if r.Robust.Hedges == 0 || r.Robust.HedgeWins == 0 || r.Robust.HedgeLosses == 0 {
				t.Errorf("hedge paths idle: %+v", r.Robust)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng, ctrl := build(t, tc.cfg())
			const n = 300
			completions := make([]int, n)
			lbas := spreadLBAs(ctrl, n, 4)
			for i := 0; i < n; i++ {
				i := i
				op := trace.Read
				if i%3 == 2 {
					op = trace.Write
				}
				eng.At(sim.Time(i)*sim.Millisecond/4, func() {
					ctrl.Submit(Request{
						Op: op, LBA: lbas[i], Blocks: 1 + i%4,
						OnComplete: func() { completions[i]++ },
					})
				})
			}
			eng.RunUntil(200 * sim.Millisecond)
			runUntilRepaired(t, eng, ctrl)
			for i, k := range completions {
				if k != 1 {
					t.Fatalf("request %d completed %d times", i, k)
				}
			}
			c := commonOf(ctrl)
			var dropped int64
			for _, d := range c.disks {
				dropped += d.S.Dropped
			}
			tc.check(t, ctrl.Results(), dropped)
			if idle := c.ops.idle(); idle != c.ops.made {
				t.Fatalf("%d ops made, %d back in the free lists after drain", c.ops.made, idle)
			}
		})
	}
}

func commonOf(ctrl Controller) *common {
	switch c := ctrl.(type) {
	case *schemeCtrl:
		return c.common
	case *cachedCtrl:
		return c.common
	}
	panic("unexpected controller type")
}
