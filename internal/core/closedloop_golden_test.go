package core

import (
	"fmt"
	"strings"
	"testing"

	"raidsim/internal/array"
	"raidsim/internal/fault"
	"raidsim/internal/geom"
	"raidsim/internal/sim"
)

// closedLoopCases pin the closed-loop replay on a two-array system
// (DataDisks 10, N 5), so both the admission loop and the per-array
// merge are covered.
var closedLoopCases = []struct {
	name    string
	org     array.Org
	cached  bool
	mpl     int
	think   sim.Time
	faulted bool
}{
	{"base/mpl1", array.OrgBase, false, 1, 0, false},
	{"base/mpl8", array.OrgBase, false, 8, 0, false},
	{"mirror/mpl1", array.OrgMirror, false, 1, 0, false},
	{"mirror/mpl8", array.OrgMirror, false, 8, 0, false},
	{"raid5/mpl1", array.OrgRAID5, false, 1, 0, false},
	{"raid5/mpl8", array.OrgRAID5, false, 8, 0, false},
	{"raid5$/mpl4/think5ms", array.OrgRAID5, true, 4, 5 * sim.Millisecond, false},
	{"raid5+f/mpl8", array.OrgRAID5, false, 8, 0, true},
}

func closedLoopCaseConfig(org array.Org, cached, faulted bool) Config {
	cfg := Config{
		Org: org, DataDisks: 10, N: 5, Spec: geom.Default(),
		Sync: array.DF, Cached: cached, CacheMB: 8, Seed: 5,
	}
	if faulted {
		cfg.Spares = 1
		cfg.Fault = fault.Config{
			DiskFails: []fault.DiskFail{{Disk: 1, At: 3 * sim.Second}},
		}
	}
	return cfg
}

// closedLoopFingerprint renders the closed-loop outputs bit-exactly
// (floats in hex): request and event counts, makespan, response mean and
// p95, per-disk utilization, and the fault counters.
func closedLoopFingerprint(r *ClosedLoopResults) string {
	var b strings.Builder
	fmt.Fprintf(&b, "req=%d ev=%d span=%d resp=%x p95=%x util=",
		r.Requests, r.Events, r.Makespan, r.Resp.Mean(), r.Resp.Quantile(0.95))
	for i, u := range r.DiskUtil {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%x", u)
	}
	f := r.Fault
	fmt.Fprintf(&b, " fault=%d,%d,%d,%d,%d,%d,%d",
		f.Failures, f.SparesUsed, f.Rebuilds, f.RebuildTime,
		f.DegradedWindows, f.DegradedTime, f.DataLossEvents)
	return b.String()
}

// closedLoopGolden was recorded from the closed loop as it stood before
// it moved onto the shared array driver; any drift is a behavior change.
// Regenerate with go test -run TestClosedLoopGolden -v after clearing
// the map.
var closedLoopGolden = map[string]string{
	"base/mpl1":            "req=3000 ev=6000 span=42079214222 resp=0x1.26e950fcb68d8p+04 p95=0x1.1541f99871693p+05 util=0x1.b62c9fe8ae7c5p-06,0x1.48c098b7f879ap-01,0x1.9915712cee273p-06,0x1.8ac3ab82c7982p-05,0x1.be07349e289eap-03,0x1.1093e34dd2ad5p-02,0x1.f8dbeb580f3dep-05,0x1.1d68b42dd18f3p-03,0x1.ace1ae56c12c5p-02,0x1.4368b7510cf02p-04 fault=0,0,0,0,0,0,0",
	"base/mpl8":            "req=3000 ev=6000 span=27023658817 resp=0x1.59b28bf1a45bap+06 p95=0x1.5f96956c07fbap+07 util=0x1.55a977e3e29fap-05,0x1.fffe036998f2dp-01,0x1.2a473ad80e212p-05,0x1.2c187075ee44bp-04,0x1.584b1f245670dp-02,0x1.4e17b77c834e7p-01,0x1.0f8c32ffe0478p-03,0x1.499beb665bf35p-02,0x1.fe3932159596dp-01,0x1.774a046ec6555p-03 fault=0,0,0,0,0,0,0",
	"mirror/mpl1":          "req=3000 ev=6871 span=41243014632 resp=0x1.217d0efeaed5dp+04 p95=0x1.031e8e59d5a7ap+05 util=0x1.3b6f309b8dc81p-06,0x1.1aa60bde5e398p-06,0x1.e37302c501364p-02,0x1.507a7c4d177b3p-02,0x1.21683ce931b8ap-06,0x1.8275d4a0129e4p-07,0x1.03bc8dc0af247p-05,0x1.998149713e692p-06,0x1.30515f0d82a36p-03,0x1.d6880584b4434p-04,0x1.8aeaf9164cce6p-03,0x1.384f2deabe87bp-03,0x1.98b80357d1e0bp-05,0x1.bb62a954a5bd1p-06,0x1.8ad4ca50d474cp-04,0x1.19d24f2c2384ap-04,0x1.17936e7acbb8p-02,0x1.cbfe4261bbd3bp-03,0x1.c59eb78a0f5eap-05,0x1.7d46959a695d4p-05 fault=0,0,0,0,0,0,0",
	"mirror/mpl8":          "req=3000 ev=6871 span=18322234891 resp=0x1.d52bc22c5fdb2p+05 p95=0x1.1f002ee3d49bbp+07 util=0x1.4d3875b3cf2bap-05,0x1.42d91e086021dp-05,0x1.ddebebd5b718fp-01,0x1.d61f1bb073012p-01,0x1.5a4033c9a7de6p-05,0x1.99bda5d8eea15p-06,0x1.1e9bd33c5a855p-04,0x1.c965fbad694fdp-05,0x1.4f9976ac86cc5p-02,0x1.1bd6bc3b091bbp-02,0x1.4bb673130fc49p-01,0x1.20d80136b6c4p-01,0x1.67f388f87dacdp-03,0x1.973fc19344335p-04,0x1.6efd1be37a278p-02,0x1.f70bbac74e123p-03,0x1.ea9f25046d666p-01,0x1.bfd21723b2f3dp-01,0x1.831a822f2da42p-03,0x1.33f62982e2489p-03 fault=0,0,0,0,0,0,0",
	"raid5/mpl1":           "req=3000 ev=11969 span=50908343241 resp=0x1.6ae675dca8e5bp+04 p95=0x1.53a71247aee1ap+05 util=0x1.098d8c245e7fbp-02,0x1.05e4b6ad50edfp-02,0x1.041b751e1e20ap-02,0x1.022507441529ap-02,0x1.1dd779db2cb9p-02,0x1.03ee5917b2af9p-02,0x1.032c38b738cebp-02,0x1.04f4f19eaef4ap-02,0x1.2dc173476e58bp-02,0x1.12c9b79fd424bp-02,0x1.0561f92437ecep-02,0x1.dff311e02e82ap-03 fault=0,0,0,0,0,0,0",
	"raid5/mpl8":           "req=3000 ev=11883 span=17050931480 resp=0x1.e4e8bc4658c0ap+05 p95=0x1.1f002ee3d49bbp+07 util=0x1.8676462ce8f21p-01,0x1.7f2488877d344p-01,0x1.7e69ad74ef725p-01,0x1.84f83c889215p-01,0x1.a270ddd082ad3p-01,0x1.84c79b5303475p-01,0x1.7e4cdb4faa3d8p-01,0x1.73d64e1a96f1ap-01,0x1.c180cee7b7d76p-01,0x1.97e7ef6fd89ep-01,0x1.80f202711744ep-01,0x1.5f350be8eafa7p-01 fault=0,0,0,0,0,0,0",
	"raid5$/mpl4/think5ms": "req=3000 ev=15865 span=21641676867 resp=0x1.04d807cfaa49ap+05 p95=0x1.33173c6989e41p+07 util=0x1.1b47fe742faf9p-01,0x1.15b4c15f8a5cep-01,0x1.0db6ebfd38669p-01,0x1.1fb8a26feb6d5p-01,0x1.315fe3cd19972p-01,0x1.1e032e1c7b637p-01,0x1.29a1da58b54dep-01,0x1.307d5e59f9bf9p-01,0x1.590f62ade05c1p-01,0x1.33e478a2273ddp-01,0x1.22a1bbdaafc71p-01,0x1.0b11a20e7dc78p-01 fault=0,0,0,0,0,0,0",
	"raid5+f/mpl8":         "req=3000 ev=15861 span=26969236448 resp=0x1.5c336ccf66e18p+06 p95=0x1.78330b66cb1a3p+07 util=0x1.cfb1f8c085694p-01,0x1.0c31937e109ccp-01,0x1.c376415d61f77p-01,0x1.cf2a92929fcf8p-01,0x1.d9116da98244dp-01,0x1.c8ad42538ab0bp-01,0x1.7e4cdb4faa3d8p-01,0x1.73d64e1a96f1ap-01,0x1.c180cee7b7d76p-01,0x1.97e7ef6fd89ep-01,0x1.80f202711744ep-01,0x1.5f350be8eafa7p-01 fault=1,1,0,0,1,23969236448,0",
}

func TestClosedLoopGolden(t *testing.T) {
	tr := closedLoopTrace(t)
	for _, tc := range closedLoopCases {
		cfg := closedLoopCaseConfig(tc.org, tc.cached, tc.faulted)
		res, err := RunClosedLoop(cfg, tr, ClosedLoopConfig{MPL: tc.mpl, ThinkTime: tc.think})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got := closedLoopFingerprint(res)
		want, ok := closedLoopGolden[tc.name]
		if !ok {
			t.Logf("%q: %q,", tc.name, got)
			continue
		}
		if got != want {
			t.Errorf("%s: closed loop changed\n got: %s\nwant: %s", tc.name, got, want)
		}
	}
}
