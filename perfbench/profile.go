package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os/exec"
	"strconv"
	"strings"
)

// layers are the packages a profile is sliced into; anything else folds
// into "other". campaign/shard counts as campaign.
var layers = []string{
	"array", "bus", "cache", "campaign", "core", "disk", "geom", "layout",
	"obs", "rng", "sim", "stats", "trace", "workload",
}

// stack is one profile sample: its value and its frames' function
// names, leaf first (inlined frames expanded).
type stack struct {
	value  int64
	frames []string
}

// readRaw runs `go tool pprof -raw` on a profile (net of base when base
// is non-empty) and returns the samples' values of the sample type whose
// name has the given prefix ("cpu", "alloc_space").
func readRaw(goBin, sampleType, base, path string) ([]stack, error) {
	args := []string{"tool", "pprof", "-raw"}
	if base != "" {
		args = append(args, "-base", base)
	}
	args = append(args, path)
	out, err := exec.Command(goBin, args...).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof %s: %w", path, err)
	}
	return parseRaw(bytes.NewReader(out), sampleType)
}

// parseRaw parses pprof's -raw text dump: a "Samples:" section of
// "v1 v2 ...: loc loc ..." lines under a header naming each value's
// type, then a "Locations" section of "id: addr [M=n] func file:line"
// lines, each followed by indented lines for the frames inlined into it
// (innermost first).
func parseRaw(r io.Reader, sampleType string) ([]stack, error) {
	type rawSample struct {
		value int64
		locs  []int
	}
	var (
		section string
		col     = -1
		samples []rawSample
		locs    = map[int][]string{}
		lastLoc int
	)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := sc.Text()
		trimmed := strings.TrimSpace(line)
		switch {
		case trimmed == "Samples:":
			section = "header"
			continue
		case trimmed == "Locations":
			section = "locations"
			continue
		case trimmed == "Mappings":
			section = "mappings"
			continue
		case trimmed == "":
			continue
		}
		switch section {
		case "header":
			for i, f := range strings.Fields(trimmed) {
				if strings.HasPrefix(f, sampleType+"/") {
					col = i
				}
			}
			if col < 0 {
				return nil, fmt.Errorf("profile has no %s samples (types %q)", sampleType, trimmed)
			}
			section = "samples"
		case "samples":
			vals, ids, ok := strings.Cut(trimmed, ":")
			if !ok || !(trimmed[0] == '-' || (trimmed[0] >= '0' && trimmed[0] <= '9')) {
				continue // a label line
			}
			vf := strings.Fields(vals)
			if col >= len(vf) {
				return nil, fmt.Errorf("sample line %q: no column %d", trimmed, col)
			}
			v, err := strconv.ParseInt(vf[col], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("sample line %q: %w", trimmed, err)
			}
			s := rawSample{value: v}
			for _, f := range strings.Fields(ids) {
				id, err := strconv.Atoi(f)
				if err != nil {
					return nil, fmt.Errorf("sample line %q: %w", trimmed, err)
				}
				s.locs = append(s.locs, id)
			}
			samples = append(samples, s)
		case "locations":
			// Location lines right-align their ID in six columns;
			// inlined-frame lines are indented past that.
			f := strings.Fields(trimmed)
			if !strings.HasPrefix(line, "             ") {
				n, err := strconv.Atoi(strings.TrimSuffix(f[0], ":"))
				if err != nil {
					return nil, fmt.Errorf("location line %q: %w", trimmed, err)
				}
				lastLoc = n
				fn := "?"
				for _, x := range f[1:] {
					if strings.HasPrefix(x, "0x") || strings.HasPrefix(x, "M=") || x == "[F]" {
						continue
					}
					fn = x
					break
				}
				locs[n] = append(locs[n], fn)
			} else {
				locs[lastLoc] = append(locs[lastLoc], f[0])
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if col < 0 {
		return nil, fmt.Errorf("profile has no Samples section")
	}
	out := make([]stack, len(samples))
	for i, s := range samples {
		out[i].value = s.value
		for _, l := range s.locs {
			out[i].frames = append(out[i].frames, locs[l]...)
		}
	}
	return out, nil
}

// funcPackage returns the import path of a symbol such as
// "raidsim/internal/sim.(*Engine).Step".
func funcPackage(fn string) string {
	slash := strings.LastIndex(fn, "/")
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// layerOf maps a symbol to its layer name, or "other".
func layerOf(fn string) string {
	rest, ok := strings.CutPrefix(funcPackage(fn), "raidsim/internal/")
	if !ok {
		return "other"
	}
	top, _, _ := strings.Cut(rest, "/")
	for _, l := range layers {
		if l == top {
			return l
		}
	}
	return "other"
}

// gcFrame reports whether a frame belongs to the garbage collector:
// background and assist marking, sweeping, scavenging and write
// barriers.
func gcFrame(fn string) bool {
	for _, p := range []string{
		"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.sweepone",
		"runtime.markroot", "runtime.scanobject", "runtime.scanstack", "runtime.wbBuf",
		"runtime.deductSweepCredit", "runtime.(*sweepLocked)", "runtime.(*mspan).sweep",
		"runtime.GC", "gcWriteBarrier",
	} {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// owner is the layer of the innermost raidsim frame: code outside the
// repository (the standard library, runtime helpers) is charged to the
// layer that called it.
func owner(frames []string) string {
	for _, f := range frames {
		if strings.HasPrefix(f, "raidsim/") {
			return layerOf(f)
		}
	}
	return "other"
}

// cpuShares slices CPU samples by self time: a sample whose stack runs
// through the collector counts as runtime.gc, a runtime leaf under
// mallocgc as runtime.malloc, and anything else goes to its owner's
// layer. Shares sum to 1 over the returned keys.
func cpuShares(samples []stack) map[string]float64 {
	by := map[string]int64{}
	var total int64
	for _, s := range samples {
		total += s.value
		by[cpuClass(s.frames)] += s.value
	}
	return shares(by, total)
}

func cpuClass(frames []string) string {
	for _, f := range frames {
		if gcFrame(f) {
			return "runtime.gc"
		}
	}
	if len(frames) > 0 && funcPackage(frames[0]) == "runtime" {
		for _, f := range frames {
			if strings.HasPrefix(f, "runtime.mallocgc") {
				return "runtime.malloc"
			}
		}
	}
	return owner(frames)
}

// allocShares slices allocated bytes by the owner of the allocation.
func allocShares(samples []stack) map[string]float64 {
	by := map[string]int64{}
	var total int64
	for _, s := range samples {
		total += s.value
		by[owner(s.frames)] += s.value
	}
	return shares(by, total)
}

func shares(by map[string]int64, total int64) map[string]float64 {
	out := map[string]float64{}
	if total <= 0 {
		return out
	}
	for k, v := range by {
		out[k] = float64(v) / float64(total)
	}
	return out
}
