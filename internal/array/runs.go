package array

import (
	"slices"

	"raidsim/internal/layout"
)

// run is a physically contiguous span on one disk, with the logical
// blocks it carries in order.
type run struct {
	disk   int
	start  int64 // physical block on the disk
	blocks int
	lbas   []int64
}

// appendSpan appends the logical blocks [lba, lba+n) to dst.
func appendSpan(dst []int64, lba int64, n int) []int64 {
	for i := 0; i < n; i++ {
		dst = append(dst, lba+int64(i))
	}
	return dst
}

// dataRuns maps a list of logical blocks and appends the resulting
// per-disk physically contiguous runs to dst, preserving order of first
// appearance. Merging only joins runs this call appended. The input need
// not be contiguous (destage batches aren't). The spare capacity of dst
// is recycled, each slot's lbas backing included, so an op that passes
// its previous run list back as runs[:0] maps a request without
// allocating once warm.
func dataRuns(dst []run, lay layout.DataLayout, lbas []int64) []run {
	base := len(dst)
	for _, l := range lbas {
		dst = addToRuns(dst, base, lay.Map(l), l)
	}
	return dst
}

// altRuns is dataRuns through the mirror's secondary copies.
func altRuns(dst []run, lay layout.MirrorLayout, lbas []int64) []run {
	base := len(dst)
	for _, l := range lbas {
		dst = addToRuns(dst, base, lay.Alt(l), l)
	}
	return dst
}

// addToRuns extends the run in runs[base:] that loc continues, or opens
// a new one in the next slot, reusing that slot's lbas backing.
func addToRuns(runs []run, base int, loc layout.Loc, l int64) []run {
	for j := base; j < len(runs); j++ {
		r := &runs[j]
		if r.disk == loc.Disk && loc.Block == r.start+int64(r.blocks) {
			r.blocks++
			r.lbas = append(r.lbas, l)
			return runs
		}
	}
	if len(runs) < cap(runs) {
		runs = runs[:len(runs)+1]
	} else {
		runs = append(runs, run{})
	}
	r := &runs[len(runs)-1]
	r.disk, r.start, r.blocks = loc.Disk, loc.Block, 1
	r.lbas = append(r.lbas[:0], l)
	return runs
}

// parityRun is a contiguous span of parity blocks on one disk, with
// full-stripe/partial classification: full means every stripe this run
// protects is entirely overwritten by the batch, so the new parity is
// computable without reading old data or old parity.
type parityRun struct {
	disk   int
	start  int64
	blocks int
	full   bool
}

// updatePlan is everything needed to apply a batch of block writes to a
// parity-protected layout. A plan is rebuilt in place: every slice,
// the scratch ones included, keeps its capacity across builds.
type updatePlan struct {
	dataRuns   []run
	dataRMW    []bool // per data run: must read old data first
	parityRuns []parityRun
	// deps[i] lists indexes of RMW data runs whose old-data reads feed
	// parity run i.
	deps [][]int

	batch   []int64    // sorted copy of the batch, for coverage lookups
	members []int64    // one stripe's members
	pblocks []pblock   // distinct parity blocks, in first-touch order
	feeds   []feedEdge // (parity block, data run) pairs from uncovered blocks
}

// pblock is one parity block a batch touches: whether every stripe it
// protects is fully covered, and the parity run it was merged into.
type pblock struct {
	loc  layout.Loc
	full bool
	run  int
}

// feedEdge records that data run ri writes an uncovered block protected
// by parity block p.
type feedEdge struct{ p, ri int }

// planUpdate builds a fresh updatePlan for writing the given logical
// blocks; see build.
func planUpdate(lay layout.ParityLayout, lbas []int64, hasOld func(int64) bool) *updatePlan {
	p := new(updatePlan)
	p.build(lay, lbas, hasOld)
	return p
}

// build fills the plan for writing the given logical blocks. hasOld
// reports whether the pre-write image of a block is already in the
// controller (cache shadow); nil means never.
//
// A data run needs an RMW pass if any of its blocks belongs to a
// not-fully-covered stripe and lacks an old image. A parity run is "full"
// only if every parity block in it protects a fully covered stripe.
// Dependencies connect each partial parity run to the RMW data runs whose
// stripes it protects.
func (p *updatePlan) build(lay layout.ParityLayout, lbas []int64, hasOld func(int64) bool) {
	p.batch = append(p.batch[:0], lbas...)
	slices.Sort(p.batch)
	p.dataRuns = dataRuns(p.dataRuns[:0], lay, lbas)
	p.dataRMW = p.dataRMW[:0]
	for range p.dataRuns {
		p.dataRMW = append(p.dataRMW, false)
	}

	// Which parity blocks does each data run touch, and is the block's
	// stripe covered?
	p.pblocks, p.feeds = p.pblocks[:0], p.feeds[:0]
	for ri, r := range p.dataRuns {
		for _, l := range r.lbas {
			cov := p.covered(lay, l)
			if !cov && (hasOld == nil || !hasOld(l)) {
				p.dataRMW[ri] = true
			}
			pi := p.pblockIndex(lay.Parity(l))
			if !cov {
				p.pblocks[pi].full = false
				p.feeds = append(p.feeds, feedEdge{p: pi, ri: ri})
			}
		}
	}

	// Merge parity blocks into contiguous same-class runs.
	p.parityRuns = p.parityRuns[:0]
	for i := range p.pblocks {
		pb := &p.pblocks[i]
		pb.run = -1
		for k := range p.parityRuns {
			pr := &p.parityRuns[k]
			if pr.disk == pb.loc.Disk && pb.loc.Block == pr.start+int64(pr.blocks) && pr.full == pb.full {
				pr.blocks++
				pb.run = k
				break
			}
		}
		if pb.run < 0 {
			pb.run = len(p.parityRuns)
			p.parityRuns = append(p.parityRuns, parityRun{
				disk: pb.loc.Disk, start: pb.loc.Block, blocks: 1, full: pb.full,
			})
		}
	}

	// Union each parity run's feeders, keeping only actual RMW runs.
	np := len(p.parityRuns)
	if cap(p.deps) < np {
		p.deps = append(p.deps[:cap(p.deps)], make([][]int, np-cap(p.deps))...)
	}
	p.deps = p.deps[:np]
	for k := range p.deps {
		p.deps[k] = p.deps[k][:0]
	}
	for _, e := range p.feeds {
		if p.dataRMW[e.ri] {
			k := p.pblocks[e.p].run
			p.deps[k] = appendUnique(p.deps[k], e.ri)
		}
	}
}

// covered reports whether every member of l's stripe is in the batch.
func (p *updatePlan) covered(lay layout.ParityLayout, l int64) bool {
	p.members = lay.AppendStripeMembers(p.members[:0], l)
	if len(p.members) < lay.StripeWidth() {
		return false
	}
	for _, m := range p.members {
		if _, ok := slices.BinarySearch(p.batch, m); !ok {
			return false
		}
	}
	return true
}

// pblockIndex returns the index of the parity block at loc, adding it
// (provisionally full) on first touch.
func (p *updatePlan) pblockIndex(loc layout.Loc) int {
	for i := range p.pblocks {
		if p.pblocks[i].loc == loc {
			return i
		}
	}
	p.pblocks = append(p.pblocks, pblock{loc: loc, full: true})
	return len(p.pblocks) - 1
}

func appendUnique(s []int, v int) []int {
	for _, x := range s {
		if x == v {
			return s
		}
	}
	return append(s, v)
}

// totalRuns returns the number of disk accesses the plan will issue.
func (p *updatePlan) totalRuns() int { return len(p.dataRuns) + len(p.parityRuns) }
