package array

import (
	"raidsim/internal/disk"
	"raidsim/internal/obs"
	"raidsim/internal/trace"
)

// raid3Ctrl models the byte-interleaved RAID3 comparator from the related
// work (Chen et al.): every logical block is spread as a 1/N slice over
// all N data disks, with byte-wise parity on a dedicated drive. Every
// request therefore occupies every arm — superb bandwidth for large
// transfers, and exactly the "many arms per small request" cost Gray et
// al. warn about for OLTP. Writes need no read-modify-write: the parity
// bytes of a block's slices derive from the new data alone.
//
// Addressing: logical block l occupies a slice of physical block l/N on
// each drive (N logical blocks fill one physical block per drive, so an
// array of N+1 drives stores N drives' worth of data — the same
// equal-capacity footing as RAID5). Spindles are synchronized, as RAID3
// requires.
type raid3Ctrl struct {
	*common
	n   int
	bpd int64
}

// DataBlocks implements Controller.
func (r3 *raid3Ctrl) DataBlocks() int64 { return int64(r3.n) * r3.bpd }

// Results implements Controller.
func (r3 *raid3Ctrl) Results() *Results { return r3.baseResults(OrgRAID3) }

// sliceSectors returns the per-disk media pass for k logical blocks:
// ceil(k * sectorsPerBlock / N), at least one sector.
func (r3 *raid3Ctrl) sliceSectors(k int) int {
	s := (k*r3.cfg.Spec.SectorsPerBlock() + r3.n - 1) / r3.n
	if s < 1 {
		s = 1
	}
	return s
}

// Submit implements Controller.
func (r3 *raid3Ctrl) Submit(r Request) {
	r3.checkRequest(r, r3.DataBlocks())
	start, sp := r3.begin(r.Op != trace.Read)

	// The request's rows on each drive: physical blocks
	// [lba/N, (lba+blocks-1)/N].
	row0 := r.LBA / int64(r3.n)
	row1 := (r.LBA + int64(r.Blocks) - 1) / int64(r3.n)
	blocks := int(row1 - row0 + 1)
	sectors := r3.sliceSectors(r.Blocks)
	if spb := r3.cfg.Spec.SectorsPerBlock(); sectors > blocks*spb {
		sectors = blocks * spb
	}

	if r.Op == trace.Read {
		// All N data disks participate; parity idle on reads.
		nbuf := r3.n
		admitStart := r3.eng.Now()
		r3.buf.Acquire(nbuf, func() {
			if now := r3.eng.Now(); now > admitStart {
				sp.ChildSpan(obs.SpanAdmit, admitStart, now)
			}
			done := join(r3.n, func() {
				r3.chanXferSpan(r.Blocks, sp, func() {
					r3.buf.Release(nbuf)
					r3.finish(r, start, sp)
				})
			})
			for d := 0; d < r3.n; d++ {
				var op *obs.Span
				if sp != nil {
					op = sp.Child("read-slice", r3.eng.Now())
					op.SetBlocks(blocks)
				}
				r3.disks[d].Submit(&disk.Request{
					StartBlock: row0, Blocks: blocks,
					TransferSectors: sectors,
					Priority:        disk.PriNormal,
					Span:            op,
					OnDone:          done,
				})
			}
		})
		return
	}

	// Write: all N data disks plus the parity disk, no old-data reads.
	nbuf := r3.n + 1
	admitStart := r3.eng.Now()
	r3.buf.Acquire(nbuf, func() {
		if now := r3.eng.Now(); now > admitStart {
			sp.ChildSpan(obs.SpanAdmit, admitStart, now)
		}
		r3.chanXferSpan(r.Blocks, sp, func() {
			done := join(r3.n+1, func() {
				r3.buf.Release(nbuf)
				r3.finish(r, start, sp)
			})
			for d := 0; d <= r3.n; d++ {
				var op *obs.Span
				if sp != nil {
					name := "write-slice"
					if d == r3.n {
						name = "write-parity"
					}
					op = sp.Child(name, r3.eng.Now())
					op.SetBlocks(blocks)
				}
				req := &disk.Request{
					StartBlock: row0, Blocks: blocks,
					TransferSectors: sectors,
					Write:           true,
					Priority:        disk.PriNormal,
					Span:            op,
					OnDone:          done,
				}
				if d == r3.n {
					r3.parityAccesses++
				}
				r3.disks[d].Submit(req)
			}
		})
	})
}
