package array

import (
	"raidsim/internal/cache"
	"raidsim/internal/disk"
	"raidsim/internal/obs"
)

// raid4Scheme is the RAID4-with-parity-caching organization of section
// 4.4: data is striped over N disks with a dedicated parity disk, and
// parity updates are buffered in the same NV cache as data, sorted by
// cylinder and spooled to the parity disk with a SCAN sweep. Foreground
// reads therefore never queue behind parity read-modify-writes, at the
// cost of one fewer data spindle and cache slots spent on parity. The
// scheme only exists behind the cache front-end (New enforces Cached),
// so cc is always set before the first write.
type raid4Scheme struct {
	parityScheme
	cc *cachedCtrl // the front-end whose cache hosts the parity spool

	spooling bool
	scanPos  int64 // C-SCAN position on the parity disk
	stalled  []func()

	// The spool's one in-flight parity access, with its completion bound
	// once (see ops.go).
	spoolReq    disk.Request
	spoolKey    cache.ParityKey
	spoolRoot   *obs.Span
	spoolEpoch  int
	spoolDoneFn func()
}

func (s *raid4Scheme) write(w writeOp) {
	if s.c.degradedNow() {
		// Degraded mode bypasses the parity spool: with the parity disk
		// dead there is no parity to keep, and with a data disk dead each
		// block needs the per-block case analysis.
		s.c.parityDegradedWrite(s.lay, w)
		return
	}
	op := s.c.newUpdateOp(w)
	op.plan.build(s.lay, w.lbas, w.hasOld)
	// Enqueue parity once its inputs are read.
	s.c.parityUpdate(op, RF, s)
}

// spoolParity implements paritySpool.
func (s *raid4Scheme) spoolParity(pr parityRun, done func()) { s.enqueueParityRun(pr, 0, done) }

// enqueueParityRun admits the run's parity blocks into the spool one by
// one. When the cache is full it first reclaims clean blocks ("writes
// have to wait for a block to become free in the cache", section 3.4);
// failing that it waits for the spooler to free a slot, and if the spool
// itself is empty — nothing will ever free a slot — it degrades to a
// direct parity-disk access, the behavior of an uncached RAID4.
func (s *raid4Scheme) enqueueParityRun(pr parityRun, i int, done func()) {
	for ; i < pr.blocks; i++ {
		k := cache.ParityKey{Disk: pr.disk, Block: pr.start + int64(i)}
		for !s.cc.c.AddParityPending(k, pr.full) {
			if v := s.cc.c.CleanVictim(); v != nil && s.cc.c.FreeSlots() == 0 {
				s.cc.c.Drop(v.LBA)
				continue
			}
			if s.cc.c.ParityPendingCount() > 0 {
				i := i
				s.stalled = append(s.stalled, func() { s.enqueueParityRun(pr, i, done) })
				return
			}
			// Spool wedged empty-but-unadmittable: bypass it.
			i := i
			s.c.parityAccesses++
			req := &disk.Request{
				StartBlock: k.Block, Blocks: 1, Write: true,
				Priority: disk.PriBackground,
				OnDone:   func() { s.enqueueParityRun(pr, i+1, done) },
			}
			if !pr.full {
				req.RMW = true
			}
			s.c.disks[k.Disk].Submit(req)
			return
		}
	}
	done()
	s.spool()
}

// spool drives the parity disk: while updates are pending, service them
// in C-SCAN order. Deltas need a read-modify-write (old parity XOR delta);
// full images are plain writes.
func (s *raid4Scheme) spool() {
	if s.spooling {
		return
	}
	pending := s.cc.c.ParityPending()
	if len(pending) == 0 {
		return
	}
	// C-SCAN: first pending block at or after the sweep position, else
	// wrap to the lowest.
	pick := pending[0]
	for _, p := range pending {
		if p.Key.Block >= s.scanPos {
			pick = p
			break
		}
	}
	s.spooling = true
	s.c.parityAccesses++
	s.spoolKey, s.spoolEpoch = pick.Key, s.cc.epoch
	// Each spool access is its own background trace tree; the disk layer
	// hangs the mechanism phases directly under its root.
	s.spoolRoot = nil
	if s.c.tr != nil {
		s.spoolRoot = s.c.tr.StartBackground("parity-spool", s.c.eng.Now())
		s.spoolRoot.SetBlocks(1)
	}
	s.spoolReq = disk.Request{
		StartBlock: pick.Key.Block,
		Blocks:     1,
		Write:      true,
		RMW:        !pick.Full,
		Priority:   disk.PriBackground,
		Span:       s.spoolRoot,
		OnDone:     s.spoolDoneFn,
	}
	s.c.disks[pick.Key.Disk].Submit(&s.spoolReq)
}

// spoolDone retires the spooled parity block just written and moves the
// sweep on.
func (s *raid4Scheme) spoolDone() {
	if s.spoolRoot != nil {
		s.c.tr.FinishBackground(s.spoolRoot, s.c.eng.Now())
		s.spoolRoot = nil
	}
	s.scanPos = s.spoolKey.Block + 1
	// Guard against an NVRAM failure that replaced the cache (and its
	// spool) while this access was in flight.
	if s.cc.epoch == s.spoolEpoch {
		s.cc.c.RemoveParityPending(s.spoolKey)
	}
	s.spooling = false
	// A freed slot may unblock stalled destages.
	if len(s.stalled) > 0 {
		w := s.stalled[0]
		copy(s.stalled, s.stalled[1:])
		s.stalled = s.stalled[:len(s.stalled)-1]
		w()
	}
	s.spool()
}
