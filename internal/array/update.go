package array

import (
	"raidsim/internal/disk"
	"raidsim/internal/layout"
	"raidsim/internal/obs"
	"raidsim/internal/sim"
)

// updateOp is one write batch in flight, from buffer acquisition to the
// last disk write: the batch, its runs (plain writes) or update plan
// (parity writes), and one leg per disk access with its request and
// callbacks bound once.
type updateOp struct {
	pooled
	c *common
	w writeOp

	kind    updateKind
	runs    []run               // plainUpdate: the runs to write
	plan    updatePlan          // parityUpdate: the plan to apply
	lay     layout.ParityLayout // degradedUpdate: the layout to write through
	policy  SyncPolicy
	spool   paritySpool // nil: parity runs go to the parity disk
	nbuf    int         // track buffers held
	stagger sim.Time    // spacing between successive data-run issues

	parityPri  disk.Priority
	dataLeft   int // data legs still writing
	allLeft    int // legs (data and parity) still writing
	admitStart sim.Time
	dataLegs   []*dataLeg
	parityLegs []*parityLeg

	admitFn, issueFn, allDoneFn func()
}

// updateKind selects how an updateOp reaches the disks.
type updateKind uint8

const (
	plainUpdate    updateKind = iota // write runs: no parity to maintain
	parityUpdate                     // apply plan: data runs plus parity runs
	degradedUpdate                   // block at a time, with failures present
)

// dataLeg is one data-run disk write of an update.
type dataLeg struct {
	op    *updateOp
	req   disk.Request
	feeds []int // parity runs whose old-data inputs this (RMW) run reads

	doneFn, startFn, readDoneFn func()
}

// parityLeg is one parity-run access of an update.
type parityLeg struct {
	op         *updateOp
	req        disk.Request
	readsLeft  int // pending old-data reads feeding this run
	startsLeft int // pending feeding data-run starts
	issued     bool

	readyFn func() bool
}

// paritySpool takes an update's parity runs instead of the parity disk:
// RAID4 buffers them in the NV cache. done fires once per run, when the
// spool has admitted it.
type paritySpool interface {
	spoolParity(pr parityRun, done func())
}

func (c *common) newUpdateOp(w writeOp) *updateOp {
	op := c.ops.updates.pop()
	if op == nil {
		op = &updateOp{c: c}
		c.ops.made++
		op.admitFn = op.admit
		op.issueFn = op.issue
		op.allDoneFn = op.allDone
	}
	op.take()
	op.w = w
	return op
}

// plainWrite issues op.runs as plain (non-parity) writes behind the
// standard envelope: track buffers, foreground channel transfer, and the
// optional stagger that spaces background batches out.
func (c *common) plainWrite(op *updateOp) {
	op.kind, op.spool = plainUpdate, nil
	op.nbuf = len(op.runs)
	op.stagger = 0
	if len(op.runs) > 1 && op.w.spread > 0 {
		op.stagger = op.w.spread / sim.Time(len(op.runs))
	}
	c.acquireAndXfer(op)
}

// parityUpdate applies op.plan under the given synchronization policy.
// With a spool, parity runs take cache slots rather than track buffers,
// so the buffers serve the data disks only and are released as soon as
// the data writes land.
func (c *common) parityUpdate(op *updateOp, policy SyncPolicy, spool paritySpool) {
	op.kind, op.policy, op.spool = parityUpdate, policy, spool
	op.nbuf = op.plan.totalRuns()
	if spool != nil {
		op.nbuf = len(op.plan.dataRuns)
	}
	op.stagger = 0
	if len(op.plan.dataRuns) > 1 && op.w.spread > 0 {
		op.stagger = op.w.spread / sim.Time(len(op.plan.dataRuns))
	}
	c.acquireAndXfer(op)
}

// acquireAndXfer acquires the op's track buffers, then — for foreground
// writes (xfer > 0) — moves the request over the channel, then issues.
func (c *common) acquireAndXfer(op *updateOp) {
	op.admitStart = c.eng.Now()
	c.buf.Acquire(op.nbuf, op.admitFn)
}

func (op *updateOp) admit() {
	c := op.c
	if now := c.eng.Now(); now > op.admitStart {
		op.w.span.ChildSpan(obs.SpanAdmit, op.admitStart, now)
	}
	if op.w.xfer > 0 {
		c.chanXferSpan(op.w.xfer, op.w.span, op.issueFn)
	} else {
		op.issue()
	}
}

// parityDegradedWrite applies a write batch to a parity layout with
// failures present, behind the standard envelope.
func (c *common) parityDegradedWrite(lay layout.ParityLayout, w writeOp) {
	op := c.newUpdateOp(w)
	op.kind, op.lay, op.spool = degradedUpdate, lay, nil
	op.nbuf = len(w.lbas)
	op.stagger = 0
	c.acquireAndXfer(op)
}

func (op *updateOp) issue() {
	switch op.kind {
	case parityUpdate:
		op.executeUpdate()
		return
	case degradedUpdate:
		op.allLeft = 1
		op.c.degradedUpdate(op.lay, op.w.lbas, op.w.pri, op.w.span, op.allDoneFn)
		return
	}
	op.allLeft = len(op.runs)
	if op.allLeft == 0 {
		op.finish()
		return
	}
	for i := range op.runs {
		rn := &op.runs[i]
		leg := op.dataLeg(i)
		leg.req = disk.Request{
			StartBlock: rn.start, Blocks: rn.blocks, Write: true,
			Priority: op.w.pri, OnDone: op.allDoneFn,
		}
		op.submitData(i, rn.disk, &leg.req)
	}
}

// submitData issues data run i: at once, or — when staggered — i
// stagger steps from now.
func (op *updateOp) submitData(i, d int, req *disk.Request) {
	c := op.c
	if op.stagger > 0 && i > 0 {
		cl := c.eng.AfterCall(op.stagger*sim.Time(i), submitWriteFire)
		cl.A, cl.B, cl.C = c.disks[d], req, op.w.span
		return
	}
	if op.w.span != nil {
		name := "write-data"
		if req.RMW {
			name = "rmw-data"
		}
		req.Span = op.w.span.Child(name, c.eng.Now())
		req.Span.SetBlocks(req.Blocks)
	}
	c.disks[d].Submit(req)
}

// submitWriteFire issues a staggered device write: A = disk, B =
// request, C = the parent trace span (a nil *obs.Span when tracing is
// off). The span child is created at issue time, as for an immediate
// submit.
func submitWriteFire(e *sim.Engine, cl *sim.Call) {
	d := cl.A.(*disk.Disk)
	req := cl.B.(*disk.Request)
	if sp := cl.C.(*obs.Span); sp != nil {
		name := "write-data"
		if req.RMW {
			name = "rmw-data"
		}
		req.Span = sp.Child(name, e.Now())
		req.Span.SetBlocks(req.Blocks)
	}
	d.Submit(req)
}

// executeUpdate applies a batch of writes plus their parity updates to the
// array, honoring the configured data/parity synchronization policy:
//
//   - SI    parity issued immediately; the parity disk holds rotations
//     until the old data has been read.
//   - RF    parity issued once all its old-data reads complete.
//   - DF    parity issued once its feeding data accesses have acquired
//     their disks; held rotations absorb any remaining skew.
//   - /PR   variants give the parity access queue priority.
//
// Full-stripe parity runs and parity runs whose old data is already in
// the controller have no feeders and are issued immediately regardless of
// policy.
func (op *updateOp) executeUpdate() {
	plan := &op.plan
	nd, np := len(plan.dataRuns), len(plan.parityRuns)
	op.dataLeft, op.allLeft = nd, nd+np
	if nd+np == 0 {
		op.finish()
		return
	}
	op.parityPri = op.w.pri
	if op.policy.priority() {
		op.parityPri = disk.PriHigh
	}
	for i, d := range plan.deps {
		pl := op.parityLeg(i)
		pl.readsLeft, pl.startsLeft, pl.issued = len(d), len(d), false
	}
	// Reverse map: data run -> parity runs it feeds.
	for ri := range plan.dataRuns {
		leg := op.dataLeg(ri)
		leg.feeds = leg.feeds[:0]
	}
	for pi, d := range plan.deps {
		for _, ri := range d {
			op.dataLegs[ri].feeds = append(op.dataLegs[ri].feeds, pi)
		}
	}

	// Parity runs with no feeders are unconstrained by the policy.
	for i := range plan.parityRuns {
		if op.parityLegs[i].readsLeft == 0 || op.policy == SI {
			op.issueParity(i)
		}
	}

	for ri := range plan.dataRuns {
		r := &plan.dataRuns[ri]
		leg := op.dataLegs[ri]
		leg.req = disk.Request{
			StartBlock: r.start,
			Blocks:     r.blocks,
			Write:      true,
			Priority:   op.w.pri,
			OnDone:     leg.doneFn,
		}
		if plan.dataRMW[ri] {
			leg.req.RMW = true // new data is in the controller; no Ready gate
			leg.req.OnStart = leg.startFn
			leg.req.OnReadDone = leg.readDoneFn
		}
		op.submitData(ri, r.disk, &leg.req)
	}
}

func (op *updateOp) issueParity(i int) {
	pl := op.parityLegs[i]
	if pl.issued {
		return
	}
	pl.issued = true
	pr := op.plan.parityRuns[i]
	if op.spool != nil {
		op.spool.spoolParity(pr, op.allDoneFn)
		return
	}
	c := op.c
	c.parityAccesses++
	pl.req = disk.Request{
		StartBlock: pr.start,
		Blocks:     pr.blocks,
		Write:      true,
		Priority:   op.parityPri,
		OnDone:     op.allDoneFn,
	}
	if !pr.full {
		pl.req.RMW = true
		pl.req.Ready = pl.readyFn
	}
	if op.w.span != nil {
		name := "write-parity"
		if pl.req.RMW {
			name = "rmw-parity"
		}
		pl.req.Span = op.w.span.Child(name, c.eng.Now())
		pl.req.Span.SetBlocks(pr.blocks)
	}
	c.disks[pr.disk].Submit(&pl.req)
}

// dataLeg returns leg i, growing the op's legs on first use.
func (op *updateOp) dataLeg(i int) *dataLeg {
	for len(op.dataLegs) <= i {
		leg := &dataLeg{op: op}
		leg.doneFn = leg.done
		leg.startFn = leg.start
		leg.readDoneFn = leg.readDone
		op.dataLegs = append(op.dataLegs, leg)
	}
	return op.dataLegs[i]
}

// parityLeg returns parity leg i, growing the op's legs on first use.
func (op *updateOp) parityLeg(i int) *parityLeg {
	for len(op.parityLegs) <= i {
		pl := &parityLeg{op: op}
		pl.readyFn = pl.ready
		op.parityLegs = append(op.parityLegs, pl)
	}
	return op.parityLegs[i]
}

func (pl *parityLeg) ready() bool { return pl.readsLeft == 0 }

// start fires when the data run acquires its disk: under Disk First it
// releases the parity runs whose feeders have all started.
func (leg *dataLeg) start() {
	op := leg.op
	if !op.policy.diskFirst() {
		return
	}
	for _, pi := range leg.feeds {
		pl := op.parityLegs[pi]
		pl.startsLeft--
		if pl.startsLeft == 0 {
			op.issueParity(pi)
		}
	}
}

// readDone fires when the data run's old data is read: under Read First
// it releases the parity runs whose inputs are all in.
func (leg *dataLeg) readDone() {
	op := leg.op
	for _, pi := range leg.feeds {
		pl := op.parityLegs[pi]
		pl.readsLeft--
		if pl.readsLeft == 0 && (op.policy == RF || op.policy == RFPR) {
			op.issueParity(pi)
		}
	}
}

func (leg *dataLeg) done() {
	op := leg.op
	if countDown(&op.dataLeft) && op.spool != nil {
		op.c.buf.Release(op.nbuf)
	}
	op.allDone()
}

func (op *updateOp) allDone() {
	if countDown(&op.allLeft) {
		op.finish()
	}
}

// finish releases the op, then the track buffers it still holds, then
// runs the batch's continuation.
func (op *updateOp) finish() {
	c, n, cont := op.c, op.nbuf, op.w.onDone
	if op.spool != nil {
		n = 0 // released when the data landed
	}
	op.w, op.spool, op.lay = writeOp{}, nil, nil
	op.give()
	c.ops.updates.push(op)
	c.buf.Release(n)
	cont()
}
