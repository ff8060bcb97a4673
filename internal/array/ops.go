package array

import (
	"raidsim/internal/disk"
	"raidsim/internal/obs"
	"raidsim/internal/sim"
)

// The request path allocates nothing per request once warm. Every
// in-flight piece of a request is a pooled op drawn from its
// controller's free lists: the request envelope (reqEnv), a multi-run
// read (readOp), one device read with its retry budgets (devRead), and a
// write batch (updateOp, in update.go). An op binds its completion funcs
// once, when it is first allocated (op.doneFn = op.complete), and hands
// those to disk.Request.OnDone, bus.BufferPool.Acquire and
// bus.Channel.Transfer, so issuing an access builds no closure. An op
// goes back to its free list before it runs its continuation, so the
// continuation may reuse it at once.
//
// Closures remain only on cold paths: fault fallback, transient-retry
// backoff, hedge legs, rebuild, degraded parity writes, the RAID3 and
// parity-logging comparators, and the traced (span != nil) branches.

// pooled is embedded by every recycled op. It catches the two ways a
// free list goes wrong: handing out an op that is still in flight, and
// releasing one twice (a completion that fires twice releases twice).
type pooled struct{ inUse bool }

func (p *pooled) take() {
	if p.inUse {
		panic("array: reuse of an in-flight op")
	}
	p.inUse = true
}

func (p *pooled) give() {
	if !p.inUse {
		panic("array: op released twice")
	}
	p.inUse = false
}

// freeList is a LIFO of recycled ops of one type.
type freeList[T any] []*T

func (f *freeList[T]) pop() *T {
	s := *f
	if len(s) == 0 {
		return nil
	}
	op := s[len(s)-1]
	s[len(s)-1] = nil
	*f = s[:len(s)-1]
	return op
}

func (f *freeList[T]) push(op *T) { *f = append(*f, op) }

// opPools holds a controller's free lists.
type opPools struct {
	envs    freeList[reqEnv]
	reads   freeList[readOp]
	devs    freeList[devRead]
	updates freeList[updateOp]
	made    int // ops ever allocated; all of them are idle once drained
}

// idle returns how many ops sit in the free lists.
func (p *opPools) idle() int {
	return len(p.envs) + len(p.reads) + len(p.devs) + len(p.updates)
}

// countDown decrements a pending-completion count and reports whether it
// reached zero. Going below zero means a completion fired more often than
// it was counted.
func countDown(n *int) bool {
	*n--
	if *n < 0 {
		panic("array: completion counter over-released")
	}
	return *n == 0
}

// join returns a completion that runs fn once it has been called n times;
// with n == 0, fn runs at once. Cold paths only: it allocates.
func join(n int, fn func()) func() {
	if n == 0 {
		fn()
	}
	return func() {
		if countDown(&n) {
			fn()
		}
	}
}

// reqEnv is the request envelope: the Request, its start time and root
// span, and the request's logical blocks, from Submit until finish.
type reqEnv struct {
	pooled
	c     *common
	r     Request
	start sim.Time
	sp    *obs.Span
	lbas  []int64 // [r.LBA, r.LBA+r.Blocks)

	// Cached front-end state: the next block a write still has to place.
	cc   *cachedCtrl
	next int

	finishFn, fetchFn, insertFn, placeFn func()
}

func (c *common) newEnv(r Request, start sim.Time, sp *obs.Span) *reqEnv {
	e := c.ops.envs.pop()
	if e == nil {
		e = &reqEnv{c: c}
		c.ops.made++
		e.finishFn = e.finish
		e.fetchFn = e.fetchMissing
		e.insertFn = e.insertDirty
		e.placeFn = e.placeDirty
	}
	e.take()
	e.r, e.start, e.sp = r, start, sp
	e.lbas = appendSpan(e.lbas[:0], r.LBA, r.Blocks)
	return e
}

// finish completes the request: response accounting, then the caller's
// OnComplete.
func (e *reqEnv) finish() {
	c, r, start, sp := e.c, e.r, e.start, e.sp
	e.r.OnComplete, e.sp = nil, nil
	e.give()
	c.ops.envs.push(e)
	c.finish(r, start, sp)
}

// readOp reads a list of runs into track buffers, then moves the whole
// request over the channel.
type readOp struct {
	pooled
	c          *common
	runs       []run
	blocks     int // blocks the channel moves once every run is read
	pending    int // runs still being read
	sp         *obs.Span
	admitStart sim.Time
	onDone     func()

	admitFn, runDoneFn, xferDoneFn func()
}

func (c *common) newReadOp() *readOp {
	op := c.ops.reads.pop()
	if op == nil {
		op = &readOp{c: c}
		c.ops.made++
		op.admitFn = op.admit
		op.runDoneFn = op.runDone
		op.xferDoneFn = op.xferDone
	}
	op.take()
	return op
}

// readRuns performs reads for op.runs, then one channel transfer of the
// full request, then onDone. Shared by every organization; readRun makes
// every path failure- and sector-error-aware.
func (c *common) readRuns(op *readOp, blocks int, sp *obs.Span, onDone func()) {
	op.blocks, op.sp, op.onDone = blocks, sp, onDone
	op.admitStart = c.eng.Now()
	c.buf.Acquire(len(op.runs), op.admitFn)
}

func (op *readOp) admit() {
	c := op.c
	if now := c.eng.Now(); now > op.admitStart {
		op.sp.ChildSpan(obs.SpanAdmit, op.admitStart, now)
	}
	op.pending = len(op.runs)
	if op.pending == 0 {
		c.chanXferSpan(op.blocks, op.sp, op.xferDoneFn)
		return
	}
	for i := range op.runs {
		var leg *obs.Span
		if op.sp != nil {
			leg = op.sp.Child("read-data", c.eng.Now())
			leg.SetBlocks(op.runs[i].blocks)
		}
		c.readRunHedged(op.runs[i], disk.PriNormal, leg, op.runDoneFn)
	}
}

func (op *readOp) runDone() {
	if countDown(&op.pending) {
		op.c.chanXferSpan(op.blocks, op.sp, op.xferDoneFn)
	}
}

func (op *readOp) xferDone() {
	c, n, cont := op.c, len(op.runs), op.onDone
	op.sp, op.onDone = nil, nil
	op.give()
	c.ops.reads.push(op)
	c.buf.Release(n)
	cont()
}

// devRead is one device read pass. tries counts latent-sector-error
// retries (injector-bounded), att counts transient-error retries
// (robustness-layer-bounded, with backoff) — independent budgets for
// independent failure modes.
type devRead struct {
	pooled
	c      *common
	rn     run
	pri    disk.Priority
	tries  int
	att    int
	op     *obs.Span
	onDone func()
	req    disk.Request
	doneFn func()
}

// mediaRead issues one device read pass of rn under the given retry
// budgets; op is the device-op span (nil when untraced).
func (c *common) mediaRead(rn run, pri disk.Priority, tries, att int, op *obs.Span, onDone func()) {
	dr := c.ops.devs.pop()
	if dr == nil {
		dr = &devRead{c: c}
		c.ops.made++
		dr.doneFn = dr.complete
	}
	dr.take()
	dr.rn, dr.pri, dr.tries, dr.att, dr.op, dr.onDone = rn, pri, tries, att, op, onDone
	dr.req = disk.Request{
		StartBlock: rn.start, Blocks: rn.blocks, Priority: pri, Span: op,
		OnDone: dr.doneFn,
	}
	c.disks[rn.disk].Submit(&dr.req)
}

// complete judges the finished pass: a drive that died while the access
// was queued (it was dropped), a transient error (retry with backoff,
// then redundancy), a latent sector error (retry, then redundancy), or
// good data.
func (dr *devRead) complete() {
	c, rn, pri, tries, att, op, onDone := dr.c, dr.rn, dr.pri, dr.tries, dr.att, dr.op, dr.onDone
	dr.rn, dr.op, dr.onDone = run{}, nil, nil
	dr.give()
	c.ops.devs.push(dr)

	// The drive may have died while this access was queued (it was
	// dropped) — the "data" cannot be trusted either way.
	if c.fs.nfailed > 0 && c.fs.failed[rn.disk] {
		c.fallbackRead(rn, pri, op, onDone)
		return
	}
	if c.fs.inj != nil && c.fs.inj.TransientFaulty(rn.disk, rn.blocks) {
		c.fs.transientErrors++
		if att < c.rb.cfg.Retries {
			c.rb.retries++
			c.cfg.Rec.Retry(c.eng.Now(), rn.disk, att+1)
			issuedAt := c.eng.Now()
			c.eng.After(c.retryDelay(att), func() {
				if now := c.eng.Now(); now > issuedAt {
					op.ChildSpan("retry-backoff", issuedAt, now)
				}
				c.mediaRead(rn, pri, tries, att+1, op, onDone)
			})
			return
		}
		// Budget spent (or no retries configured): recover the run
		// from redundancy instead of hammering the sick drive.
		if c.rb.cfg.Retries > 0 {
			c.rb.retriesExhausted++
			c.rb.attemptsExhausted += int64(c.rb.cfg.Retries)
		}
		c.fallbackRead(rn, pri, op, onDone)
		return
	}
	if c.fs.inj == nil || !c.fs.inj.SectorFaulty(rn.blocks) {
		onDone()
		return
	}
	c.fs.sectorErrors++
	if tries < c.fs.inj.MaxReadRetries() {
		c.fs.sectorRetries++
		c.mediaRead(rn, pri, tries+1, att, op, onDone)
		return
	}
	c.fs.sectorReconstructs++
	c.fallbackRead(rn, pri, op, onDone)
}
