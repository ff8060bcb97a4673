package core

import (
	"context"
	"fmt"

	"raidsim/internal/array"
	"raidsim/internal/sim"
	"raidsim/internal/trace"
)

// ClosedLoopConfig parameterizes a closed-loop replay: the trace supplies
// the request *stream* but not its timing — each array keeps MPL requests
// outstanding, submitting the next record (after ThinkTime) whenever one
// completes. The paper notes that simply speeding a trace up "does not
// reflect the characteristics of any real system since transactions may
// have to wait for one I/O to finish before issuing another one";
// closed-loop replay is the complementary load model where that
// dependency is explicit, and throughput becomes the measured output.
type ClosedLoopConfig struct {
	MPL       int      // outstanding requests per array (multiprogramming level)
	ThinkTime sim.Time // delay between a completion and the next submission
}

// ClosedLoopResults extends Results with throughput.
type ClosedLoopResults struct {
	Results
	Makespan sim.Time // longest array's completion time
}

// Throughput returns completed requests per second of simulated time.
func (r *ClosedLoopResults) Throughput() float64 {
	if r.Makespan <= 0 {
		return 0
	}
	return float64(r.Requests) / (float64(r.Makespan) / float64(sim.Second))
}

// RunClosedLoop replays tr's request stream in closed-loop form against
// cfg. Arrival timestamps in the trace are ignored.
func RunClosedLoop(cfg Config, tr *trace.Trace, cl ClosedLoopConfig) (*ClosedLoopResults, error) {
	if cl.MPL < 1 {
		return nil, fmt.Errorf("core: MPL must be >= 1")
	}
	res, ends, err := runArrays(context.Background(), cfg, tr, cl.replay)
	if err != nil {
		return nil, err
	}
	out := &ClosedLoopResults{Results: *res}
	for _, t := range ends {
		out.Makespan = max(out.Makespan, t)
	}
	return out, nil
}

// mplFeeder is the closed-loop admission source for one array: it keeps
// up to MPL requests outstanding by submitting the next record
// ThinkTime after each completion. Completions arrive through onDone,
// bound once, and the think delay is a Call-form event, so the loop
// allocates nothing per request beyond what the array itself does.
type mplFeeder struct {
	eng    *sim.Engine
	ctrl   array.Controller
	sub    *trace.Trace
	cap64  int64
	think  sim.Time
	next   int      // index of the next record to submit
	last   sim.Time // clock of the latest submission
	onDone func()
}

// submit admits the next record, if any remain.
func (f *mplFeeder) submit() {
	if f.next >= len(f.sub.Records) {
		return
	}
	req := recordRequest(f.sub, f.next, f.cap64)
	req.OnComplete = f.onDone
	f.next++
	f.last = f.eng.Now()
	f.ctrl.Submit(req)
}

// complete funds the next submission, after the think time if any.
func (f *mplFeeder) complete() {
	if f.think > 0 {
		f.eng.AfterCall(f.think, mplThink).A = f
	} else {
		f.submit()
	}
}

func mplThink(_ *sim.Engine, c *sim.Call) { c.A.(*mplFeeder).submit() }

// done reports the stream exhausted and the controller drained.
func (f *mplFeeder) done() bool { return f.next >= len(f.sub.Records) && f.ctrl.Drained() }

// replay is the closed-loop replayFunc: it submits the first MPL records
// at time zero and steps the engine until done() first holds, which is
// the array's makespan. Closed loops always make progress — every
// completion funds the next submission — so an empty event heap, or
// drainGrace without a submission, means the controller is wedged.
func (cl ClosedLoopConfig) replay(eng *sim.Engine, ctrl array.Controller, sub *trace.Trace) error {
	f := &mplFeeder{eng: eng, ctrl: ctrl, sub: sub, cap64: ctrl.DataBlocks(), think: cl.ThinkTime}
	f.onDone = f.complete
	for i := 0; i < cl.MPL; i++ {
		f.submit()
	}
	for !f.done() {
		if !eng.Step() || eng.Now() > f.last+drainGrace {
			return fmt.Errorf("core: closed-loop replay of %q wedged at record %d", sub.Name, f.next)
		}
	}
	return nil
}
