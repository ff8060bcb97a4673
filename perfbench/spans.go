package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
	"time"
)

// span is one timed call the harness made into a layer (or, for runs,
// one run the pool executed). Start and End are offsets from the
// recorder's epoch. Spans stay in memory until the benchmark ends.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // 0 for a root
	Name   string        `json:"name"`
	Detail string        `json:"detail,omitempty"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

type spanRecorder struct {
	epoch time.Time
	spans []span
}

func newSpanRecorder() *spanRecorder { return &spanRecorder{epoch: time.Now()} }

func (r *spanRecorder) now() time.Duration { return time.Since(r.epoch) }

// add records a finished span and returns its ID.
func (r *spanRecorder) add(name, detail string, parent int, start, end time.Duration) int {
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Detail: detail, Start: start, End: end})
	return id
}

// begin opens a span; end closes it.
func (r *spanRecorder) begin(name, detail string, parent int) int {
	t := r.now()
	return r.add(name, detail, parent, t, t)
}

func (r *spanRecorder) end(id int) { r.spans[id-1].End = r.now() }

// selfTime is a span's duration minus the part of its interval that its
// children cover. Children may overlap one another (runs on a wider
// pool) or stick out of the parent; only the union of their intervals,
// clipped to the parent, is subtracted.
func selfTime(parent span, children []span) time.Duration {
	type iv struct{ lo, hi time.Duration }
	var ivs []iv
	for _, c := range children {
		lo, hi := c.Start, c.End
		if lo < parent.Start {
			lo = parent.Start
		}
		if hi > parent.End {
			hi = parent.End
		}
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var covered time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.lo <= cur.hi:
			if v.hi > cur.hi {
				cur.hi = v.hi
			}
		default:
			covered += cur.hi - cur.lo
			cur = v
		}
	}
	if len(ivs) > 0 {
		covered += cur.hi - cur.lo
	}
	return parent.dur() - covered
}

// writeJSON writes every span to path.
func (r *spanRecorder) writeJSON(path string) error {
	raw, err := json.MarshalIndent(r.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// writeTable prints count, total and self time per span name.
func (r *spanRecorder) writeTable(w io.Writer) {
	type agg struct {
		n           int
		total, self time.Duration
	}
	kids := map[int][]span{}
	for _, s := range r.spans {
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	by := map[string]*agg{}
	var names []string
	for _, s := range r.spans {
		a, ok := by[s.Name]
		if !ok {
			a = &agg{}
			by[s.Name] = a
			names = append(names, s.Name)
		}
		a.n++
		a.total += s.dur()
		a.self += selfTime(s, kids[s.ID])
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "span\tcount\ttotal_ms\tself_ms")
	for _, n := range names {
		a := by[n]
		fmt.Fprintf(tw, "%s\t%d\t%.3f\t%.3f\n", n, a.n, ms(a.total), ms(a.self))
	}
	tw.Flush()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
