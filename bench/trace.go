package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call across a layer boundary.  Spans of one op share
// its op id; set-up spans carry op 0.  Parent 0 marks a root span.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends.  A nil *tracer is
// tracing switched off: every method is a no-op that records nothing.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span // guarded by mu; spans[i].ID == i+1
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span now and returns its id (0 when tracing is off).
func (t *tracer) begin(name string, op, parent int) int {
	return t.beginAt(name, op, parent, time.Now())
}

// beginAt opens a span that started at the given time, e.g. a request's
// due time.
func (t *tracer) beginAt(name string, op, parent int, at time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: int64(at.Sub(t.epoch))})
	return id
}

// end closes span id now.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// snapshot returns the recorded spans (nil when tracing is off).
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeSpans writes the spans to a file as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// selfTimes sums, per span name, each span's duration minus the part of
// its interval that its children cover (children may overlap each other).
// It also returns how many spans carry each name.
func selfTimes(spans []span) (self map[string]time.Duration, count map[string]int) {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self, count = map[string]time.Duration{}, map[string]int{}
	for _, s := range spans {
		self[s.Name] += time.Duration(s.End - s.Start - covered(s, children[s.ID]))
		count[s.Name]++
	}
	return self, count
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	curS, curE := int64(0), int64(-1)
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e <= s {
			continue
		}
		if s > curE {
			if curE > curS {
				total += curE - curS
			}
			curS, curE = s, e
		} else if e > curE {
			curE = e
		}
	}
	if curE > curS {
		total += curE - curS
	}
	return total
}

// spanCost measures what recording one span costs, to estimate the
// tracing overhead of a traced run.
func spanCost() time.Duration {
	const n = 20000
	t := newTracer()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		t.end(t.begin("calibrate", 0, 0))
	}
	return time.Since(t0) / n
}
