package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed interval of the traced pass. Parent is the ID of the
// span that caused it (0 = none); spans of one operation share Op.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Op     int           `json:"op"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// recorder keeps spans in memory; they are written out once, when the pass
// ends. It is used from one goroutine: the benchmark times calls into the
// layers from outside, one at a time.
type recorder struct {
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its ID.
func (r *recorder) begin(name string, parent, op int) int {
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Op: op, Name: name, Start: time.Since(r.epoch)})
	return len(r.spans)
}

// end closes span id and returns its duration.
func (r *recorder) end(id int) time.Duration {
	s := &r.spans[id-1]
	s.End = time.Since(r.epoch)
	return s.End - s.Start
}

// child records an interval the callee reported (a Report stage wall, a
// server-side wall) as a closed child of parent, starting at offset from the
// parent's start. The interval is clipped to the parent.
func (r *recorder) child(name string, parent int, offset, dur time.Duration) int {
	p := r.spans[parent-1]
	start := p.Start + offset
	end := start + dur
	if end > p.End {
		end = p.End
	}
	if start > end {
		start = end
	}
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Op: p.Op, Name: name, Start: start, End: end})
	return len(r.spans)
}

// timed runs f inside a span.
func (r *recorder) timed(name string, parent, op int, f func() error) (time.Duration, error) {
	id := r.begin(name, parent, op)
	err := f()
	return r.end(id), err
}

// selfTimes returns, per span ID, the span's duration minus the part of it
// that its direct children cover (overlapping children are not counted
// twice).
func selfTimes(spans []span) map[int]time.Duration {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		ks := kids[s.ID]
		sort.Slice(ks, func(i, j int) bool { return ks[i].Start < ks[j].Start })
		covered, edge := time.Duration(0), s.Start
		for _, k := range ks {
			lo, hi := k.Start, k.End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// chromeEvent is one complete ("X") event of the Chrome trace-event format,
// loadable in Perfetto or chrome://tracing. Times are microseconds.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeEvents renders spans as one process (pid, named by a metadata event)
// with a single track; nesting shows the parent/child structure.
func chromeEvents(process string, pid int, spans []span) []chromeEvent {
	self := selfTimes(spans)
	evs := []chromeEvent{{Name: "process_name", Ph: "M", Pid: pid, Args: map[string]any{"name": process}}}
	for _, s := range spans {
		evs = append(evs, chromeEvent{
			Name: s.Name, Ph: "X", Pid: pid, Tid: 1,
			Ts:  float64(s.Start) / 1e3,
			Dur: float64(s.End-s.Start) / 1e3,
			Args: map[string]any{
				"id": s.ID, "parent": s.Parent, "op": s.Op,
				"self_us": float64(self[s.ID]) / 1e3,
			},
		})
	}
	return evs
}

func writeChromeTrace(path string, evs []chromeEvent) error {
	buf, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}
