package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
)

// tracer keeps the spans of a traced run in memory and writes them out
// once the run ends. Spans wrap the benchmark's own calls into the
// layers; nothing inside the program is instrumented. Every method is a
// no-op on a nil *tracer, which is how an untraced run pays nothing.
type tracer struct {
	clock func() int64 // monotonic ns, injected like every clock model code sees

	mu     sync.Mutex
	nextID int64
	spans  []span
}

// span is one finished span. Trace groups the spans of one window, one
// experiment or one job; Lane is the worker or client that ran it (the
// Chrome "tid", so parallel work shows side by side).
type span struct {
	ID, Parent int64
	Name       string
	Trace      string
	Lane       int
	Start, End int64 // ns on the tracer's clock
}

// spanRef is an open span, returned by begin and closed by end.
type spanRef struct {
	id     int64
	parent int64
	name   string
	trace  string
	lane   int
	start  int64
}

func newTracer(clock func() int64) *tracer { return &tracer{clock: clock} }

// begin opens a span. parent is the enclosing span's ID (0 for a root).
func (t *tracer) begin(name, trace string, parent int64, lane int) spanRef {
	if t == nil {
		return spanRef{}
	}
	t.mu.Lock()
	t.nextID++
	id := t.nextID
	t.mu.Unlock()
	return spanRef{id: id, parent: parent, name: name, trace: trace, lane: lane, start: t.clock()}
}

// end closes a span opened by begin.
func (t *tracer) end(r spanRef) {
	if t == nil {
		return
	}
	s := span{ID: r.id, Parent: r.parent, Name: r.name, Trace: r.trace, Lane: r.lane, Start: r.start, End: t.clock()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns the finished spans ordered by start time, then ID.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// chromeEvent is one complete ("X") event of the Chrome trace-event
// format, which chrome://tracing and Perfetto open directly.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`  // µs
	Dur  float64        `json:"dur"` // µs
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChrome writes the spans as a Chrome trace-event JSON file.
func (t *tracer) writeChrome(path string) error {
	spans := t.snapshot()
	events := make([]chromeEvent, 0, len(spans))
	for _, s := range spans {
		events = append(events, chromeEvent{
			Name: s.Name,
			Cat:  strings.SplitN(s.Name, ".", 2)[0],
			Ph:   "X",
			TS:   float64(s.Start) / 1e3,
			Dur:  float64(s.End-s.Start) / 1e3,
			PID:  1,
			TID:  s.Lane,
			Args: map[string]any{"trace_id": s.Trace, "span_id": s.ID, "parent": s.Parent},
		})
	}
	data, err := json.Marshal(struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{events, "ms"})
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}

// spanSummary is the total and self time of every span of one name.
type spanSummary struct {
	Name    string
	Count   int
	TotalNs int64
	SelfNs  int64
}

// summarize folds the spans by name: total duration and self time (a
// span's duration minus the union of its children's intervals), sorted
// by self time, largest first.
func summarize(spans []span) []spanSummary {
	children := map[int64][]interval{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
		}
	}
	byName := map[string]*spanSummary{}
	var names []string
	for _, s := range spans {
		sum := byName[s.Name]
		if sum == nil {
			sum = &spanSummary{Name: s.Name}
			byName[s.Name] = sum
			names = append(names, s.Name)
		}
		sum.Count++
		sum.TotalNs += s.End - s.Start
		sum.SelfNs += selfTime(interval{s.Start, s.End}, children[s.ID])
	}
	out := make([]spanSummary, 0, len(names))
	for _, n := range names {
		out = append(out, *byName[n])
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].SelfNs != out[j].SelfNs {
			return out[i].SelfNs > out[j].SelfNs
		}
		return out[i].Name < out[j].Name
	})
	return out
}
