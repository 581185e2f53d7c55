package main

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Parent is the
// 1-based index of the enclosing span (0 for a root); Job is the plan
// index of the job it served (-1 for set-up and probes); Lane groups
// the spans of one client or server worker in the viewer.
type span struct {
	Name   string
	Start  time.Duration
	End    time.Duration
	Parent int
	Job    int
	Lane   int
}

// tracer keeps spans in memory. A nil *tracer records nothing and reads
// no clock, which is how the untraced runs use it.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its ID for end and for children.
func (t *tracer) begin(name string, parent, job, lane int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, Parent: parent, Job: job, Lane: lane})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// record adds an already-timed span.
func (t *tracer) record(name string, start time.Time, d time.Duration, parent, job, lane int) {
	if t == nil {
		return
	}
	s := span{Name: name, Start: start.Sub(t.origin), Parent: parent, Job: job, Lane: lane}
	s.End = s.Start + d
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// durations returns every span's duration in milliseconds, by name.
func (t *tracer) durations() map[string][]float64 {
	out := map[string][]float64{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		out[s.Name] = append(out[s.Name], (s.End-s.Start).Seconds()*1e3)
	}
	return out
}

// writeChrome renders the spans in Chrome trace-event JSON, the format
// of the program's own timeline.json: complete ("X") events in
// microseconds, the provenance under otherData.
func (t *tracer) writeChrome(w io.Writer, prov provenance) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	doc := struct {
		TraceEvents     []event    `json:"traceEvents"`
		DisplayTimeUnit string     `json:"displayTimeUnit"`
		OtherData       provenance `json:"otherData"`
	}{TraceEvents: []event{}, DisplayTimeUnit: "ns", OtherData: prov}
	t.mu.Lock()
	for i, s := range t.spans {
		doc.TraceEvents = append(doc.TraceEvents, event{
			Name: s.Name, Ph: "X",
			Ts:  float64(s.Start.Nanoseconds()) / 1e3,
			Dur: float64((s.End - s.Start).Nanoseconds()) / 1e3,
			Pid: 1, Tid: s.Lane,
			Args: map[string]int{"id": i + 1, "parent": s.Parent, "job": s.Job},
		})
	}
	t.mu.Unlock()
	enc := json.NewEncoder(w)
	return enc.Encode(&doc)
}
