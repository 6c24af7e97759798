package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed interval of a traced run: a call into a layer, recorded
// from outside the library, and the span that caused it.
type span struct {
	name       string
	start, end time.Duration // since the tracer started
	parent     int           // index of the parent span, -1 for the root
}

// tracer keeps a traced run's spans in memory; write puts them on disk when
// the run ends. One workload is traced by one goroutine.
type tracer struct {
	workload string
	t0       time.Time
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now()}
}

// begin opens a span under parent and returns its id.
func (t *tracer) begin(name string, parent int) int {
	t.spans = append(t.spans, span{name: name, start: time.Since(t.t0), parent: parent})
	return len(t.spans) - 1
}

// finish closes a span and returns its duration.
func (t *tracer) finish(id int) time.Duration {
	s := &t.spans[id]
	s.end = time.Since(t.t0)
	return s.end - s.start
}

// time records fn as a span under parent and returns its duration.
func (t *tracer) time(name string, parent int, fn func()) time.Duration {
	id := t.begin(name, parent)
	fn()
	return t.finish(id)
}

// add records a span whose duration was measured by the library itself (a
// pipeline stage's wall time), laid out from offset inside its parent.
func (t *tracer) add(name string, parent int, offset, dur time.Duration) {
	start := t.spans[parent].start + offset
	t.spans = append(t.spans, span{name: name, start: start, end: start + dur, parent: parent})
}

// traceEvent is one complete ("X") event of the Chrome trace-event format.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

type traceFile struct {
	TraceEvents []traceEvent `json:"traceEvents"`
}

// write stores the spans as Chrome trace events; chrome://tracing and
// Perfetto nest them by time, and args carries the explicit parent link and
// the workload every span of the run shares.
func (t *tracer) write(path string) error {
	tf := traceFile{TraceEvents: make([]traceEvent, len(t.spans))}
	for i, s := range t.spans {
		tf.TraceEvents[i] = traceEvent{
			Name: s.name, Ph: "X", Pid: 1, Tid: 1,
			Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			Args: map[string]any{"id": i, "parent": s.parent, "workload": t.workload},
		}
	}
	b, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// mergeTraces joins the per-workload trace files of a full set into one,
// giving each workload its own process row.
func mergeTraces(paths []string, out string) error {
	var all traceFile
	for pid, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		var tf traceFile
		if err := json.Unmarshal(b, &tf); err != nil {
			return err
		}
		for _, e := range tf.TraceEvents {
			e.Pid = pid + 1
			all.TraceEvents = append(all.TraceEvents, e)
		}
		os.Remove(p)
	}
	b, err := json.Marshal(all)
	if err != nil {
		return err
	}
	return os.WriteFile(out, b, 0o644)
}
