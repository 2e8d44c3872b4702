package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one request share
// req; parent is the id of the span that caused this one (0 for a root).
type span struct {
	name       string
	start, end time.Time
	id, parent int
	req        int
	// group and lane place the span in the viewer: one row per lane, lanes
	// grouped by where the span was taken (HTTP, direct pipeline, layers).
	group, lane int
}

// Viewer groups.
const (
	groupHTTP = iota + 1
	groupPipeline
	groupLayers
)

// tracer keeps spans in memory until the workload ends. All spans are taken
// by the benchmark's own code around calls into each layer; the program under
// test is not instrumented.
type tracer struct {
	mu    sync.Mutex
	spans []span
	reqs  int
}

// add records a span and returns its id.
func (t *tracer) add(s span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	s.id = len(t.spans) + 1
	t.spans = append(t.spans, s)
	return s.id
}

func (t *tracer) nextReq() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.reqs++
	return t.reqs
}

// request records one HTTP request: client.request, and under it
// serve.gateway followed by runtime.task. Only the split is measured (the
// gateway reports the pipeline's share in X-Pico-Latency); where the pipeline
// interval sits inside the request is derived by putting all gateway time
// first, which is where the batch-window wait is.
func (t *tracer) request(lane int, start, end time.Time, inPipeline time.Duration) {
	req := t.nextReq()
	root := t.add(span{name: "client.request", start: start, end: end, req: req, group: groupHTTP, lane: lane})
	split := end.Add(-inPipeline)
	if split.Before(start) {
		split = start
	}
	t.add(span{name: "serve.gateway", start: start, end: split, parent: root, req: req, group: groupHTTP, lane: lane})
	t.add(span{name: "runtime.task", start: split, end: end, parent: root, req: req, group: groupHTTP, lane: lane})
}

// begin opens a span on the layers group; finish closes it. Spans added in
// between with the returned id as parent nest inside it.
func (t *tracer) begin(name string, parent int) int {
	return t.add(span{name: name, start: time.Now(), parent: parent, group: groupLayers})
}

func (t *tracer) finish(id int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].end = time.Now()
}

// timed runs f inside a span on the layers group.
func (t *tracer) timed(name string, parent int, f func()) {
	id := t.begin(name, parent)
	f()
	t.finish(id)
}

// chromeEvent is one complete ("X") event of the Chrome trace format, which
// chrome://tracing and ui.perfetto.dev load.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

// write dumps the spans as Chrome-trace JSON, timestamps relative to the
// earliest span.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) == 0 {
		return fmt.Errorf("trace: no spans recorded")
	}
	origin := t.spans[0].start
	for _, s := range t.spans {
		if s.start.Before(origin) {
			origin = s.start
		}
	}
	events := make([]chromeEvent, 0, len(t.spans))
	for _, s := range t.spans {
		events = append(events, chromeEvent{
			Name: s.name, Cat: "pico", Ph: "X",
			Ts:  float64(s.start.Sub(origin)) / float64(time.Microsecond),
			Dur: float64(s.end.Sub(s.start)) / float64(time.Microsecond),
			Pid: s.group, Tid: s.lane,
			Args: map[string]int{"id": s.id, "parent": s.parent, "req": s.req},
		})
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
