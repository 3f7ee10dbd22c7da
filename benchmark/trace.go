package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call (the program under test carries no spans of its own yet).
// Spans of one program or request share Op; Parent is the index of the
// span that caused this one, -1 at the top.
type span struct {
	Name   string
	Op     string
	Parent int
	Start  time.Duration // since the tracer started
	End    time.Duration
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how every timed region of an untraced run calls it.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name, op string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: now, End: now})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// writeChrome writes the spans as Chrome trace-event JSON (load it in
// chrome://tracing or Perfetto). Each operation gets its own track so
// nested spans stack the way they were called.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`  // µs
		Dur  float64        `json:"dur"` // µs
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	t.mu.Lock()
	tracks := map[string]int{}
	events := make([]event, 0, len(t.spans))
	for i, s := range t.spans {
		tid, ok := tracks[s.Op]
		if !ok {
			tid = len(tracks) + 1
			tracks[s.Op] = tid
		}
		events = append(events, event{
			Name: s.Name, Ph: "X", PID: 1, TID: tid,
			TS:   float64(s.Start.Nanoseconds()) / 1e3,
			Dur:  float64((s.End - s.Start).Nanoseconds()) / 1e3,
			Args: map[string]any{"op": s.Op, "span": i, "parent": s.Parent},
		})
	}
	t.mu.Unlock()
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
