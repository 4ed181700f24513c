package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call across a layer boundary. Spans of one request
// share Trace; Parent is the span that caused this one (0 for a root).
type span struct {
	Trace  string         `json:"trace"`
	ID     int64          `json:"id"`
	Parent int64          `json:"parent,omitempty"`
	Name   string         `json:"name"`
	Start  int64          `json:"start_ns"`
	End    int64          `json:"end_ns"`
	Attrs  map[string]any `json:"attrs,omitempty"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how the untraced runs call the same code.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// openSpan is a span whose end is not yet known; its ID is, so children can
// name it as their parent.
type openSpan struct {
	t *tracer
	s span
}

func (t *tracer) open(trace string, parent int64, name string) *openSpan {
	if t == nil {
		return nil
	}
	return &openSpan{t: t, s: span{Trace: trace, ID: t.ids.Add(1), Parent: parent, Name: name, Start: int64(time.Since(t.epoch))}}
}

func (o *openSpan) id() int64 {
	if o == nil {
		return 0
	}
	return o.s.ID
}

func (o *openSpan) close() {
	if o == nil {
		return
	}
	o.s.End = int64(time.Since(o.t.epoch))
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.s)
	o.t.mu.Unlock()
}

// durations returns the durations of every span with the given name, in
// the unit u.
func (t *tracer) durations(name string, u time.Duration) []float64 {
	var out []float64
	for i := range t.spans {
		if t.spans[i].Name == name {
			out = append(out, float64(t.spans[i].dur())/float64(u))
		}
	}
	return out
}

// attachAll sets the attributes of the spans named by ID.
func (t *tracer) attachAll(attrs map[int64]map[string]any) {
	for i := range t.spans {
		if a, ok := attrs[t.spans[i].ID]; ok {
			t.spans[i].Attrs = a
		}
	}
}

// write stores the run record, every span and the per-layer result as JSON
// lines.
func (t *tracer) write(path string, head, tail any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(head); err != nil {
		f.Close()
		return err
	}
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := enc.Encode(tail); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
