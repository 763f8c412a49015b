package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// maxSpans bounds the spans one traced run keeps: a request/echo run
// makes millions of calls, and the first rounds show the call structure
// as well as all of them do. Spans past the cap are counted, not kept.
const maxSpans = 100_000

// span is one call the harness made into a layer.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0 = none
	Name     string `json:"name"`
	Workload string `json:"workload"`
	StartNs  int64  `json:"start_ns"` // since the tracer's epoch
	EndNs    int64  `json:"end_ns"`
}

// tracer records spans in memory. A nil *tracer records nothing, which
// is how the untimed and end-to-end rounds run.
type tracer struct {
	workload string
	epoch    time.Time

	nextID atomic.Int64

	mu      sync.Mutex
	spans   []span
	dropped int
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, epoch: time.Now()}
}

// open is a started span; end closes it.
type open struct {
	t      *tracer
	id     int
	parent int
	name   string
	start  time.Time
}

// begin starts a span under parent (the zero open for a root).
func (t *tracer) begin(name string, parent open) open {
	if t == nil {
		return open{}
	}
	return open{t: t, id: int(t.nextID.Add(1)), parent: parent.id, name: name, start: time.Now()}
}

// end closes the span and returns how long it was open (0 untraced).
func (o open) end() time.Duration {
	if o.t == nil {
		return 0
	}
	now := time.Now()
	t := o.t
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, span{
			ID: o.id, Parent: o.parent, Name: o.name, Workload: t.workload,
			StartNs: o.start.Sub(t.epoch).Nanoseconds(), EndNs: now.Sub(t.epoch).Nanoseconds(),
		})
	} else {
		t.dropped++
	}
	t.mu.Unlock()
	return now.Sub(o.start)
}

// write stores the trace as dir/trace-<workload>.json.
func (t *tracer) write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	doc := struct {
		Workload string `json:"workload"`
		Dropped  int    `json:"spans_dropped"`
		Spans    []span `json:"spans"`
	}{t.workload, t.dropped, t.spans}
	b, err := json.Marshal(doc)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+t.workload+".json"), b, 0o644)
}
