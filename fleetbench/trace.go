package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call, recorded by the benchmark around a call into
// one of the program's packages (or around one of its own phases). Req
// groups the spans of one request: an upload span and the protocol.send
// and protocol.recv spans inside it share the upload span's id.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// layer is the part of a span name before the first dot: the package
// (or "bench", the benchmark's own code) the span's self time belongs to.
func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

// tracer collects spans in memory. Each goroutine records into its own
// lane; lanes hand their spans to the tracer when they close, and the
// tracer writes everything out once, when the run ends.
type tracer struct {
	epoch time.Time
	ids   atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// lane is one goroutine's span buffer. A nil lane records nothing, so
// untraced code paths call the same methods at the cost of a nil check.
type lane struct {
	t     *tracer
	spans []span
}

// lane opens a span buffer for one goroutine; nil when t is nil.
func (t *tracer) lane() *lane {
	if t == nil {
		return nil
	}
	return &lane{t: t}
}

// begin opens a span and returns its handle. req 0 makes the span the
// root of its own request.
func (l *lane) begin(name string, parent, req uint64) int {
	if l == nil {
		return -1
	}
	id := l.t.ids.Add(1)
	if req == 0 {
		req = id
	}
	l.spans = append(l.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: int64(time.Since(l.t.epoch))})
	return len(l.spans) - 1
}

// end closes the span behind handle h.
func (l *lane) end(h int) {
	if l == nil {
		return
	}
	l.spans[h].End = int64(time.Since(l.t.epoch))
}

// id returns the span id behind handle h (0 on a nil lane), for use as a
// child's parent or request id.
func (l *lane) id(h int) uint64 {
	if l == nil {
		return 0
	}
	return l.spans[h].ID
}

// close hands the lane's spans to the tracer.
func (l *lane) close() {
	if l == nil {
		return
	}
	l.t.mu.Lock()
	l.t.spans = append(l.t.spans, l.spans...)
	l.t.mu.Unlock()
	l.spans = nil
}

// all returns every span handed in so far, ordered by start time.
func (t *tracer) all() []span {
	t.mu.Lock()
	out := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// write stores spans as JSON lines, one span per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's self time in nanoseconds, indexed like
// spans: its duration minus the part of its interval that its children
// cover. Children that overlap each other (concurrent sessions under
// one phase span) are counted once, and any part of a child outside its
// parent's interval is ignored.
func selfTimes(spans []span) []int64 {
	type interval struct{ lo, hi int64 }
	kids := make(map[uint64][]interval)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], interval{s.Start, s.End})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		ivs := kids[s.ID]
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		var covered int64
		cur := s.Start // end of the covered prefix so far
		for _, iv := range ivs {
			lo, hi := max(iv.lo, cur), min(iv.hi, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		self[i] = (s.End - s.Start) - covered
	}
	return self
}

// layerSelfMs sums span self times by layer, in milliseconds.
func layerSelfMs(spans []span) map[string]float64 {
	self := selfTimes(spans)
	out := make(map[string]float64)
	for i, s := range spans {
		out[s.layer()] += float64(self[i]) / 1e6
	}
	return out
}

// durationsUs returns the durations of the spans named name, in
// microseconds.
func durationsUs(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	return out
}
