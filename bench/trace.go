package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// harnessLayer is the layer of the root span of every traced op: time
// the benchmark itself spends between layer calls.
const harnessLayer = "bench"

// span is one timed call into a layer. Spans of one op share Op, the
// id of the op's root span.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for an op's root span
	Op     int    `json:"op"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was made
	End    int64  `json:"end_ns"`

	tr     *tracer
	parent *span
}

// tracer keeps the spans of a traced run in memory until the run ends.
// A nil *tracer records nothing, so untraced code paths share the
// traced ones' call sites.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []*span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span under parent (nil starts a new op).
func (t *tracer) start(parent *span, layer, name string) *span {
	if t == nil {
		return nil
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	s := &span{ID: len(t.spans) + 1, Layer: layer, Name: name, Start: now, tr: t}
	if parent != nil {
		s.Parent, s.Op, s.parent = parent.ID, parent.Op, parent
	} else {
		s.Op = s.ID
	}
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s
}

// end closes the span. Nil-safe. A span on another goroutine than its
// parent (a request handler under a client call) can be descheduled
// between its last instruction and this call; it is clipped to its
// parent's end, so that spans always nest.
func (s *span) end() {
	if s == nil {
		return
	}
	now := int64(time.Since(s.tr.t0))
	s.tr.mu.Lock()
	if p := s.parent; p != nil && p.End != 0 && now > p.End {
		now = p.End
	}
	s.End = now
	s.tr.mu.Unlock()
}

// byID returns the span with the given id, for the HTTP middleware that
// receives its parent as a header.
func (t *tracer) byID(id int) *span {
	t.mu.Lock()
	defer t.mu.Unlock()
	if id < 1 || id > len(t.spans) {
		return nil
	}
	return t.spans[id-1]
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its child spans cover.
func (t *tracer) selfTimes() map[int]int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]*span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(t.spans))
	for _, s := range t.spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// layerShares sums self time by layer and returns the sums with the
// total duration of the ops' root spans.
func (t *tracer) layerShares() (byLayer map[string]int64, opWall int64) {
	self := t.selfTimes()
	byLayer = map[string]int64{}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		byLayer[s.Layer] += self[s.ID]
		if s.Parent == 0 {
			opWall += s.End - s.Start
		}
	}
	return byLayer, opWall
}

// durations returns the durations in ms of the spans with the given
// layer and name.
func (t *tracer) durations(layer, name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Layer == layer && s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// selfOf returns the self times in ms of the spans in the given layer.
func (t *tracer) selfOf(layer string) []float64 {
	self := t.selfTimes()
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Layer == layer {
			out = append(out, float64(self[s.ID])/1e6)
		}
	}
	return out
}

// write stores every span as JSON at path.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = json.NewEncoder(f).Encode(t.spans)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
