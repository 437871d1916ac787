package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// code around a public function. Spans of one op share Op; Parent is the
// span that caused this one (0 at the root of an op).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced passes run the same code with tracing off.
type tracer struct {
	mu     sync.Mutex
	t0     time.Time
	spans  []span
	nextOp int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newOp returns a fresh op identifier.
func (t *tracer) newOp() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextOp++
	return t.nextOp
}

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent, op int64) int64 {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: int64(len(t.spans)) + 1, Parent: parent, Op: op, Name: name, Start: now})
	return int64(len(t.spans))
}

// end closes the span begin returned.
func (t *tracer) end(id int64) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// layerTimes is the per-name total duration and self time of the recorded
// spans, in seconds, plus how many spans of each name there were.
type layerTimes struct {
	total, self map[string]float64
	count       map[string]int
}

// times derives self times: a span's duration minus the part of its
// interval covered by its children (children that run concurrently are
// merged first, so overlap is not subtracted twice).
func (t *tracer) times() layerTimes {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := make(map[int64][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	lt := layerTimes{total: map[string]float64{}, self: map[string]float64{}, count: map[string]int{}}
	for _, s := range t.spans {
		d := s.End - s.Start
		lt.total[s.Name] += float64(d) / 1e9
		lt.self[s.Name] += float64(d-covered(kids[s.ID])) / 1e9
		lt.count[s.Name]++
	}
	return lt
}

// covered is the length of the union of the spans' intervals.
func covered(ss []span) int64 {
	if len(ss) == 0 {
		return 0
	}
	sort.Slice(ss, func(i, j int) bool { return ss[i].Start < ss[j].Start })
	var sum int64
	lo, hi := ss[0].Start, ss[0].End
	for _, s := range ss[1:] {
		if s.Start > hi {
			sum += hi - lo
			lo, hi = s.Start, s.End
		} else if s.End > hi {
			hi = s.End
		}
	}
	return sum + hi - lo
}

// write dumps every span as JSON to dir/name.
func (t *tracer) write(dir, name string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), data, 0o644)
}
