package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// code around a public function of internal/….
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index into the tracer's spans, -1 for a root
	Item   int    `json:"item"`   // item index within the pass, -1 during set-up
	Pass   int    `json:"pass"`   // measured pass, or -1-rep for set-up repetition rep
}

// tracer keeps spans and counters in memory for the traced run. A nil
// *tracer is the untraced run: every method is a no-op, so workload code
// calls it unconditionally.
type tracer struct {
	t0     time.Time
	spans  []span
	open   []int // stack of open span indices
	pass   int
	item   int
	counts map[string]map[int]float64 // counter name -> pass -> value
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), item: -1, counts: make(map[string]map[int]float64)}
}

// at selects the pass and item that subsequent spans and counts belong to.
func (t *tracer) at(pass, item int) {
	if t == nil {
		return
	}
	t.pass, t.item = pass, item
}

// begin opens a span nested under the innermost open span and returns a
// handle for end.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Item: t.item, Pass: t.pass})
	t.open = append(t.open, len(t.spans)-1)
	return len(t.spans) - 1
}

// end closes the span begin returned; spans close in LIFO order.
func (t *tracer) end(h int) {
	if t == nil {
		return
	}
	if n := len(t.open); n == 0 || t.open[n-1] != h {
		panic(fmt.Sprintf("perfbench: span %d closed out of order", h))
	}
	t.open = t.open[:len(t.open)-1]
	t.spans[h].End = int64(time.Since(t.t0))
}

// rename sets the name of an open span, for calls whose layer is known
// only once they return.
func (t *tracer) rename(h int, name string) {
	if t == nil {
		return
	}
	t.spans[h].Name = name
}

// count adds v to a counter of the current pass.
func (t *tracer) count(name string, v float64) {
	if t == nil {
		return
	}
	m := t.counts[name]
	if m == nil {
		m = make(map[int]float64)
		t.counts[name] = m
	}
	m[t.pass] += v
}

// maxCount raises a counter of the current pass to at least v.
func (t *tracer) maxCount(name string, v float64) {
	if t == nil {
		return
	}
	m := t.counts[name]
	if m == nil {
		m = make(map[int]float64)
		t.counts[name] = m
	}
	if v > m[t.pass] {
		m[t.pass] = v
	}
}

// selfTimes returns, for one pass, each span name's self time in seconds:
// its duration minus the part covered by its child spans.
func (t *tracer) selfTimes(pass int) map[string]float64 {
	self := make(map[string]float64)
	for i := range t.spans {
		s := &t.spans[i]
		if s.Pass != pass {
			continue
		}
		d := float64(s.End-s.Start) / 1e9
		self[s.Name] += d
		if s.Parent >= 0 {
			self[t.spans[s.Parent].Name] -= d
		}
	}
	return self
}

// itemLayerTimes returns, per item of a pass, the summed self time of
// the layer spans beneath the item's root span.
func (t *tracer) itemLayerTimes(pass int) map[int]float64 {
	self := make([]float64, len(t.spans))
	for i := range t.spans {
		s := &t.spans[i]
		if s.Pass != pass {
			continue
		}
		d := float64(s.End-s.Start) / 1e9
		self[i] += d
		if s.Parent >= 0 {
			self[s.Parent] -= d
		}
	}
	sum := make(map[int]float64)
	for i := range t.spans {
		s := &t.spans[i]
		if s.Pass == pass && s.Parent >= 0 && t.rootName(i) == spanItem {
			sum[s.Item] += self[i]
		}
	}
	return sum
}

func (t *tracer) rootName(i int) string {
	for t.spans[i].Parent >= 0 {
		i = t.spans[i].Parent
	}
	return t.spans[i].Name
}

// Root span names. An item span bounds the job a user waits for; a replay
// span holds the extra calls the traced run makes to split a layer's time
// and is not part of any item's latency.
const (
	spanItem   = "item"
	spanReplay = "replay"
	spanSetup  = "setup"
)

// write stores every span as JSON under dir.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(t.spans); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
