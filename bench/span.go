package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Layers a span can belong to: this repo's packages, plus the driver itself.
const (
	layerClient    = "client" // the benchmark's own driver: time inside no layer
	layerNodeapi   = "nodeapi"
	layerRemote    = "remote"
	layerKV        = "kv"
	layerEngine    = "engine"
	layerWAL       = "wal"
	layerTransport = "transport"
)

// span is one timed interval at a layer boundary. Start and End are
// nanoseconds since the recorder was created. Parent is the ID of the span
// that caused this one, 0 for none.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	TxID   string `json:"txid,omitempty"`
	Node   int    `json:"node,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder records
// nothing, so the same wrappers serve the untraced in-process pass.
type recorder struct {
	t0   time.Time
	next atomic.Uint64
	mu   sync.Mutex
	all  []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// now is the recorder's clock.
func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

// newID reserves a span ID, so a parent can hand its ID to children that
// finish before it does.
func (r *recorder) newID() uint64 { return r.next.Add(1) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.all = append(r.all, s)
	r.mu.Unlock()
}

// spans returns what was recorded so far.
func (r *recorder) spans() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.all...)
}

// selfTimes splits the wall time of every root span (Parent 0, layer client)
// among the layers. Each instant of a span belongs to the span itself unless
// children cover it; an instant covered by k children at once is split k ways
// and handed down, so parallel children (two participants forcing their logs
// at the same time) share the wall time they overlap instead of counting it
// twice. The parts of a child outside its parent are off the path the client
// waits on and are dropped. The returned shares therefore sum to the summed
// duration of the roots, in nanoseconds.
func selfTimes(all []span) map[string]float64 {
	kids := map[uint64][]*span{}
	var roots []*span
	for i := range all {
		s := &all[i]
		if s.Parent == 0 {
			if s.Layer == layerClient {
				roots = append(roots, s)
			}
			continue
		}
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	acc := map[string]float64{}
	for _, r := range roots {
		attribute(r, r.Start, r.End, 1, kids, acc)
	}
	return acc
}

// attribute hands the interval [lo,hi) of s, at the given weight, to s's
// layer or to the children that cover it.
func attribute(s *span, lo, hi int64, weight float64, kids map[uint64][]*span, acc map[string]float64) {
	var in []*span
	points := []int64{lo, hi}
	for _, k := range kids[s.ID] {
		a, b := max(k.Start, lo), min(k.End, hi)
		if a >= b {
			continue
		}
		in = append(in, k)
		points = append(points, a, b)
	}
	if len(in) == 0 {
		acc[s.Layer] += float64(hi-lo) * weight
		return
	}
	sort.Slice(points, func(i, j int) bool { return points[i] < points[j] })
	for i := 0; i+1 < len(points); i++ {
		a, b := points[i], points[i+1]
		if a == b {
			continue
		}
		var active []*span
		for _, k := range in {
			if k.Start <= a && k.End >= b {
				active = append(active, k)
			}
		}
		if len(active) == 0 {
			acc[s.Layer] += float64(b-a) * weight
			continue
		}
		for _, k := range active {
			attribute(k, a, b, weight/float64(len(active)), kids, acc)
		}
	}
}

// durations returns, in microseconds, how long each span with the given name
// took.
func durations(all []span, name string) []float64 {
	var out []float64
	for i := range all {
		if all[i].Name == name {
			out = append(out, float64(all[i].End-all[i].Start)/1e3)
		}
	}
	return out
}

// traceFileSpans caps what a trace file holds: a full window is a few hundred
// thousand spans, and the first hundred thousand show every pattern there is.
const traceFileSpans = 100000

// writeTrace writes the spans to path as one JSON document.
func writeTrace(path, workload string, all []span) error {
	doc := struct {
		Workload   string `json:"workload"`
		TotalSpans int    `json:"total_spans"`
		Truncated  bool   `json:"truncated"`
		Spans      []span `json:"spans"`
	}{Workload: workload, TotalSpans: len(all), Spans: all}
	if len(all) > traceFileSpans {
		doc.Spans, doc.Truncated = all[:traceFileSpans], true
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(doc); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
