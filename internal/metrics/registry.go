package metrics

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Gauge is an instantaneous integer value, safe for concurrent use.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adjusts the value by n (negative to decrease).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Registry is a named collection of counters, gauges and histograms with a
// Prometheus text-format exporter. Instruments are identified by metric name
// plus label key/value pairs; requesting the same (name, labels) series
// twice returns the same instrument, so independent components — or several
// engine sites in one process — can share series without coordinating.
// Registering one name with two different instrument types panics: that is
// a programming error, not an operational condition.
//
// Histograms whose metric name ends in "_seconds" hold time.Duration
// samples and are exported in seconds; any other histogram is exported with
// its raw sample values (e.g. records per batch).
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

type family struct {
	name   string
	typ    string // "counter", "gauge" or "summary"
	help   string
	series map[string]*series // keyed by rendered label string
	order  []string           // label strings in registration order
}

type series struct {
	labels  string // rendered `{k="v",...}`, or "" for no labels
	counter *Counter
	gauge   *Gauge
	fn      func() float64 // value source for *Func instruments
	hist    *Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// labelString renders alternating key/value pairs as a canonical (sorted,
// escaped) Prometheus label block. Panics on an odd-length list.
func labelString(kv []string) string {
	if len(kv) == 0 {
		return ""
	}
	if len(kv)%2 != 0 {
		panic(fmt.Sprintf("metrics: odd label list %q", kv))
	}
	type pair struct{ k, v string }
	pairs := make([]pair, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		pairs = append(pairs, pair{kv[i], kv[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b strings.Builder
	b.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(p.v))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// lookup returns (creating if needed) the series for (name, labels),
// checking the instrument type. Requires r.mu held.
func (r *Registry) lookup(name, typ string, kv []string) *series {
	f := r.families[name]
	if f == nil {
		f = &family{name: name, typ: typ, series: map[string]*series{}}
		r.families[name] = f
	}
	if f.typ == "" { // placeholder created by Help before registration
		f.typ = typ
	}
	if f.typ != typ {
		panic(fmt.Sprintf("metrics: %s registered as %s, requested as %s", name, f.typ, typ))
	}
	ls := labelString(kv)
	s := f.series[ls]
	if s == nil {
		s = &series{labels: ls}
		f.series[ls] = s
		f.order = append(f.order, ls)
	}
	return s
}

// Counter returns the counter series for name and the given label key/value
// pairs, creating it on first use.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.lookup(name, "counter", labels)
	if s.counter == nil {
		s.counter = &Counter{}
	}
	return s.counter
}

// CounterFunc registers a counter series whose value is read from fn at
// export time — for components that maintain their own counters (e.g. a
// transport's drop count). Re-registering the same series replaces fn.
func (r *Registry) CounterFunc(name string, fn func() float64, labels ...string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.lookup(name, "counter", labels).fn = fn
}

// Gauge returns the gauge series for name and labels, creating it on first
// use.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.lookup(name, "gauge", labels)
	if s.gauge == nil {
		s.gauge = &Gauge{}
	}
	return s.gauge
}

// GaugeFunc registers a gauge series whose value is read from fn at export
// time. Re-registering the same series replaces fn, so a component restarted
// under the same identity (e.g. a recovered site) takes over its series.
func (r *Registry) GaugeFunc(name string, fn func() float64, labels ...string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.lookup(name, "gauge", labels).fn = fn
}

// Histogram returns the histogram series for name and labels, creating it
// on first use. It is exported as a Prometheus summary (quantiles, _sum,
// _count); a name ending in "_seconds" marks the samples as durations.
func (r *Registry) Histogram(name string, labels ...string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.lookup(name, "summary", labels)
	if s.hist == nil {
		s.hist = &Histogram{}
	}
	return s.hist
}

// Help attaches a HELP line to a metric name, emitted on export.
func (r *Registry) Help(name, help string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f := r.families[name]; f != nil {
		f.help = help
	} else {
		r.families[name] = &family{name: name, help: help, series: map[string]*series{}}
	}
}

// exportQuantiles are the order statistics exported per histogram.
var exportQuantiles = []float64{0.5, 0.9, 0.99}

// WritePrometheus writes every registered series in the Prometheus text
// exposition format (version 0.0.4), families sorted by name.
func (r *Registry) WritePrometheus(w io.Writer) error {
	// Registration mutates a family's series map, order slice and instrument
	// pointers under r.mu, so everything rendered is copied by value under
	// the lock; only the instruments themselves (atomic) are read outside it.
	type snapshot struct {
		name, typ, help string
		series          []series
	}
	r.mu.Lock()
	fams := make([]snapshot, 0, len(r.families))
	for _, f := range r.families {
		if len(f.order) == 0 {
			continue
		}
		snap := snapshot{name: f.name, typ: f.typ, help: f.help, series: make([]series, len(f.order))}
		for i, ls := range f.order {
			snap.series[i] = *f.series[ls]
		}
		fams = append(fams, snap)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	var b strings.Builder
	for _, f := range fams {
		if f.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.name, f.help)
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.typ)
		for _, s := range f.series {
			switch {
			case s.fn != nil:
				fmt.Fprintf(&b, "%s%s %g\n", f.name, s.labels, s.fn())
			case s.counter != nil:
				fmt.Fprintf(&b, "%s%s %d\n", f.name, s.labels, s.counter.Value())
			case s.gauge != nil:
				fmt.Fprintf(&b, "%s%s %d\n", f.name, s.labels, s.gauge.Value())
			case s.hist != nil:
				writeSummary(&b, f.name, s.labels, s.hist)
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// writeSummary renders one histogram as a Prometheus summary. Duration
// histograms (name ends in "_seconds") are scaled from nanoseconds.
func writeSummary(b *strings.Builder, name, labels string, h *Histogram) {
	seconds := strings.HasSuffix(name, "_seconds")
	scale := func(d time.Duration) float64 {
		if seconds {
			return d.Seconds()
		}
		return float64(d)
	}
	for _, q := range exportQuantiles {
		fmt.Fprintf(b, "%s%s %g\n", name, withLabel(labels, fmt.Sprintf(`quantile="%g"`, q)), scale(h.Quantile(q)))
	}
	fmt.Fprintf(b, "%s_sum%s %g\n", name, labels, scale(time.Duration(h.Sum())))
	fmt.Fprintf(b, "%s_count%s %d\n", name, labels, h.Count())
}

// withLabel merges one extra rendered label into an existing label block.
func withLabel(labels, extra string) string {
	if labels == "" {
		return "{" + extra + "}"
	}
	return labels[:len(labels)-1] + "," + extra + "}"
}
