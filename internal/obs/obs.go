// Package obs is a dependency-free observability substrate: counters,
// gauges and fixed-bucket latency histograms rendered in the Prometheus
// text exposition format (version 0.0.4). It exists so the reservoir
// service can expose a /metrics endpoint without pulling the Prometheus
// client library into go.mod — the subset needed here (atomic instruments,
// label vectors, a scrape handler and pluggable collectors for state that
// lives elsewhere) is small enough to own.
//
// Instruments are created through a Registry and are safe for concurrent
// use; hot-path updates are single atomic operations. State that already
// lives behind its own locks (per-stream samplers, the multi.Manager
// budget) is exported at scrape time through the Collector interface
// instead of being mirrored into gauges on every mutation.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one name="value" pair attached to a sample.
type Label struct {
	Key   string
	Value string
}

// Sample is a single measurement within a metric family.
type Sample struct {
	Labels []Label
	Value  float64
}

// Family is a named group of samples sharing a HELP string and a type
// ("counter" or "gauge"); it is what Collectors hand to the registry at
// scrape time.
type Family struct {
	Name    string
	Help    string
	Type    string
	Samples []Sample
}

// Collector supplies metric families computed at scrape time — the bridge
// for state owned by another subsystem (reservoir sizes, budget gauges)
// that would be wasteful to mirror on every mutation.
type Collector interface {
	Collect() []Family
}

// CollectorFunc adapts a function to the Collector interface.
type CollectorFunc func() []Family

// Collect implements Collector.
func (f CollectorFunc) Collect() []Family { return f() }

// Counter is a monotonically increasing counter.
type Counter struct {
	n atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.n.Add(1) }

// Add adds delta.
func (c *Counter) Add(delta uint64) { c.n.Add(delta) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n.Load() }

// Gauge is a float64 value that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds delta (atomically, via CAS).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into fixed cumulative buckets, tracking
// the total sum and count alongside — exactly the classic Prometheus
// histogram shape (`_bucket{le=...}`, `_sum`, `_count`).
type Histogram struct {
	bounds []float64 // upper bounds, strictly increasing, +Inf implicit
	counts []atomic.Uint64
	sum    Gauge
	count  atomic.Uint64
}

// Observe records one measurement.
func (h *Histogram) Observe(v float64) {
	// Buckets are cumulative in exposition but stored per-interval here;
	// find the first bound >= v and count it there.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return h.sum.Value() }

// DefLatencyBuckets covers request latencies from 100µs to 10s; the
// service's p50 sits well under a millisecond, so the low end is denser
// than the classic Prometheus defaults.
func DefLatencyBuckets() []float64 {
	return []float64{1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}
}

// vec is the shared machinery of the three label-vector instrument kinds:
// a lazily populated map from joined label values to child instruments.
type vec struct {
	name   string
	help   string
	labels []string

	mu       sync.RWMutex
	children map[string]any
	order    []string // insertion-ordered keys, sorted at render time
	values   map[string][]string
}

func newVec(name, help string, labels []string) vec {
	return vec{
		name: name, help: help, labels: labels,
		children: make(map[string]any),
		values:   make(map[string][]string),
	}
}

// child returns the instrument for the given label values, creating it
// with mk on first use. It panics on a label-arity mismatch: that is a
// programming error at instrumentation sites, not a runtime condition.
func (v *vec) child(values []string, mk func() any) any {
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("obs: metric %s has %d labels %v, got %d values %v",
			v.name, len(v.labels), v.labels, len(values), values))
	}
	key := strings.Join(values, "\xff")
	v.mu.RLock()
	c, ok := v.children[key]
	v.mu.RUnlock()
	if ok {
		return c
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if c, ok := v.children[key]; ok {
		return c
	}
	c = mk()
	v.children[key] = c
	v.order = append(v.order, key)
	v.values[key] = append([]string(nil), values...)
	return c
}

// snapshot returns the children and their label values, sorted by label
// values for deterministic rendering. Both are copied under the read lock:
// rendering runs after it is released, while child may add label sets.
func (v *vec) snapshot() (values [][]string, children []any) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	keys := append([]string(nil), v.order...)
	sort.Strings(keys)
	values = make([][]string, len(keys))
	children = make([]any, len(keys))
	for i, k := range keys {
		values[i], children[i] = v.values[k], v.children[k]
	}
	return values, children
}

// labelPairs formats the {k="v",...} block; empty when there are no labels.
func labelPairs(names []string, values []string, extra ...Label) string {
	if len(names) == 0 && len(extra) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	for i, l := range extra {
		if len(names)+i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel applies the exposition-format escapes for label values.
func escapeLabel(s string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(s)
}

// formatValue renders a sample value; Prometheus spells infinities as
// +Inf/-Inf.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// CounterVec is a counter family partitioned by label values.
type CounterVec struct{ vec }

// With returns the counter for the given label values.
func (v *CounterVec) With(values ...string) *Counter {
	return v.child(values, func() any { return new(Counter) }).(*Counter)
}

// GaugeVec is a gauge family partitioned by label values.
type GaugeVec struct{ vec }

// With returns the gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge {
	return v.child(values, func() any { return new(Gauge) }).(*Gauge)
}

// HistogramVec is a histogram family partitioned by label values; every
// child shares the vector's bucket bounds.
type HistogramVec struct {
	vec
	bounds []float64
}

// With returns the histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	return v.child(values, func() any {
		return &Histogram{bounds: v.bounds, counts: make([]atomic.Uint64, len(v.bounds)+1)}
	}).(*Histogram)
}

// Registry owns a set of named instruments and collectors and renders them
// all into one exposition document.
type Registry struct {
	mu         sync.Mutex
	names      map[string]bool
	counters   []*CounterVec
	gauges     []*GaugeVec
	histograms []*HistogramVec
	collectors []Collector
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{names: make(map[string]bool)}
}

func (r *Registry) claim(name string) {
	if !validMetricName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	if r.names[name] {
		panic(fmt.Sprintf("obs: metric %q registered twice", name))
	}
	r.names[name] = true
}

func validMetricName(name string) bool {
	if name == "" {
		return false
	}
	for i, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// Counter registers and returns a new counter vector. Registering the same
// name twice panics: metric names are fixed at startup.
func (r *Registry) Counter(name, help string, labels ...string) *CounterVec {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.claim(name)
	v := &CounterVec{vec: newVec(name, help, labels)}
	r.counters = append(r.counters, v)
	return v
}

// Gauge registers and returns a new gauge vector.
func (r *Registry) Gauge(name, help string, labels ...string) *GaugeVec {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.claim(name)
	v := &GaugeVec{vec: newVec(name, help, labels)}
	r.gauges = append(r.gauges, v)
	return v
}

// Histogram registers and returns a new histogram vector with the given
// bucket upper bounds (strictly increasing; a +Inf bucket is implicit).
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if len(buckets) == 0 {
		panic(fmt.Sprintf("obs: histogram %q needs at least one bucket", name))
	}
	for i := 1; i < len(buckets); i++ {
		if !(buckets[i] > buckets[i-1]) {
			panic(fmt.Sprintf("obs: histogram %q buckets must be strictly increasing, got %v", name, buckets))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.claim(name)
	v := &HistogramVec{vec: newVec(name, help, labels), bounds: append([]float64(nil), buckets...)}
	r.histograms = append(r.histograms, v)
	return v
}

// Register adds a scrape-time collector. Family names emitted by the
// collector are the collector's responsibility; they are not checked
// against the instrument namespace.
func (r *Registry) Register(c Collector) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.collectors = append(r.collectors, c)
}

// WriteText renders every registered instrument and collector in the
// Prometheus text exposition format.
func (r *Registry) WriteText(w *strings.Builder) {
	r.mu.Lock()
	counters := append([]*CounterVec(nil), r.counters...)
	gauges := append([]*GaugeVec(nil), r.gauges...)
	histograms := append([]*HistogramVec(nil), r.histograms...)
	collectors := append([]Collector(nil), r.collectors...)
	r.mu.Unlock()

	for _, v := range counters {
		writeHeader(w, v.name, v.help, "counter")
		values, children := v.snapshot()
		for k, child := range children {
			c := child.(*Counter)
			fmt.Fprintf(w, "%s%s %d\n", v.name, labelPairs(v.labels, values[k]), c.Value())
		}
	}
	for _, v := range gauges {
		writeHeader(w, v.name, v.help, "gauge")
		values, children := v.snapshot()
		for k, child := range children {
			g := child.(*Gauge)
			fmt.Fprintf(w, "%s%s %s\n", v.name, labelPairs(v.labels, values[k]), formatValue(g.Value()))
		}
	}
	for _, v := range histograms {
		writeHeader(w, v.name, v.help, "histogram")
		values, children := v.snapshot()
		for k, child := range children {
			h := child.(*Histogram)
			var cum uint64
			for i, bound := range h.bounds {
				cum += h.counts[i].Load()
				fmt.Fprintf(w, "%s_bucket%s %d\n", v.name,
					labelPairs(v.labels, values[k], Label{Key: "le", Value: formatValue(bound)}), cum)
			}
			cum += h.counts[len(h.bounds)].Load()
			fmt.Fprintf(w, "%s_bucket%s %d\n", v.name,
				labelPairs(v.labels, values[k], Label{Key: "le", Value: "+Inf"}), cum)
			fmt.Fprintf(w, "%s_sum%s %s\n", v.name, labelPairs(v.labels, values[k]), formatValue(h.Sum()))
			fmt.Fprintf(w, "%s_count%s %d\n", v.name, labelPairs(v.labels, values[k]), h.Count())
		}
	}
	for _, c := range collectors {
		for _, fam := range c.Collect() {
			writeHeader(w, fam.Name, fam.Help, fam.Type)
			for _, s := range fam.Samples {
				names := make([]string, len(s.Labels))
				vals := make([]string, len(s.Labels))
				for i, l := range s.Labels {
					names[i], vals[i] = l.Key, l.Value
				}
				fmt.Fprintf(w, "%s%s %s\n", fam.Name, labelPairs(names, vals), formatValue(s.Value))
			}
		}
	}
}

func writeHeader(w *strings.Builder, name, help, typ string) {
	if help != "" {
		help = strings.NewReplacer(`\`, `\\`, "\n", `\n`).Replace(help)
		fmt.Fprintf(w, "# HELP %s %s\n", name, help)
	}
	fmt.Fprintf(w, "# TYPE %s %s\n", name, typ)
}

// Expose renders the registry to a string (the /metrics response body).
func (r *Registry) Expose() string {
	var b strings.Builder
	r.WriteText(&b)
	return b.String()
}
