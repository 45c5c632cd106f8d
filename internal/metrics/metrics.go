// Package metrics is a dependency-free Prometheus-compatible metrics
// layer: counters, gauges, and fixed-bucket histograms, rendered in the
// text exposition format (version 0.0.4) that every Prometheus scraper
// understands. It exists so the long-running daemon (cmd/examld) and the
// one-shot CLIs can expose a live `/metrics` endpoint without pulling an
// external client library into the build.
//
// Design constraints, in order:
//
//  1. Determinism safety. Like internal/telemetry, metrics are strictly
//     out-of-band: updating a metric reads clocks or bumps atomics and
//     never feeds a value back into a likelihood, a reduction, or the
//     search trajectory (docs/DETERMINISM.md). Rendering is read-only.
//  2. Cheap updates. Counter/gauge updates are a single atomic CAS loop;
//     histogram observations are two atomic adds plus a bucket scan.
//     No locks are taken on the update path once a metric handle exists.
//  3. Deterministic rendering. Families render in name order and vector
//     children in label-value order, so scrapes (and golden tests) are
//     stable.
//
// Metrics attach to a Registry. Process-wide subsystems (internal/mpinet
// frame accounting, internal/telemetry kernel totals) register on the
// package Default registry; per-instance subsystems (one service.Server)
// own a private registry so two servers in one process never collide.
// Handler serves any number of registries merged into one page; Mount
// and Serve put that page, and optionally the Go profiles, on a mux or
// a listener of their own, the one observability plane every front end
// uses.
package metrics

import (
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// value is a float64 updated with atomic bit operations.
type value struct{ bits atomic.Uint64 }

func (v *value) add(d float64) {
	for {
		old := v.bits.Load()
		if v.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

func (v *value) set(x float64) { v.bits.Store(math.Float64bits(x)) }
func (v *value) get() float64  { return math.Float64frombits(v.bits.Load()) }

// Counter is a monotonically increasing metric. Negative increments are
// ignored (Prometheus counters must never decrease).
type Counter struct{ v value }

// Inc adds 1.
func (c *Counter) Inc() { c.v.add(1) }

// Add adds d; d < 0 is a no-op.
func (c *Counter) Add(d float64) {
	if d < 0 {
		return
	}
	c.v.add(d)
}

// Value returns the current count.
func (c *Counter) Value() float64 { return c.v.get() }

// Gauge is a metric that can go up and down.
type Gauge struct{ v value }

// Set replaces the value.
func (g *Gauge) Set(x float64) { g.v.set(x) }

// Add adds d (may be negative).
func (g *Gauge) Add(d float64) { g.v.add(d) }

// Inc adds 1.
func (g *Gauge) Inc() { g.v.add(1) }

// Dec subtracts 1.
func (g *Gauge) Dec() { g.v.add(-1) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return g.v.get() }

// Histogram counts observations into fixed cumulative buckets and tracks
// their sum — rendered as the standard `_bucket`/`_sum`/`_count` series
// with an implicit `+Inf` bucket.
type Histogram struct {
	upper  []float64 // sorted upper bounds, +Inf excluded
	counts []atomic.Uint64
	sum    value
	count  atomic.Uint64
}

// Observe records one observation.
func (h *Histogram) Observe(x float64) {
	i := sort.SearchFloat64s(h.upper, x) // first bucket with upper >= x
	h.counts[i].Add(1)
	h.sum.add(x)
	h.count.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return h.sum.get() }

// DefBuckets are general-purpose latency buckets in seconds (the
// Prometheus client default).
var DefBuckets = []float64{.005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}

// ExpBuckets returns count buckets starting at start and growing by
// factor — for long-tailed quantities like job durations.
func ExpBuckets(start, factor float64, count int) []float64 {
	b := make([]float64, count)
	for i := range b {
		b[i] = start
		start *= factor
	}
	return b
}

// metric family kinds.
const (
	kindCounter   = "counter"
	kindGauge     = "gauge"
	kindHistogram = "histogram"
)

// family is one named metric with its help text and children (one child
// per label-value tuple; exactly one child with an empty key for plain
// metrics).
type family struct {
	name, help, kind string
	labels           []string
	buckets          []float64 // histograms only

	mu       sync.Mutex
	children map[string]any // Counter, Gauge, *Histogram, or func() float64
}

// labelKey joins label values with a separator that cannot appear in a
// JSON-free label value stream unambiguously enough for map keying.
func labelKey(values []string) string { return strings.Join(values, "\xff") }

// child returns (creating if needed) the child for the given label
// values, constructed by mk.
func (f *family) child(values []string, mk func() any) any {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("metrics: %s has labels %v, got %d values", f.name, f.labels, len(values)))
	}
	key := labelKey(values)
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children[key]; ok {
		return c
	}
	c := mk()
	f.children[key] = c
	return c
}

// Registry holds metric families and renders them. The zero value is not
// usable; create with NewRegistry or use Default.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{fams: map[string]*family{}} }

var defaultRegistry = NewRegistry()

// Default is the process-wide registry used by subsystems without a
// natural owner (mpinet frame accounting, telemetry kernel totals).
func Default() *Registry { return defaultRegistry }

// family returns (creating if needed) the named family, panicking on a
// kind or label-schema mismatch — that is a programming error, exactly
// like registering two different collectors under one name upstream.
func (r *Registry) family(name, help, kind string, labels []string, buckets []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.fams[name]; ok {
		if f.kind != kind || labelKey(f.labels) != labelKey(labels) {
			panic(fmt.Sprintf("metrics: %s re-registered as %s%v, was %s%v", name, kind, labels, f.kind, f.labels))
		}
		return f
	}
	f := &family{name: name, help: help, kind: kind, labels: labels, buckets: buckets,
		children: map[string]any{}}
	r.fams[name] = f
	return f
}

// Counter returns the named plain counter, registering it on first use.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.family(name, help, kindCounter, nil, nil)
	return f.child(nil, func() any { return new(Counter) }).(*Counter)
}

// CounterVec declares a counter family with the given label names; use
// With to get per-label-value counters.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r.family(name, help, kindCounter, labels, nil)}
}

// Gauge returns the named plain gauge, registering it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.family(name, help, kindGauge, nil, nil)
	return f.child(nil, func() any { return new(Gauge) }).(*Gauge)
}

// GaugeVec declares a gauge family with the given label names.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{r.family(name, help, kindGauge, labels, nil)}
}

// GaugeFunc registers a gauge whose value is computed at scrape time.
// Re-registering the same name replaces the callback (so a restarted
// owner can rebind its closures).
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.family(name, help, kindGauge, nil, nil)
	f.mu.Lock()
	f.children[""] = fn
	f.mu.Unlock()
}

// Histogram returns the named histogram with the given upper bounds
// (sorted ascending; +Inf is implicit), registering it on first use.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	up := append([]float64(nil), buckets...)
	sort.Float64s(up)
	f := r.family(name, help, kindHistogram, nil, up)
	return f.child(nil, func() any {
		return &Histogram{upper: f.buckets, counts: make([]atomic.Uint64, len(f.buckets)+1)}
	}).(*Histogram)
}

// CounterVec hands out counters keyed by label values.
type CounterVec struct{ f *family }

// With returns the counter for the given label values (order matches the
// declaration), creating it on first use.
func (cv *CounterVec) With(values ...string) *Counter {
	return cv.f.child(values, func() any { return new(Counter) }).(*Counter)
}

// GaugeVec hands out gauges keyed by label values.
type GaugeVec struct{ f *family }

// With returns the gauge for the given label values.
func (gv *GaugeVec) With(values ...string) *Gauge {
	return gv.f.child(values, func() any { return new(Gauge) }).(*Gauge)
}

// ---------- text exposition ----------

// formatValue renders a sample value the way Prometheus expects.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, +1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

var (
	helpEscaper  = strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
)

// renderLabels renders a {k="v",...} block; extra appends one more pair
// (the histogram `le` label). Empty input renders nothing.
func renderLabels(b *strings.Builder, names, values []string, extraName, extraValue string) {
	if len(names) == 0 && extraName == "" {
		return
	}
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(b, `%s="%s"`, n, labelEscaper.Replace(values[i]))
	}
	if extraName != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(b, `%s="%s"`, extraName, labelEscaper.Replace(extraValue))
	}
	b.WriteByte('}')
}

// WriteText renders every family in the Prometheus text exposition
// format, families in name order and children in label-value order.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.fams))
	fams := make([]*family, 0, len(r.fams))
	for n := range r.fams {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fams = append(fams, r.fams[n])
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		f.render(&b)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func (f *family) render(b *strings.Builder) {
	f.mu.Lock()
	keys := make([]string, 0, len(f.children))
	for k := range f.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	children := make([]any, len(keys))
	for i, k := range keys {
		children[i] = f.children[k]
	}
	f.mu.Unlock()
	if len(children) == 0 {
		return
	}

	if f.help != "" {
		fmt.Fprintf(b, "# HELP %s %s\n", f.name, helpEscaper.Replace(f.help))
	}
	fmt.Fprintf(b, "# TYPE %s %s\n", f.name, f.kind)
	for i, key := range keys {
		var values []string
		if key != "" || len(f.labels) > 0 {
			values = strings.Split(key, "\xff")
		}
		switch c := children[i].(type) {
		case *Counter:
			b.WriteString(f.name)
			renderLabels(b, f.labels, values, "", "")
			fmt.Fprintf(b, " %s\n", formatValue(c.Value()))
		case *Gauge:
			b.WriteString(f.name)
			renderLabels(b, f.labels, values, "", "")
			fmt.Fprintf(b, " %s\n", formatValue(c.Value()))
		case func() float64:
			b.WriteString(f.name)
			renderLabels(b, f.labels, values, "", "")
			fmt.Fprintf(b, " %s\n", formatValue(c()))
		case *Histogram:
			cum := uint64(0)
			for bi, upper := range c.upper {
				cum += c.counts[bi].Load()
				b.WriteString(f.name + "_bucket")
				renderLabels(b, f.labels, values, "le", formatValue(upper))
				fmt.Fprintf(b, " %d\n", cum)
			}
			cum += c.counts[len(c.upper)].Load()
			b.WriteString(f.name + "_bucket")
			renderLabels(b, f.labels, values, "le", "+Inf")
			fmt.Fprintf(b, " %d\n", cum)
			b.WriteString(f.name + "_sum")
			renderLabels(b, f.labels, values, "", "")
			fmt.Fprintf(b, " %s\n", formatValue(c.Sum()))
			b.WriteString(f.name + "_count")
			renderLabels(b, f.labels, values, "", "")
			fmt.Fprintf(b, " %d\n", cum)
		}
	}
}

// Handler serves the given registries (Default when none given) merged
// into one scrape page, in argument order.
func Handler(regs ...*Registry) http.Handler {
	if len(regs) == 0 {
		regs = []*Registry{Default()}
	}
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		for _, r := range regs {
			if err := r.WriteText(w); err != nil {
				return
			}
		}
	})
}

// Mount routes GET /metrics on mux to regs merged into one page (nil
// regs mounts no page) and, with profiles, the five net/http/pprof
// routes under /debug/pprof/. A page should list only the registries
// its own process updates: a registry nothing updates reads 0 forever.
func Mount(mux *http.ServeMux, regs []*Registry, profiles bool) {
	if len(regs) > 0 {
		mux.Handle("GET /metrics", Handler(regs...))
	}
	if profiles {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
}

// Serve binds addr and serves Mount's routes on it until stop is
// called. It returns the bound address, so addr may name port 0.
func Serve(addr string, regs []*Registry, profiles bool) (bound string, stop func(), err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	mux := http.NewServeMux()
	Mount(mux, regs, profiles)
	hs := &http.Server{Handler: mux}
	go hs.Serve(ln)
	return ln.Addr().String(), func() { hs.Close() }, nil
}
