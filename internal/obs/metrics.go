package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Fixed histogram bucket bounds.  Fixed (rather than adaptive) buckets keep
// observation O(buckets) with zero allocation and make histograms from
// different runs and different Systems directly mergeable, which is what a
// scrape-based monitoring pipeline needs.
var (
	// LatencyBucketsNS spans one split-decoder AAP (49 ns for DDR3-1600,
	// Section 5.3) up to multi-millisecond batches.
	LatencyBucketsNS = []float64{
		50, 100, 250, 500,
		1e3, 2.5e3, 5e3, 1e4, 2.5e4, 5e4,
		1e5, 2.5e5, 5e5, 1e6, 2.5e6, 5e6, 1e7,
	}
	// EnergyBucketsNJ spans one command train (tens of nJ, Table 3) up to
	// large bulk workloads.
	EnergyBucketsNJ = []float64{
		1, 2.5, 5, 10, 25, 50, 100, 250, 500,
		1e3, 2.5e3, 5e3, 1e4, 2.5e4, 5e4, 1e5,
	}
)

// atomicFloat64 is a lock-free float64 accumulator (CAS over the bit
// pattern).  Adds from one goroutine sum in program order, so single-client
// workloads keep the exact floating-point total a serial run produces.
type atomicFloat64 struct{ bits atomic.Uint64 }

func (f *atomicFloat64) Add(v float64) {
	for {
		old := f.bits.Load()
		if f.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

func (f *atomicFloat64) Load() float64 { return math.Float64frombits(f.bits.Load()) }

func (f *atomicFloat64) Store(v float64) { f.bits.Store(math.Float64bits(v)) }

// histogram is a fixed-bucket histogram; counts[i] is the number of
// observations <= bounds[i], counts[len(bounds)] the +Inf overflow.  All
// fields are atomic, so observation takes no lock; a concurrent snapshot may
// see an observation's bucket before its sum (each field is individually
// consistent and monotone).
type histogram struct {
	bounds []float64
	counts []atomic.Uint64
	sum    atomicFloat64
	count  atomic.Uint64
}

func newHistogram(bounds []float64) *histogram {
	return &histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

func (h *histogram) observe(v float64) {
	h.counts[sort.SearchFloat64s(h.bounds, v)].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// HistogramSnapshot is a self-contained copy of one histogram.
type HistogramSnapshot struct {
	// Bounds are the inclusive bucket upper bounds; Counts has one more
	// entry than Bounds, the +Inf overflow bucket.
	Bounds []float64
	Counts []uint64
	// Sum is the sum of all observed values; Count the number of
	// observations.  Sum/Count is the mean; the bucket counts give the
	// distribution.
	Sum   float64
	Count uint64
}

// Quantile estimates the q-th quantile (q in [0, 1]) from the bucket
// counts by linear interpolation within the containing bucket.  An empty
// snapshot returns 0; observations in the +Inf overflow bucket clamp to the
// highest finite bound, so the estimate is a lower bound when the
// distribution's tail escapes the bucket range.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	var cum uint64
	for i, c := range s.Counts {
		if float64(cum+c) < rank {
			cum += c
			continue
		}
		if i >= len(s.Bounds) {
			return s.Bounds[len(s.Bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = s.Bounds[i-1]
		}
		if c == 0 {
			return s.Bounds[i]
		}
		frac := (rank - float64(cum)) / float64(c)
		return lo + frac*(s.Bounds[i]-lo)
	}
	return s.Bounds[len(s.Bounds)-1]
}

func (h *histogram) snapshot() HistogramSnapshot {
	counts := make([]uint64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	return HistogramSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: counts,
		Sum:    h.sum.Load(),
		Count:  h.count.Load(),
	}
}

// Registry accumulates per-opcode latency and energy histograms plus named
// counters, and renders counters that live elsewhere (CounterSource).  It is
// safe for concurrent use and may be shared by several Systems — their
// observations merge, which is how cmd/ambitbench aggregates across
// experiments.
//
// The observation hot paths (ObserveLatencyNS, ObserveEnergyNJ, Add) are
// lock-free once an opcode or counter exists: the name maps are replaced
// copy-on-write under growMu only when a new entry appears, and the
// histograms and counters themselves are atomic.
type Registry struct {
	growMu   sync.Mutex // serializes map growth; never taken on hot paths
	latency  atomic.Pointer[map[string]*histogram]
	energy   atomic.Pointer[map[string]*histogram]
	counters atomic.Pointer[map[string]*atomic.Int64]
	gauges   atomic.Pointer[map[string]*atomicFloat64]
	// labeled holds the bounded-cardinality labeled families (labels.go),
	// keyed by family name.  A labeled family and a flat counter/gauge of
	// the same name render as one exposition block: the unlabeled sample
	// first, then the labeled series.
	labeled atomic.Pointer[map[string]*labeledFamily]
	// sources are the counter sources WriteTo renders; appended under
	// growMu, which WriteTo holds only to copy the slice header.
	sources []CounterSource
}

// CounterSource reports counters that are kept outside the registry and
// rendered when it is scraped: WriteTo calls it once per scrape, and it
// calls emit once per sample with the family name, the value, and the
// sample's labels (none for the family's unlabeled sample).
type CounterSource func(emit func(family string, v int64, labels ...Label))

// AddCounterSource registers src with the registry.  WriteTo sums each
// counter sample across every source and any stored counter of the same
// family and labels; a zero sample a source reports is not rendered.
// The registry keeps src for its own lifetime.
func (r *Registry) AddCounterSource(src CounterSource) {
	r.growMu.Lock()
	r.sources = append(r.sources, src)
	r.growMu.Unlock()
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	r := &Registry{}
	lm, em := map[string]*histogram{}, map[string]*histogram{}
	cm, gm := map[string]*atomic.Int64{}, map[string]*atomicFloat64{}
	fm := map[string]*labeledFamily{}
	r.latency.Store(&lm)
	r.energy.Store(&em)
	r.counters.Store(&cm)
	r.gauges.Store(&gm)
	r.labeled.Store(&fm)
	return r
}

// hist returns the named histogram, creating it copy-on-write on first use.
func (r *Registry) hist(p *atomic.Pointer[map[string]*histogram], name string, bounds []float64) *histogram {
	if h := (*p.Load())[name]; h != nil {
		return h
	}
	r.growMu.Lock()
	defer r.growMu.Unlock()
	m := *p.Load()
	if h := m[name]; h != nil {
		return h
	}
	next := make(map[string]*histogram, len(m)+1)
	for k, v := range m {
		next[k] = v
	}
	h := newHistogram(bounds)
	next[name] = h
	p.Store(&next)
	return h
}

// ObserveLatencyNS records one operation's simulated latency.
func (r *Registry) ObserveLatencyNS(op string, ns float64) {
	r.hist(&r.latency, op, LatencyBucketsNS).observe(ns)
}

// ObserveEnergyNJ records one operation's simulated device energy.
func (r *Registry) ObserveEnergyNJ(op string, nj float64) {
	r.hist(&r.energy, op, EnergyBucketsNJ).observe(nj)
}

// counter returns the named counter, creating it copy-on-write on first use.
func (r *Registry) counter(name string) *atomic.Int64 {
	if c := (*r.counters.Load())[name]; c != nil {
		return c
	}
	r.growMu.Lock()
	defer r.growMu.Unlock()
	m := *r.counters.Load()
	if c := m[name]; c != nil {
		return c
	}
	next := make(map[string]*atomic.Int64, len(m)+1)
	for k, v := range m {
		next[k] = v
	}
	c := new(atomic.Int64)
	next[name] = c
	r.counters.Store(&next)
	return c
}

// Add increments counter name by delta (creating it at zero first).
func (r *Registry) Add(name string, delta int64) {
	r.counter(name).Add(delta)
}

// Counter returns the current value of a stored counter (0 if never
// touched).  It does not read counter sources; WriteTo renders those.
func (r *Registry) Counter(name string) int64 {
	if c := (*r.counters.Load())[name]; c != nil {
		return c.Load()
	}
	return 0
}

// gauge returns the named gauge, creating it copy-on-write on first use.
func (r *Registry) gauge(name string) *atomicFloat64 {
	if g := (*r.gauges.Load())[name]; g != nil {
		return g
	}
	r.growMu.Lock()
	defer r.growMu.Unlock()
	m := *r.gauges.Load()
	if g := m[name]; g != nil {
		return g
	}
	next := make(map[string]*atomicFloat64, len(m)+1)
	for k, v := range m {
		next[k] = v
	}
	g := new(atomicFloat64)
	next[name] = g
	r.gauges.Store(&next)
	return g
}

// SetGauge sets gauge name to v — a last-value-wins instantaneous reading
// (queries/sec, p99 latency, queue depth), unlike the monotone counters.
func (r *Registry) SetGauge(name string, v float64) {
	r.gauge(name).Store(v)
}

// LatencyNS returns a snapshot of op's latency histogram.
func (r *Registry) LatencyNS(op string) (HistogramSnapshot, bool) {
	h := (*r.latency.Load())[op]
	if h == nil {
		return HistogramSnapshot{}, false
	}
	return h.snapshot(), true
}

// EnergyNJ returns a snapshot of op's energy histogram.
func (r *Registry) EnergyNJ(op string) (HistogramSnapshot, bool) {
	h := (*r.energy.Load())[op]
	if h == nil {
		return HistogramSnapshot{}, false
	}
	return h.snapshot(), true
}

// Ops returns the sorted set of opcodes with at least one latency or energy
// observation.
func (r *Registry) Ops() []string {
	seen := map[string]bool{}
	for op := range *r.latency.Load() {
		seen[op] = true
	}
	for op := range *r.energy.Load() {
		seen[op] = true
	}
	out := make([]string, 0, len(seen))
	for op := range seen {
		out = append(out, op)
	}
	sort.Strings(out)
	return out
}

// WriteTo renders the registry in Prometheus text exposition format:
// ambit_op_latency_ns / ambit_op_energy_nj histograms labelled by op,
// ambit_<name>_total counters, ambit_<name> gauges, and the labeled
// families (labels.go) as ambit_<family>... series with their label sets.
// A flat counter/gauge and a labeled family sharing a name render under one
// HELP/TYPE block — unlabeled sample first, labeled series after, sorted by
// canonical label key.  Counter sources (AddCounterSource) are read here and
// merge into the counter blocks by family and label set.  Output is
// deterministically ordered.  The totals (_count and the +Inf bucket) are
// derived from the bucket counts of one snapshot, so every rendered
// histogram is internally consistent even while observations race the
// scrape.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	var b strings.Builder

	writeHist := func(metric, help string, m map[string]*histogram) {
		if len(m) == 0 {
			return
		}
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s histogram\n", metric, help, metric)
		ops := make([]string, 0, len(m))
		for op := range m {
			ops = append(ops, op)
		}
		sort.Strings(ops)
		for _, op := range ops {
			s := m[op].snapshot()
			var cum uint64
			for i, bound := range s.Bounds {
				cum += s.Counts[i]
				fmt.Fprintf(&b, "%s_bucket{op=%q,le=%q} %d\n", metric, op, ftoa(bound), cum)
			}
			cum += s.Counts[len(s.Bounds)]
			fmt.Fprintf(&b, "%s_bucket{op=%q,le=\"+Inf\"} %d\n", metric, op, cum)
			fmt.Fprintf(&b, "%s_sum{op=%q} %s\n", metric, op, ftoa(s.Sum))
			fmt.Fprintf(&b, "%s_count{op=%q} %d\n", metric, op, cum)
		}
	}
	writeHist("ambit_op_latency_ns", "Simulated per-operation latency in nanoseconds.", *r.latency.Load())
	writeHist("ambit_op_energy_nj", "Simulated per-operation device energy in nanojoules.", *r.energy.Load())

	for _, f := range r.labeledFamilies(famHistogram) {
		metric := "ambit_" + f.name
		fmt.Fprintf(&b, "# HELP %s Labeled %s histogram.\n# TYPE %s histogram\n",
			metric, strings.ReplaceAll(f.name, "_", " "), metric)
		for _, sr := range f.sortedSeries() {
			s := sr.h.Snapshot()
			var cum uint64
			for i, bound := range s.Bounds {
				cum += s.Counts[i]
				fmt.Fprintf(&b, "%s_bucket{%s,le=%q} %d\n", metric, sr.key, ftoa(bound), cum)
			}
			cum += s.Counts[len(s.Bounds)]
			fmt.Fprintf(&b, "%s_bucket{%s,le=\"+Inf\"} %d\n", metric, sr.key, cum)
			fmt.Fprintf(&b, "%s_sum{%s} %s\n", metric, sr.key, ftoa(s.Sum))
			fmt.Fprintf(&b, "%s_count{%s} %d\n", metric, sr.key, cum)
		}
	}

	// Counters: the stored flat counters and labeled series, and the
	// sources' nonzero samples, summed by family and canonical label key
	// ("" — which sorts first — for the unlabeled sample).
	samples := map[string]map[string]int64{}
	add := func(family, key string, v int64) {
		if samples[family] == nil {
			samples[family] = map[string]int64{}
		}
		samples[family][key] += v
	}
	for name, c := range *r.counters.Load() {
		add(name, "", c.Load())
	}
	for _, f := range r.labeledFamilies(famCounter) {
		for _, sr := range f.sortedSeries() {
			add(f.name, sr.key, sr.c.Value())
		}
	}
	r.growMu.Lock()
	sources := r.sources
	r.growMu.Unlock()
	for _, src := range sources {
		src(func(family string, v int64, labels ...Label) {
			if v != 0 {
				key, _ := seriesKey(labels)
				add(family, key, v)
			}
		})
	}
	for _, name := range sortedKeys(samples) {
		metric := "ambit_" + name + "_total"
		fmt.Fprintf(&b, "# HELP %s Cumulative %s.\n# TYPE %s counter\n",
			metric, strings.ReplaceAll(name, "_", " "), metric)
		for _, key := range sortedKeys(samples[name]) {
			if key == "" {
				fmt.Fprintf(&b, "%s %d\n", metric, samples[name][key])
			} else {
				fmt.Fprintf(&b, "%s{%s} %d\n", metric, key, samples[name][key])
			}
		}
	}

	gauges := *r.gauges.Load()
	gaugeFams := r.labeledFamilies(famGauge)
	fams := *r.labeled.Load()
	names := make([]string, 0, len(gauges)+len(gaugeFams))
	for name := range gauges {
		names = append(names, name)
	}
	for _, f := range gaugeFams {
		if _, ok := gauges[f.name]; !ok {
			names = append(names, f.name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		metric := "ambit_" + name
		fmt.Fprintf(&b, "# HELP %s Instantaneous %s.\n# TYPE %s gauge\n",
			metric, strings.ReplaceAll(name, "_", " "), metric)
		if g, ok := gauges[name]; ok {
			fmt.Fprintf(&b, "%s %s\n", metric, ftoa(g.Load()))
		}
		if f := fams[name]; f != nil && f.kind == famGauge {
			for _, sr := range f.sortedSeries() {
				fmt.Fprintf(&b, "%s{%s} %s\n", metric, sr.key, ftoa(sr.g.Value()))
			}
		}
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
