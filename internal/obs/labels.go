package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
)

// Labeled metric families: bounded-cardinality label sets over the same
// lock-free storage primitives as the flat registry entries.  A family is a
// metric name ("svc_requests") plus a kind (counter, gauge, histogram); a
// series is one (family, label set) pair, rendered in Prometheus exposition
// as e.g. ambit_svc_requests_total{ns="tenant-a"}.
//
// The hot path mirrors the unlabeled registry: once a series exists, Add /
// Set / Observe on its handle is a plain atomic operation with no lock and
// no allocation.  Series creation is copy-on-write under the registry's
// growMu.  Callers that touch a series repeatedly (the service caches one
// handle bundle per namespace) pay the map lookup only once.
//
// Cardinality is bounded per family by MaxSeriesPerFamily: once a family is
// full, every new label set is folded into a single overflow series labelled
// {overflow="true"}, so an abusive or buggy client can distort at most one
// series instead of growing the registry without bound.

// MaxSeriesPerFamily caps the number of distinct label sets per family
// (the overflow series is not counted against the cap).
const MaxSeriesPerFamily = 256

// WallBucketsNS spans request wall-clock times: microseconds for cache-warm
// metadata requests up to 10 s for saturated-queue worst cases.  These are
// real (host) durations, unlike LatencyBucketsNS's simulated times.
var WallBucketsNS = []float64{
	1e3, 2.5e3, 5e3, 1e4, 2.5e4, 5e4,
	1e5, 2.5e5, 5e5, 1e6, 2.5e6, 5e6,
	1e7, 2.5e7, 5e7, 1e8, 2.5e8, 5e8,
	1e9, 2.5e9, 5e9, 1e10,
}

// Label is one key="value" pair of a labeled series.
type Label struct {
	Key   string
	Value string
}

// Counter is a handle to one labeled counter series.  Methods are safe on a
// nil handle (no-ops / zero), so callers may hold one unconditionally.
type Counter struct{ v atomic.Int64 }

// Add increments the series by delta.
func (c *Counter) Add(delta int64) {
	if c != nil {
		c.v.Add(delta)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a handle to one labeled gauge series (last value wins).
type Gauge struct{ v atomicFloat64 }

// Set stores v as the series value.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Value returns the current gauge reading.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a handle to one labeled histogram series.
type Histogram struct{ h *histogram }

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h != nil && h.h != nil {
		h.h.observe(v)
	}
}

// Snapshot returns a self-consistent copy of the series.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil || h.h == nil {
		return HistogramSnapshot{}
	}
	return h.h.snapshot()
}

type familyKind uint8

const (
	famCounter familyKind = iota
	famGauge
	famHistogram
)

// labeledSeries is one (label set) member of a family; exactly one of c/g/h
// is non-nil, matching the family kind.
type labeledSeries struct {
	labels []Label // sorted by key
	key    string  // canonical exposition form: k1="v1",k2="v2"
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// labeledFamily groups the series of one metric name.  The series map is
// replaced copy-on-write under the registry's growMu; lookups are lock-free.
type labeledFamily struct {
	name     string
	kind     familyKind
	bounds   []float64 // histogram families only
	series   atomic.Pointer[map[string]*labeledSeries]
	overflow atomic.Pointer[labeledSeries]
}

// seriesKey renders labels in canonical exposition form (sorted by key).
// The returned slice is the sorted copy used for snapshots.
func seriesKey(labels []Label) (string, []Label) {
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Key, l.Value)
	}
	return b.String(), ls
}

// overflowLabels marks the fold-in series of a full family.
var overflowLabels = []Label{{Key: "overflow", Value: "true"}}

// family returns the named family, creating it copy-on-write on first use.
// A kind or bounds mismatch with an existing family is a programming error
// and panics: two call sites disagreeing about a metric's type would silently
// corrupt the exposition otherwise.
func (r *Registry) family(name string, kind familyKind, bounds []float64) *labeledFamily {
	if f := (*r.labeled.Load())[name]; f != nil {
		if f.kind != kind {
			panic("obs: labeled family " + name + " redeclared with a different kind")
		}
		return f
	}
	r.growMu.Lock()
	defer r.growMu.Unlock()
	m := *r.labeled.Load()
	if f := m[name]; f != nil {
		if f.kind != kind {
			panic("obs: labeled family " + name + " redeclared with a different kind")
		}
		return f
	}
	f := &labeledFamily{name: name, kind: kind, bounds: bounds}
	sm := map[string]*labeledSeries{}
	f.series.Store(&sm)
	next := make(map[string]*labeledFamily, len(m)+1)
	for k, v := range m {
		next[k] = v
	}
	next[name] = f
	r.labeled.Store(&next)
	return f
}

// get returns the series for the given labels, creating it (or routing to
// the overflow series past the cardinality cap) on first use.  growMu is the
// registry's growth lock.
func (f *labeledFamily) get(r *Registry, labels []Label) *labeledSeries {
	key, _ := seriesKey(labels)
	if s := (*f.series.Load())[key]; s != nil {
		return s
	}
	r.growMu.Lock()
	defer r.growMu.Unlock()
	m := *f.series.Load()
	if s := m[key]; s != nil {
		return s
	}
	if len(m) >= MaxSeriesPerFamily {
		if s := f.overflow.Load(); s != nil {
			return s
		}
		s := f.newSeries(overflowLabels)
		f.overflow.Store(s)
		return s
	}
	_, sorted := seriesKey(labels)
	s := f.newSeries(sorted)
	next := make(map[string]*labeledSeries, len(m)+1)
	for k, v := range m {
		next[k] = v
	}
	next[key] = s
	f.series.Store(&next)
	return s
}

// newSeries allocates one series of the family's kind.  labels must already
// be sorted (seriesKey order).
func (f *labeledFamily) newSeries(labels []Label) *labeledSeries {
	key, sorted := seriesKey(labels)
	s := &labeledSeries{labels: sorted, key: key}
	switch f.kind {
	case famCounter:
		s.c = new(Counter)
	case famGauge:
		s.g = new(Gauge)
	case famHistogram:
		s.h = &Histogram{h: newHistogram(f.bounds)}
	}
	return s
}

// lookup returns the series for the given labels without creating it, or nil.
// The overflow series is addressable by its {overflow="true"} label set.
func (f *labeledFamily) lookup(labels []Label) *labeledSeries {
	if f == nil {
		return nil
	}
	key, _ := seriesKey(labels)
	if s := (*f.series.Load())[key]; s != nil {
		return s
	}
	if s := f.overflow.Load(); s != nil && s.key == key {
		return s
	}
	return nil
}

// LabeledCounter returns (creating on first use) the counter series of the
// named family with the given labels.  The handle stays valid for the life
// of the registry; cache it on hot paths.
func (r *Registry) LabeledCounter(family string, labels ...Label) *Counter {
	return r.family(family, famCounter, nil).get(r, labels).c
}

// AddLabeled increments a labeled counter series by delta — the convenience
// form for cold paths; hot paths should cache the LabeledCounter handle.
func (r *Registry) AddLabeled(family string, delta int64, labels ...Label) {
	r.LabeledCounter(family, labels...).Add(delta)
}

// LabeledCounterValue reads a stored labeled counter series without creating
// it (0 if the family or series does not exist).  It does not read counter
// sources; WriteTo renders those.
func (r *Registry) LabeledCounterValue(family string, labels ...Label) int64 {
	if s := (*r.labeled.Load())[family].lookup(labels); s != nil {
		return s.c.Value()
	}
	return 0
}

// LabeledGauge returns (creating on first use) the gauge series of the named
// family with the given labels.
func (r *Registry) LabeledGauge(family string, labels ...Label) *Gauge {
	return r.family(family, famGauge, nil).get(r, labels).g
}

// LabeledHistogram returns (creating on first use) the histogram series of
// the named family with the given labels.  bounds is used only when the call
// creates the family; subsequent calls may pass nil.
func (r *Registry) LabeledHistogram(family string, bounds []float64, labels ...Label) *Histogram {
	return r.family(family, famHistogram, bounds).get(r, labels).h
}

// LabeledHistogramSnapshot reads one labeled histogram series without
// creating it; ok is false if the family or series does not exist.
func (r *Registry) LabeledHistogramSnapshot(family string, labels ...Label) (HistogramSnapshot, bool) {
	if s := (*r.labeled.Load())[family].lookup(labels); s != nil {
		return s.h.Snapshot(), true
	}
	return HistogramSnapshot{}, false
}

// LabeledHistogramSeries is one series of a labeled histogram family.
type LabeledHistogramSeries struct {
	Labels []Label
	Snap   HistogramSnapshot
}

// LabeledHistograms snapshots every series of a labeled histogram family
// (including the overflow series, if any), sorted by canonical label key.
// It returns nil for unknown or non-histogram families.
func (r *Registry) LabeledHistograms(family string) []LabeledHistogramSeries {
	f := (*r.labeled.Load())[family]
	if f == nil || f.kind != famHistogram {
		return nil
	}
	out := make([]LabeledHistogramSeries, 0, len(*f.series.Load())+1)
	for _, s := range f.sortedSeries() {
		out = append(out, LabeledHistogramSeries{
			Labels: append([]Label(nil), s.labels...),
			Snap:   s.h.Snapshot(),
		})
	}
	return out
}

// LabeledSeriesKeys returns the canonical label strings of a family's live
// series (overflow included), sorted — the exposition-order index of the
// family.  It returns nil for unknown families.
func (r *Registry) LabeledSeriesKeys(family string) []string {
	f := (*r.labeled.Load())[family]
	if f == nil {
		return nil
	}
	ss := f.sortedSeries()
	out := make([]string, len(ss))
	for i, s := range ss {
		out[i] = s.key
	}
	return out
}

// sortedSeries returns the family's series (overflow last among equals)
// sorted by canonical key.
func (f *labeledFamily) sortedSeries() []*labeledSeries {
	m := *f.series.Load()
	out := make([]*labeledSeries, 0, len(m)+1)
	for _, s := range m {
		out = append(out, s)
	}
	if s := f.overflow.Load(); s != nil {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out
}

// labeledFamilies returns the registry's families of one kind, sorted by name.
func (r *Registry) labeledFamilies(kind familyKind) []*labeledFamily {
	m := *r.labeled.Load()
	out := make([]*labeledFamily, 0, len(m))
	for _, f := range m {
		if f.kind == kind {
			out = append(out, f)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}
