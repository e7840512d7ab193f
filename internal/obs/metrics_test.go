package obs

import (
	"strings"
	"testing"
)

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	r.ObserveLatencyNS("and", 49)  // <= 50 bucket (bounds are inclusive)
	r.ObserveLatencyNS("and", 50)  // still the 50 bucket
	r.ObserveLatencyNS("and", 196) // 250 bucket
	r.ObserveLatencyNS("and", 2e7) // +Inf overflow
	h, ok := r.LatencyNS("and")
	if !ok {
		t.Fatal("histogram missing")
	}
	if h.Count != 4 {
		t.Fatalf("count = %d, want 4", h.Count)
	}
	if want := 49 + 50 + 196 + 2e7; h.Sum != want {
		t.Fatalf("sum = %g, want %g", h.Sum, want)
	}
	if h.Counts[0] != 2 {
		t.Fatalf("le=50 bucket = %d, want 2", h.Counts[0])
	}
	if h.Counts[len(h.Counts)-1] != 1 {
		t.Fatalf("+Inf bucket = %d, want 1", h.Counts[len(h.Counts)-1])
	}
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total != h.Count {
		t.Fatalf("bucket counts sum to %d, want %d", total, h.Count)
	}
}

func TestCounters(t *testing.T) {
	r := NewRegistry()
	r.Add("retries", 0)
	r.Add("retries", 3)
	r.Add("corrected_bits", 17)
	if got := r.Counter("retries"); got != 3 {
		t.Fatalf("retries = %d, want 3", got)
	}
	if got := r.Counter("never_touched"); got != 0 {
		t.Fatalf("untouched counter = %d, want 0", got)
	}
}

func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.ObserveLatencyNS("and", 196)
	r.ObserveLatencyNS("xor", 335)
	r.ObserveEnergyNJ("and", 42.5)
	r.Add("retries", 2)
	var b strings.Builder
	if _, err := r.WriteTo(&b); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE ambit_op_latency_ns histogram",
		`ambit_op_latency_ns_bucket{op="and",le="250"} 1`,
		`ambit_op_latency_ns_bucket{op="and",le="+Inf"} 1`,
		`ambit_op_latency_ns_sum{op="and"} 196`,
		`ambit_op_latency_ns_count{op="xor"} 1`,
		"# TYPE ambit_op_energy_nj histogram",
		`ambit_op_energy_nj_sum{op="and"} 42.5`,
		"# TYPE ambit_retries_total counter",
		"ambit_retries_total 2",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// Cumulative bucket semantics: le="+Inf" equals the count.
	if strings.Count(out, `le="+Inf"`) != 3 {
		t.Fatalf("want 3 +Inf buckets (and, xor latency; and energy):\n%s", out)
	}
	if got := r.Ops(); len(got) != 2 || got[0] != "and" || got[1] != "xor" {
		t.Fatalf("Ops() = %v, want [and xor]", got)
	}
}

// TestCounterSources checks the scrape-time counter hook: samples sum across
// sources and with stored counters of the same family and labels, families
// and series keep the stored counters' order, and zero samples render
// nothing — not even a HELP/TYPE block.
func TestCounterSources(t *testing.T) {
	r := NewRegistry()
	r.Add("retries", 2)
	r.AddLabeled("retries", 5, Label{Key: "ns", Value: "b"})
	ns := func(v string) Label { return Label{Key: "ns", Value: v} }
	r.AddCounterSource(func(emit func(string, int64, ...Label)) {
		emit("retries", 3)
		emit("retries", 1, ns("b"))
		emit("retries", 4, ns("a"))
		emit("corrected_bits", 7)
		emit("zeroed", 0)
		emit("zeroed", 0, ns("a"))
	})
	r.AddCounterSource(func(emit func(string, int64, ...Label)) {
		emit("retries", 10)
		emit("retries", 0, ns("c"))
		emit("corrected_bits", 1, Label{Key: "overflow", Value: "true"})
		emit("corrected_bits", 2, ns("a"))
	})
	var b strings.Builder
	if _, err := r.WriteTo(&b); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	want := `# HELP ambit_corrected_bits_total Cumulative corrected bits.
# TYPE ambit_corrected_bits_total counter
ambit_corrected_bits_total 7
ambit_corrected_bits_total{ns="a"} 2
ambit_corrected_bits_total{overflow="true"} 1
# HELP ambit_retries_total Cumulative retries.
# TYPE ambit_retries_total counter
ambit_retries_total 15
ambit_retries_total{ns="a"} 4
ambit_retries_total{ns="b"} 6
`
	if got := b.String(); got != want {
		t.Fatalf("exposition:\n%s\nwant:\n%s", got, want)
	}
	// The readers of stored counters do not see the sources.
	if got := r.Counter("retries"); got != 2 {
		t.Errorf("Counter(retries) = %d, want the stored 2", got)
	}
	if got := r.LabeledCounterValue("retries", ns("b")); got != 5 {
		t.Errorf("LabeledCounterValue(retries, b) = %d, want the stored 5", got)
	}
}
