package ambit

import (
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
	"sync"
	"testing"

	"ambit/internal/controller"
	"ambit/internal/dram"
	"ambit/internal/service/loadgen"
)

// exposition renders reg and returns its samples keyed by series identity.
func exposition(t *testing.T, reg *MetricsRegistry) map[string]float64 {
	t.Helper()
	var b strings.Builder
	if _, err := reg.WriteTo(&b); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	return loadgen.ParseSamples(b.String())
}

// reliabilityFamilies names each metric family the ledger view renders and
// the Stats field it must equal, written out here rather than taken from the
// view's code, so a field rendered under another's name shows.  The first
// four also render System-wide ([:4] below).
var reliabilityFamilies = []struct {
	family     string
	tenantOnly bool
	field      func(Stats) int64
}{
	{"retries", false, func(st Stats) int64 { return st.Retries }},
	{"corrected_bits", false, func(st Stats) int64 { return st.CorrectedBits }},
	{"detected_rows", false, func(st Stats) int64 { return st.DetectedRows }},
	{"uncorrectable_rows", false, func(st Stats) int64 { return st.UncorrectableRows }},
	{"injected_faults", true, func(st Stats) int64 { return st.InjectedFaults }},
	{"injected_fault_bits", true, func(st Stats) int64 { return st.InjectedFaultBits }},
}

// ledgerCounts lists the integer counters a tenant ledger carries, by name.
func ledgerCounts(st Stats) map[string]int64 {
	m := map[string]int64{
		"RowOps": st.RowOps, "FuncOps": st.FuncOps, "MajOps": st.MajOps, "Copies": st.Copies,
		"CorrectedBits": st.CorrectedBits, "Retries": st.Retries, "DetectedRows": st.DetectedRows,
		"UncorrectableRows": st.UncorrectableRows,
		"InjectedFaults":    st.InjectedFaults, "InjectedFaultBits": st.InjectedFaultBits,
	}
	for op, n := range st.BulkOps {
		m["BulkOps["+controller.Op(op).String()+"]"] = n
	}
	return m
}

// ledgerSystem builds a faulted ECC System with Maj on the small faulty
// geometry, the registry attached, and returns it with its registry.
// RetryThresholdBits 8 and one retry make a few rows uncorrectable.
func ledgerSystem(t *testing.T) (*System, *MetricsRegistry) {
	t.Helper()
	reg := NewMetrics()
	sys, err := New(
		WithDRAM(dram.Config{Geometry: faultyGeom(), Timing: dram.DDR3_1600()}),
		WithMetrics(reg),
		WithFaultModel(FaultConfig{TRABitRate: 2e-4, DCCBitRate: 1e-4, RowVariation: 1, Seed: 23}),
		WithReliability(Reliability{ECC: true, MaxRetries: 1, RetryThresholdBits: 8}),
		WithManyRowMaj(5),
	)
	if err != nil {
		t.Fatal(err)
	}
	return sys, reg
}

// runTenant runs one round of tagged work for a tenant on its own vectors:
// faulted ECC bulk ops, Maj, Copy, Fill and a compiled function.  An
// exhausted retry budget is part of the workload, not a failure.
func runTenant(t *testing.T, tv Tagged, f *Func, v []*Bitvector) {
	t.Helper()
	steps := []func() error{
		func() error { return tv.Apply(controller.OpAnd, v[2], v[0], v[1]) },
		func() error { return tv.Apply(controller.OpXor, v[2], v[2], v[0]) },
		func() error { return tv.Maj(v[3], v[0], v[1], v[2]) },
		func() error { return tv.Copy(v[4], v[3]) },
		func() error { return tv.Fill(v[5], true) },
		func() error { return tv.RunFunc(f, []*Bitvector{v[5]}, v[0], v[1], v[4]) },
	}
	for i, step := range steps {
		if err := step(); err != nil && !errors.Is(err, ErrUncorrectable) {
			t.Fatalf("%s step %d: %v", tv.Tag().NS, i, err)
		}
	}
}

// ledgerVectors allocates n 4-row vectors filled with a seeded pattern.
func ledgerVectors(t *testing.T, sys *System, n int, seed uint64) []*Bitvector {
	t.Helper()
	v := make([]*Bitvector, n)
	for i := range v {
		v[i] = sys.MustAlloc(4 * int64(sys.RowSizeBits()))
		w := make([]uint64, v[i].WordCount())
		for j := range w {
			w[j] = (seed + uint64(i)) * 0x9e3779b97f4a7c15 * uint64(j+1)
		}
		if err := v[i].Write(w, Backdoor()); err != nil {
			t.Fatal(err)
		}
	}
	return v
}

// TestTenantLedgerPartition runs two tenants' tagged work one operation at
// a time and checks that the tenant ledgers partition the System's: every
// integer counter sums exactly to Stats, per-bank busy time sums to
// Stats.BankBusyNS, the System-wide fields stay out of the tenant ledgers,
// and every series the metrics view renders equals its ledger field.
func TestTenantLedgerPartition(t *testing.T) {
	sys, reg := ledgerSystem(t)
	f, err := sys.Compile("or3", Or(Var(0), Var(1), Var(2)))
	if err != nil {
		t.Fatal(err)
	}
	tenants := []string{"alice", "bob"}
	vecs := map[string][]*Bitvector{}
	for i, ns := range tenants {
		vecs[ns] = ledgerVectors(t, sys, 6, uint64(i+1))
	}
	for round := 0; round < 6; round++ {
		for _, ns := range tenants {
			runTenant(t, sys.Tagged(Tag{NS: ns, Req: fmt.Sprint(round)}), f, vecs[ns])
		}
	}
	st := sys.Stats()
	for _, need := range []string{"CorrectedBits", "Retries", "DetectedRows", "UncorrectableRows", "InjectedFaults", "MajOps", "FuncOps", "Copies"} {
		if ledgerCounts(st)[need] == 0 {
			t.Fatalf("workload left Stats.%s at 0; retune it so the test covers that counter (%v)", need, st)
		}
	}

	sum := map[string]int64{}
	busy := make([]float64, len(st.BankBusyNS))
	for _, ns := range tenants {
		ts, ok := sys.TagStats(ns)
		if !ok {
			t.Fatalf("TagStats(%q) missing", ns)
		}
		if ts.CorrectedBits == 0 {
			t.Errorf("tenant %s: no corrected bits attributed", ns)
		}
		if ts.ElapsedNS != 0 || ts.CoherenceNS != 0 || ts.ChannelBytes != 0 || ts.QuarantinedRows != 0 || ts.FaultProfile != "" {
			t.Errorf("tenant %s carries System-wide fields: %+v", ns, ts)
		}
		for name, n := range ledgerCounts(ts) {
			sum[name] += n
		}
		for b, ns := range ts.BankBusyNS {
			busy[b] += ns
		}
	}
	for name, want := range ledgerCounts(st) {
		if sum[name] != want {
			t.Errorf("tenant %s sum to %d, Stats has %d", name, sum[name], want)
		}
	}
	for b, want := range st.BankBusyNS {
		if math.Abs(busy[b]-want) > 1e-9*want {
			t.Errorf("bank %d: tenant busy time sums to %v ns, Stats.BankBusyNS = %v", b, busy[b], want)
		}
	}
	if _, ok := sys.TagStats("carol"); ok {
		t.Error("TagStats reports a ledger for a tenant that never ran")
	}

	samples := exposition(t, reg)
	for _, c := range reliabilityFamilies {
		metric := "ambit_" + c.family + "_total"
		if got, want := samples[metric], c.field(st); !c.tenantOnly && got != float64(want) {
			t.Errorf("%s = %v, Stats has %d", metric, got, want)
		}
		if _, ok := samples[metric]; c.tenantOnly && ok {
			t.Errorf("%s rendered System-wide; it is a tenant-only family", metric)
		}
		for _, ns := range tenants {
			ts, _ := sys.TagStats(ns)
			series := fmt.Sprintf("%s{ns=%q}", metric, ns)
			if got, want := samples[series], c.field(ts); got != float64(want) {
				t.Errorf("%s = %v, ledger has %d", series, got, want)
			}
		}
	}
}

// TestResetStatsClearsReliabilityExposition: after ResetStats the metrics
// view has no nonzero reliability sample — System-wide or per tenant — and
// the next operations count from zero, in step with Stats.
func TestResetStatsClearsReliabilityExposition(t *testing.T) {
	sys, reg := ledgerSystem(t)
	f, err := sys.Compile("or3", Or(Var(0), Var(1), Var(2)))
	if err != nil {
		t.Fatal(err)
	}
	v := ledgerVectors(t, sys, 6, 7)
	runTenant(t, sys.Tagged(Tag{NS: "alice"}), f, v)
	if exposition(t, reg)["ambit_corrected_bits_total"] == 0 {
		t.Fatal("workload corrected no bits; retune it so the reset has something to clear")
	}
	sys.ResetStats()
	for series, v := range exposition(t, reg) {
		for _, c := range reliabilityFamilies {
			if strings.HasPrefix(series, "ambit_"+c.family+"_total") && v != 0 {
				t.Errorf("after ResetStats: %s = %v", series, v)
			}
		}
	}
	if _, ok := sys.TagStats("alice"); ok {
		t.Error("TagStats still reports alice after ResetStats")
	}
	if err := sys.And(v[2], v[0], v[1]); err != nil && !errors.Is(err, ErrUncorrectable) {
		t.Fatal(err)
	}
	st, samples := sys.Stats(), exposition(t, reg)
	for _, c := range reliabilityFamilies[:4] {
		if got := samples["ambit_"+c.family+"_total"]; got != float64(c.field(st)) {
			t.Errorf("after reset and one op: ambit_%s_total = %v, Stats has %d", c.family, got, c.field(st))
		}
	}
}

// TestScrapeRacesExecution renders the registry in a loop while untagged
// and tagged direct operations and an ECC Batch run; under -race it proves
// every field the view reads is written under statsMu.  Afterwards the view
// agrees with Stats.
func TestScrapeRacesExecution(t *testing.T) {
	sys, reg := ledgerSystem(t)
	f, err := sys.Compile("or3", Or(Var(0), Var(1), Var(2)))
	if err != nil {
		t.Fatal(err)
	}
	vecs := [][]*Bitvector{ledgerVectors(t, sys, 6, 1), ledgerVectors(t, sys, 6, 2), ledgerVectors(t, sys, 6, 3), ledgerVectors(t, sys, 6, 4)}
	done := make(chan struct{})
	var scrapes sync.WaitGroup
	scrapes.Add(1)
	go func() {
		defer scrapes.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if _, err := reg.WriteTo(io.Discard); err != nil {
				t.Error(err)
				return
			}
			sys.TagStats("alice")
		}
	}()
	var work sync.WaitGroup
	for i, ns := range []string{"alice", "bob"} {
		work.Add(1)
		go func(tv Tagged, v []*Bitvector) {
			defer work.Done()
			for r := 0; r < 3; r++ {
				runTenant(t, tv, f, v)
			}
		}(sys.Tagged(Tag{NS: ns}), vecs[i])
	}
	work.Add(2)
	go func() {
		defer work.Done()
		v := vecs[2]
		for r := 0; r < 3; r++ {
			if err := sys.Xor(v[2], v[0], v[1]); err != nil && !errors.Is(err, ErrUncorrectable) {
				t.Error(err)
			}
		}
	}()
	go func() {
		defer work.Done()
		v := vecs[3]
		for r := 0; r < 3; r++ {
			bt := sys.NewBatch()
			if err := bt.And(v[2], v[0], v[1]); err != nil {
				t.Error(err)
			}
			if err := bt.Or(v[3], v[1], v[2]); err != nil {
				t.Error(err)
			}
			if _, err := bt.Run(); err != nil && !errors.Is(err, ErrUncorrectable) {
				t.Error(err)
			}
		}
	}()
	work.Wait()
	close(done)
	scrapes.Wait()
	st, samples := sys.Stats(), exposition(t, reg)
	for _, c := range reliabilityFamilies[:4] {
		if got := samples["ambit_"+c.family+"_total"]; got != float64(c.field(st)) {
			t.Errorf("ambit_%s_total = %v, Stats has %d", c.family, got, c.field(st))
		}
	}
}
