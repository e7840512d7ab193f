package ambit

// Differential for batch-level fusion: Batch.Run runs each bank's items as
// one stream, and coalesces consecutive same-opcode bulk items into one
// fused word-parallel evaluation unless something needs the individual
// commands.  These tests prove the fused evaluation bit- and Stats-identical
// to unfused row trains by running the same dependency-heavy program —
// chained bulk ops, a compiled-function call, a copy, a fill, and a
// popcount — both ways: fused (plain System) against row-at-a-time (tracer
// armed with a no-op sink, which makes the controller decline fusion but
// must not perturb results or statistics).

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

type batchOutcome struct {
	data   [][]uint64
	pop    int64
	report BatchReport
	stats  Stats
}

// runFusedBatchWorkload drives one freshly-built System through a program
// whose every op kind the fused executor handles, with real data
// dependencies between items in the same bank stream (c feeds c, d feeds
// d), and returns the complete observable outcome.
func runFusedBatchWorkload(t *testing.T, workers int, opts ...Option) batchOutcome {
	t.Helper()
	sys, err := New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	if workers > 0 {
		sys.eng.SetWorkers(workers)
	}
	rowBits := int64(sys.RowSizeBits())
	bits := 12 * rowBits // wraps the 8-bank default, so banks carry multi-item streams
	a, b := sys.MustAlloc(bits), sys.MustAlloc(bits)
	c, d := sys.MustAlloc(bits), sys.MustAlloc(bits)
	rng := rand.New(rand.NewSource(17))
	wa, wb := make([]uint64, a.WordCount()), make([]uint64, b.WordCount())
	for i := range wa {
		wa[i], wb[i] = rng.Uint64(), rng.Uint64()
	}
	if err := a.Write(wa, Backdoor()); err != nil {
		t.Fatal(err)
	}
	if err := b.Write(wb, Backdoor()); err != nil {
		t.Fatal(err)
	}
	andor, err := sys.Compile("andor", Or(And(Var(0), Var(1)), Var(2)))
	if err != nil {
		t.Fatal(err)
	}

	batch := sys.NewBatch()
	if err := batch.And(c, a, b); err != nil {
		t.Fatal(err)
	}
	if err := batch.And(d, a, b); err != nil { // same opcode, coalesces with the previous item per bank
		t.Fatal(err)
	}
	if err := batch.Xor(d, d, a); err != nil { // RAW on d within each bank stream
		t.Fatal(err)
	}
	if err := batch.Or(c, c, d); err != nil { // joins both chains
		t.Fatal(err)
	}
	if err := batch.Not(d, d); err != nil {
		t.Fatal(err)
	}
	if err := batch.Call(andor, []*Bitvector{d}, a, b, d); err != nil {
		t.Fatal(err)
	}
	if err := batch.Copy(d, c); err != nil { // WAR then RAW on d
		t.Fatal(err)
	}
	if err := batch.Fill(b, true); err != nil {
		t.Fatal(err)
	}
	if err := batch.Xnor(c, c, b); err != nil { // reads the filled b
		t.Fatal(err)
	}
	pc, err := batch.Popcount(c)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := batch.Run()
	if err != nil {
		t.Fatal(err)
	}
	pop, err := pc.Value()
	if err != nil {
		t.Fatal(err)
	}
	var out batchOutcome
	for _, v := range []*Bitvector{a, b, c, d} {
		words, err := v.Read(Backdoor())
		if err != nil {
			t.Fatal(err)
		}
		out.data = append(out.data, words)
	}
	out.pop, out.report, out.stats = pop, rep, sys.Stats()
	return out
}

// TestBatchFusionDifferential: the fused per-bank pass must be
// indistinguishable — contents, popcount, BatchReport, Stats — from unfused
// row trains, which a no-op tracer forces.
func TestBatchFusionDifferential(t *testing.T) {
	want := runFusedBatchWorkload(t, 0, WithTracer(NewTracer(nopTraceSink{}))) // row-train reference
	for _, workers := range []int{0, 1, 4} {
		got := runFusedBatchWorkload(t, workers)
		if !reflect.DeepEqual(got.data, want.data) {
			t.Errorf("workers=%d: fused contents diverged from stepwise reference", workers)
		}
		if got.pop != want.pop {
			t.Errorf("workers=%d: fused popcount = %d, stepwise %d", workers, got.pop, want.pop)
		}
		if got.report != want.report {
			t.Errorf("workers=%d: fused report = %+v, stepwise %+v", workers, got.report, want.report)
		}
		if !reflect.DeepEqual(got.stats, want.stats) {
			t.Errorf("workers=%d: fused stats diverged:\n got %+v\nwant %+v", workers, got.stats, want.stats)
		}
	}
}

// TestBatchFusionFaultedFallsBack: with a fault model armed the armed
// subarrays' injectors make the controller decline fusion (fused evaluation
// would elide the per-train RNG draws), and the row trains that run instead
// must stay deterministic at every worker count.
func TestBatchFusionFaultedFallsBack(t *testing.T) {
	fc := FaultConfig{TRABitRate: 1e-3, TRARowRate: 2e-3, DCCBitRate: 5e-4, RowVariation: 1.3, WeakColumnFraction: 0.05, Seed: 11}
	want := runFusedBatchWorkload(t, 0, WithFaultModel(fc))
	if want.stats.InjectedFaults == 0 {
		t.Fatal("workload drew no faults; the faulted differential is vacuous")
	}
	for _, workers := range []int{1, 4} {
		got := runFusedBatchWorkload(t, workers, WithFaultModel(fc))
		if !reflect.DeepEqual(got.data, want.data) {
			t.Errorf("workers=%d: faulted batch contents nondeterministic", workers)
		}
		if !reflect.DeepEqual(got.stats, want.stats) {
			t.Errorf("workers=%d: faulted batch stats nondeterministic", workers)
		}
	}
}

// batchGolden is the pinned outcome of one runFusedBatchWorkload
// configuration: a digest over contents, popcount, BatchReport and Stats,
// plus the readable figures a mismatch is usually about.
type batchGolden struct {
	Digest         string      `json:"digest"`
	Popcount       int64       `json:"popcount"`
	Report         BatchReport `json:"report"`
	InjectedFaults int64       `json:"injected_faults"`
	CorrectedBits  int64       `json:"corrected_bits"`
	Retries        int64       `json:"retries"`
}

func (o batchOutcome) golden() batchGolden {
	h := fnv.New64a()
	fmt.Fprintf(h, "%v|%d|%+v|%+v", o.data, o.pop, o.report, o.stats)
	return batchGolden{
		Digest:         fmt.Sprintf("%016x", h.Sum64()),
		Popcount:       o.pop,
		Report:         o.report,
		InjectedFaults: o.stats.InjectedFaults,
		CorrectedBits:  o.stats.CorrectedBits,
		Retries:        o.stats.Retries,
	}
}

// TestBatchOutcomeGolden pins the exact outcome of the batch workload under
// ECC, under an armed fault model, and under both, at workers 1, 2 and 8:
// the worker-count differentials above prove determinism, this proves the
// outcome itself does not move.  Run with -update to rewrite
// testdata/batch_outcomes.json after an intentional change.
func TestBatchOutcomeGolden(t *testing.T) {
	fc := FaultConfig{TRABitRate: 1e-3, TRARowRate: 2e-3, DCCBitRate: 5e-4, RowVariation: 1.3, WeakColumnFraction: 0.05, Seed: 7}
	ecc := WithReliability(Reliability{ECC: true, MaxRetries: 4})
	configs := []struct {
		name string
		opts []Option
	}{
		{"ecc", []Option{ecc}},
		{"faulted", []Option{WithFaultModel(fc)}},
		{"faulted+ecc", []Option{WithFaultModel(fc), ecc}},
	}
	got := map[string]batchGolden{}
	for _, c := range configs {
		for _, workers := range []int{1, 2, 8} {
			g := runFusedBatchWorkload(t, workers, c.opts...).golden()
			if prev, ok := got[c.name]; ok && prev != g {
				t.Errorf("%s: workers=%d outcome %+v differs from workers=1 %+v", c.name, workers, g, prev)
			}
			got[c.name] = g
		}
	}
	path := filepath.Join("testdata", "batch_outcomes.json")
	if *updateGolden {
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test -run TestBatchOutcomeGolden -update` to create)", err)
	}
	var want map[string]batchGolden
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	for _, c := range configs {
		if got[c.name] != want[c.name] {
			t.Errorf("%s: outcome %+v, golden %+v", c.name, got[c.name], want[c.name])
		}
	}
}
