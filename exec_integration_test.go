package ambit

// Integration tests for the sharded execution core: parallel dispatch must be
// a pure host-side optimization — bit-identical data and statistics at any
// worker count, pinned by a recorded golden — and partial failures must
// account the completed work the same way at any worker count.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
)

// execWorkload drives one System through a representative mix of direct ops,
// a batch, and channel traffic, returning every vector's final content.
func execWorkload(t *testing.T, sys *System) [][]uint64 {
	t.Helper()
	rowBits := int64(sys.RowSizeBits())
	bits := 16 * rowBits // 16 rows, wrapping the 8-bank default twice
	a, b := sys.MustAlloc(bits), sys.MustAlloc(bits)
	c, d := sys.MustAlloc(bits), sys.MustAlloc(bits)
	rng := rand.New(rand.NewSource(42))
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
	if err := sys.And(c, a, b); err != nil {
		t.Fatal(err)
	}
	if err := sys.Xor(d, a, b); err != nil {
		t.Fatal(err)
	}
	if err := sys.Not(d, d); err != nil {
		t.Fatal(err)
	}
	if err := sys.Or(c, c, d); err != nil {
		t.Fatal(err)
	}
	if err := sys.Copy(d, a); err != nil {
		t.Fatal(err)
	}
	if err := sys.Fill(b, true); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Popcount(c); err != nil {
		t.Fatal(err)
	}
	batch := sys.NewBatch()
	if err := batch.Nand(d, a, c); err != nil {
		t.Fatal(err)
	}
	if err := batch.Xnor(c, a, d); err != nil {
		t.Fatal(err)
	}
	if _, err := batch.Run(); err != nil {
		t.Fatal(err)
	}
	var out [][]uint64
	for _, v := range []*Bitvector{a, b, c, d} {
		words, err := v.Read(Backdoor())
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, words)
	}
	return out
}

// TestParallelExecutionDeterministic runs the same workload on one worker
// (the reference), on the default pool, and on 2, 4 and 8 workers, and
// requires bit-identical data and bit-identical statistics — the execution
// core's central guarantee.
func TestParallelExecutionDeterministic(t *testing.T) {
	type outcome struct {
		data  [][]uint64
		stats Stats
	}
	run := func(workers int) outcome {
		sys, err := New(WithExecWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		data := execWorkload(t, sys)
		return outcome{data: data, stats: sys.Stats()}
	}
	want := run(1)
	for _, tc := range []struct {
		name    string
		workers int
	}{
		{"parallel-default", 0},
		{"parallel-2", 2},
		{"parallel-4", 4},
		{"parallel-8", 8},
	} {
		got := run(tc.workers)
		if !reflect.DeepEqual(got.data, want.data) {
			t.Errorf("%s: data diverged from workers=1", tc.name)
		}
		if !reflect.DeepEqual(got.stats, want.stats) {
			t.Errorf("%s: stats diverged:\n got %+v\nwant %+v", tc.name, got.stats, want.stats)
		}
	}
}

// TestParallelExecutionRaceStress hammers one System from many goroutines —
// ops on disjoint vectors, ops sharing sources, cross-bank copies (which
// upgrade to the exclusive lock), stats snapshots, and peeks — under a
// widened worker pool.  Run with -race this is the data-race gate for the
// execMu/statsMu/bank-shard split.
func TestParallelExecutionRaceStress(t *testing.T) {
	sys, err := New(WithExecWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	rowBits := int64(sys.RowSizeBits())
	bits := 8 * rowBits
	shared := sys.MustAlloc(bits)
	if err := sys.Fill(shared, true); err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		dst, src := sys.MustAlloc(bits), sys.MustAlloc(bits)
		// Base slot 1 puts every row of cross on a different bank from
		// the same row of dst (base slot 0).
		cross, err := sys.AllocAt(bits, 1)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < 10; iter++ {
				var err error
				switch (g + iter) % 4 {
				case 0:
					err = sys.And(dst, src, shared)
				case 1:
					err = sys.Or(dst, dst, shared) // overlapping: dst aliases a source
				case 2:
					err = sys.Not(dst, src)
				default:
					err = sys.Xor(dst, src, shared)
				}
				if err == nil && iter%2 == 1 {
					err = sys.Copy(cross, dst)
				}
				if err != nil {
					t.Errorf("goroutine %d iter %d: %v", g, iter, err)
					return
				}
				if iter%3 == 0 {
					_ = sys.Stats()
					if _, err := dst.Read(Backdoor()); err != nil {
						t.Errorf("goroutine %d: Peek: %v", g, err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	st := sys.Stats()
	if st.TotalBulkOps() != goroutines*10+0 {
		// +0: Fill is a Copy-class op, not a BulkOp.
		t.Fatalf("TotalBulkOps = %d, want %d", st.TotalBulkOps(), goroutines*10)
	}
	if st.RowOps != int64(goroutines*10*8) {
		t.Fatalf("RowOps = %d, want %d", st.RowOps, goroutines*10*8)
	}
	if want := int64(8 + goroutines*5*8); st.Copies != want { // the Fill plus 5 copies per goroutine
		t.Fatalf("Copies = %d, want %d", st.Copies, want)
	}
}

// armUncorrectable sets up a system whose And over six-row vectors fails at
// row index 2 with ErrUncorrectable: an all-ones TRA fault armed on row 2's
// subarray defeats the first TMR replica with more disagreeing bits than the
// retry threshold, and a zero retry budget surfaces the failure immediately.
func armUncorrectable(t *testing.T, workers int) (*System, *Bitvector, *Bitvector, *Bitvector) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Reliability = Reliability{ECC: true, MaxRetries: 0}
	cfg.ExecWorkers = workers
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rowBits := int64(sys.RowSizeBits())
	bits := 6 * rowBits
	a, b, d := sys.MustAlloc(bits), sys.MustAlloc(bits), sys.MustAlloc(bits)
	if err := sys.Fill(a, true); err != nil {
		t.Fatal(err)
	}
	if err := sys.Fill(b, true); err != nil {
		t.Fatal(err)
	}
	mask := make([]uint64, sys.RowSizeBits()/64)
	for i := range mask {
		mask[i] = ^uint64(0)
	}
	addr := d.Row(2)
	sys.Device().Bank(addr.Bank).Subarray(addr.Subarray).InjectTRAFault(mask)
	return sys, a, b, d
}

// TestPartialFailureAccountingSerial checks that the error path does not
// depend on the worker count: at 1 and at 8 workers a failure at row 2 stops
// only row 2's bank, and the outcome — RowOps, ElapsedNS, UncorrectableRows
// and the surviving rows' contents — is the same.
func TestPartialFailureAccountingSerial(t *testing.T) {
	type outcome struct {
		stats Stats
		data  []uint64
	}
	run := func(workers int) outcome {
		sys, a, b, d := armUncorrectable(t, workers)
		sys.ResetStats()
		if err := sys.And(d, a, b); !errors.Is(err, ErrUncorrectable) {
			t.Fatalf("workers=%d: And error = %v, want ErrUncorrectable", workers, err)
		}
		data, err := d.Read(Backdoor())
		if err != nil {
			t.Fatal(err)
		}
		return outcome{sys.Stats(), data}
	}
	one, eight := run(1), run(8)
	for _, o := range []outcome{one, eight} {
		if o.stats.RowOps != 5 {
			t.Errorf("RowOps = %d, want 5 (other banks complete)", o.stats.RowOps)
		}
		if o.stats.UncorrectableRows != 1 {
			t.Errorf("UncorrectableRows = %d, want 1", o.stats.UncorrectableRows)
		}
		if o.stats.TotalBulkOps() != 0 {
			t.Errorf("TotalBulkOps = %d, want 0 (op failed)", o.stats.TotalBulkOps())
		}
	}
	if one.stats.ElapsedNS <= 0 || one.stats.ElapsedNS != eight.stats.ElapsedNS {
		t.Errorf("ElapsedNS = %v at 1 worker, %v at 8; want equal and > 0", one.stats.ElapsedNS, eight.stats.ElapsedNS)
	}
	if !reflect.DeepEqual(one.data, eight.data) {
		t.Error("destination contents differ between 1 and 8 workers")
	}
}

// TestPartialFailureAccountingParallel checks the per-bank prefix semantics
// at the default worker count: row 2's bank fails, the other five banks
// complete, and the merge reports the failing row with the other rows' work
// accounted.
func TestPartialFailureAccountingParallel(t *testing.T) {
	sys, a, b, d := armUncorrectable(t, 0)
	sys.ResetStats()
	err := sys.And(d, a, b)
	if !errors.Is(err, ErrUncorrectable) {
		t.Fatalf("And error = %v, want ErrUncorrectable", err)
	}
	st := sys.Stats()
	// Six single-row bank groups; only row 2's group fails.
	if st.RowOps != 5 {
		t.Errorf("RowOps = %d, want 5 (other banks complete)", st.RowOps)
	}
	if st.ElapsedNS <= 0 {
		t.Errorf("ElapsedNS = %v, want > 0", st.ElapsedNS)
	}
	if st.UncorrectableRows != 1 {
		t.Errorf("UncorrectableRows = %d, want 1", st.UncorrectableRows)
	}
	if st.TotalBulkOps() != 0 {
		t.Errorf("TotalBulkOps = %d, want 0 (op failed)", st.TotalBulkOps())
	}
	// The five completed rows must actually hold the AND result.
	got, perr := d.Read(Backdoor())
	if perr != nil {
		t.Fatal(perr)
	}
	wpr := sys.RowSizeBits() / 64
	for r := 0; r < 6; r++ {
		if r == 2 {
			continue
		}
		for i := r * wpr; i < (r+1)*wpr; i++ {
			if got[i] != ^uint64(0) {
				t.Fatalf("row %d word %d = %#x, want all-ones", r, i-r*wpr, got[i])
			}
		}
	}
}

// directGolden is the pinned outcome of one direct-op workload: a digest
// over its result (vector contents, or trace bytes) and Stats, plus the
// readable figures a mismatch is usually about.
type directGolden struct {
	Digest         string  `json:"digest"`
	ElapsedNS      float64 `json:"elapsed_ns"`
	RowOps         int64   `json:"row_ops"`
	Copies         int64   `json:"copies"`
	InjectedFaults int64   `json:"injected_faults"`
	CorrectedBits  int64   `json:"corrected_bits"`
	Retries        int64   `json:"retries"`
}

func newDirectGolden(result any, st Stats) directGolden {
	h := fnv.New64a()
	fmt.Fprintf(h, "%v|%+v", result, st)
	return directGolden{
		Digest:         fmt.Sprintf("%016x", h.Sum64()),
		ElapsedNS:      st.ElapsedNS,
		RowOps:         st.RowOps,
		Copies:         st.Copies,
		InjectedFaults: st.InjectedFaults,
		CorrectedBits:  st.CorrectedBits,
		Retries:        st.Retries,
	}
}

// directOutcomeCases are the workloads TestDirectOutcomeGolden pins, each run
// on a fresh System with the given worker count.
var directOutcomeCases = []struct {
	name string
	run  func(t *testing.T, workers int) directGolden
}{
	{"faulted-vendorA-85C", func(t *testing.T, workers int) directGolden {
		return faultedDirectGolden(t, WithExecWorkers(workers), WithFaultProfile(vendorProfile(t)), WithManyRowMaj(5))
	}},
	{"faulted-plain", func(t *testing.T, workers int) directGolden {
		return faultedDirectGolden(t, WithExecWorkers(workers), WithFaultModel(goldenFaultConfig), WithManyRowMaj(3))
	}},
	{"faulted-plain+ecc", func(t *testing.T, workers int) directGolden {
		return faultedDirectGolden(t, WithExecWorkers(workers), WithFaultModel(goldenFaultConfig), WithManyRowMaj(3),
			WithReliability(Reliability{ECC: true, MaxRetries: 4}))
	}},
	{"exec", func(t *testing.T, workers int) directGolden {
		sys, err := New(WithExecWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		data := execWorkload(t, sys)
		return newDirectGolden(data, sys.Stats())
	}},
	{"traced-obs", func(t *testing.T, workers int) directGolden {
		var buf bytes.Buffer
		tr := NewTracer(NewJSONLSink(&buf))
		sys, err := New(WithExecWorkers(workers), WithTracer(tr))
		if err != nil {
			t.Fatal(err)
		}
		obsWorkload(t, sys)
		if err := tr.Flush(); err != nil {
			t.Fatal(err)
		}
		return newDirectGolden(buf.String(), sys.Stats())
	}},
	{"traced-faulted-plain+ecc", func(t *testing.T, workers int) directGolden {
		var buf bytes.Buffer
		tr := NewTracer(NewJSONLSink(&buf))
		sys, err := New(WithExecWorkers(workers), WithTracer(tr), WithFaultModel(goldenFaultConfig), WithManyRowMaj(3),
			WithReliability(Reliability{ECC: true, MaxRetries: 4}))
		if err != nil {
			t.Fatal(err)
		}
		data := faultedWorkload(t, sys)
		if err := tr.Flush(); err != nil {
			t.Fatal(err)
		}
		st := sys.Stats()
		if st.InjectedFaults == 0 {
			t.Fatal("workload drew no faults; the golden is vacuous")
		}
		return newDirectGolden([]any{data, buf.String()}, st)
	}},
	{"faulted-vendorA-85C-maj5", func(t *testing.T, workers int) directGolden {
		p, ok := FaultProfileByName("vendorA-85C")
		if !ok {
			t.Fatal("builtin vendorA-85C missing")
		}
		sys, err := New(WithExecWorkers(workers), WithFaultProfile(p), WithManyRowMaj(5))
		if err != nil {
			t.Fatal(err)
		}
		data := maj5Workload(t, sys)
		st := sys.Stats()
		if st.InjectedFaults == 0 {
			t.Fatal("workload drew no faults; the golden is vacuous")
		}
		return newDirectGolden(data, st)
	}},
}

// maj5Workload runs 5-input majorities at width 16 — two staged copies of
// each source plus six fill rows, so bitlines sit at the minimum charge
// margin and a profile's PatternBias steers the many-row draws — including
// one whose destination is a source, around a binary op, and returns every
// vector's final contents.
func maj5Workload(t *testing.T, sys *System) [][]uint64 {
	t.Helper()
	bits := 4 * int64(sys.RowSizeBits())
	vs := make([]*Bitvector, 6)
	rng := rand.New(rand.NewSource(161803))
	for i := range vs {
		vs[i] = sys.MustAlloc(bits)
		w := make([]uint64, vs[i].WordCount())
		for j := range w {
			w[j] = rng.Uint64()
		}
		if err := vs[i].Write(w, Backdoor()); err != nil {
			t.Fatal(err)
		}
	}
	steps := []func() error{
		func() error { return sys.Maj(vs[5], vs[0], vs[1], vs[2], vs[3], vs[4]) },
		func() error { return sys.Maj(vs[0], vs[0], vs[1], vs[2], vs[3], vs[5]) },
		func() error { return sys.And(vs[1], vs[0], vs[5]) },
		func() error { return sys.Maj(vs[2], vs[1], vs[3], vs[4], vs[5], vs[0]) },
	}
	for i, step := range steps {
		if err := step(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	var out [][]uint64
	for _, v := range vs {
		words, err := v.Read(Backdoor())
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, words)
	}
	return out
}

// goldenFaultConfig is the plain FaultConfig the faulted scenarios and the
// outcome goldens arm.
var goldenFaultConfig = FaultConfig{TRABitRate: 1e-3, TRARowRate: 2e-3, DCCBitRate: 5e-4, RowVariation: 1.3, WeakColumnFraction: 0.05, Seed: 7}

// faultedDirectGolden runs faultedWorkload on a System built from opts.
func faultedDirectGolden(t *testing.T, opts ...Option) directGolden {
	t.Helper()
	sys, err := New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	data := faultedWorkload(t, sys)
	st := sys.Stats()
	if st.InjectedFaults == 0 {
		t.Fatal("workload drew no faults; the golden is vacuous")
	}
	return newDirectGolden(data, st)
}

// TestDirectOutcomeGolden pins the exact outcome of the direct-op workloads
// — faulted (raised vendorA-85C profile, plain FaultConfig, plain+ECC, and
// 5-input majorities under the shipped vendorA-85C profile), plain, traced,
// and traced faulted+ECC — at workers 1, 2 and 8: the worker-count differentials
// prove determinism, this proves the outcome itself does not move.  Run with
// -update to rewrite testdata/direct_outcomes.json after an intentional
// change.
func TestDirectOutcomeGolden(t *testing.T) {
	got := map[string]directGolden{}
	for _, c := range directOutcomeCases {
		for _, workers := range []int{1, 2, 8} {
			g := c.run(t, workers)
			if prev, ok := got[c.name]; ok && prev != g {
				t.Errorf("%s: workers=%d outcome %+v differs from workers=1 %+v", c.name, workers, g, prev)
			}
			got[c.name] = g
		}
	}
	path := filepath.Join("testdata", "direct_outcomes.json")
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
		t.Fatalf("%v (run `go test -run TestDirectOutcomeGolden -update` to create)", err)
	}
	var want map[string]directGolden
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	for _, c := range directOutcomeCases {
		if got[c.name] != want[c.name] {
			t.Errorf("%s: outcome %+v, golden %+v", c.name, got[c.name], want[c.name])
		}
	}
}
