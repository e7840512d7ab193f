package ambit

// Steady-state allocation budgets for the hot paths the word-parallel
// rework targets: once pools are warm, a direct bulk op, a Popcount, and a
// zero-copy view access must not allocate at all.  These are hard
// regressions gates — a single stray per-op allocation reintroduces GC
// pressure on exactly the paths ambitbench measures in GB/s.

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"ambit/internal/controller"
)

// allocsSystem builds a System from opts with three seeded 8-row vectors and
// warms every pool (worker goroutines, runner/train/row-buffer pools) so the
// measured window sees only steady-state behavior.
func allocsSystem(t *testing.T, opts ...Option) (*System, *Bitvector, *Bitvector, *Bitvector) {
	t.Helper()
	sys, err := New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	bits := 8 * int64(sys.RowSizeBits())
	a, b, c := sys.MustAlloc(bits), sys.MustAlloc(bits), sys.MustAlloc(bits)
	rng := rand.New(rand.NewSource(5))
	w := make([]uint64, a.WordCount())
	for i := range w {
		w[i] = rng.Uint64()
	}
	if err := a.Write(w, Backdoor()); err != nil {
		t.Fatal(err)
	}
	for i := range w {
		w[i] = rng.Uint64()
	}
	if err := b.Write(w, Backdoor()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := sys.And(c, a, b); err != nil {
			t.Fatal(err)
		}
		if err := sys.Xor(c, a, b); err != nil {
			t.Fatal(err)
		}
		if err := sys.Not(c, c); err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Popcount(c); err != nil {
			t.Fatal(err)
		}
	}
	return sys, a, b, c
}

// TestDirectOpSteadyStateAllocs: the direct-op path (parallel dispatch
// through the shared execution core, fused word-parallel kernels) is
// allocation-free once warm.
func TestDirectOpSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime allocates; zero-allocation gates run without -race")
	}
	sys, a, b, c := allocsSystem(t, WithManyRowMaj(5))
	// The bitmap-direct query's compiled predicate: a 3-input AND whose
	// destination is a fourth vector.
	and3, err := sys.Compile("and3", And(Var(0), Var(1), Var(2)))
	if err != nil {
		t.Fatal(err)
	}
	out := sys.MustAlloc(c.Len())
	for i := 0; i < 50; i++ {
		if err := and3.Run(out, a, b, c); err != nil {
			t.Fatal(err)
		}
		if err := sys.Maj(out, a, b, c); err != nil {
			t.Fatal(err)
		}
	}
	// TMR rows read their replicas into the controller's per-bank scratch
	// and vote in place.
	eccSys, ea, eb, ec := allocsSystem(t, WithReliability(Reliability{ECC: true, MaxRetries: 3}))
	// Under a fault model whose masks fire on nearly every activation (about
	// 6.5 flipped bits per 64 Kbit row and draw), each applied mask goes
	// back to its stream and the next fired draw reuses it.
	faultSys, fa, fb, fc := allocsSystem(t, WithFaultModel(FaultConfig{TRABitRate: 1e-4, DCCBitRate: 1e-4, Seed: 3}),
		WithReliability(Reliability{ECC: true, MaxRetries: 3}), WithManyRowMaj(5))
	fout := faultSys.MustAlloc(fc.Len())
	for i := 0; i < 50; i++ {
		if err := faultSys.Maj(fout, fa, fb, fc); err != nil {
			t.Fatal(err)
		}
	}
	// An installed but disabled tracer, and a registry carrying live
	// labeled families (as after serving multi-tenant traffic) under
	// untagged ops, cost no allocation over the plain System.
	tr := NewTracer(NewLastNSink(16))
	tr.SetEnabled(false)
	offSys, oa, ob, oc := allocsSystem(t, WithTracer(tr))
	reg := NewMetrics()
	for i := 0; i < 64; i++ {
		ns := Label{Key: "ns", Value: fmt.Sprintf("tenant-%d", i)}
		reg.AddLabeled("svc_requests", 1, ns)
		reg.LabeledHistogram("svc_wall_ns", WallBucketsNS, ns).Observe(1e6)
	}
	labSys, la, lb, lc := allocsSystem(t, WithMetrics(reg))
	// Tagged ops on a faulted ECC System with a registry attached commit
	// into their tenant's ledger, which the registry renders only when
	// scraped.
	tagSys, ta, tb, tc := allocsSystem(t, WithFaultModel(FaultConfig{TRABitRate: 1e-4, DCCBitRate: 1e-4, Seed: 3}),
		WithReliability(Reliability{ECC: true, MaxRetries: 3}), WithManyRowMaj(5), WithMetrics(NewMetrics()))
	tagged := tagSys.Tagged(Tag{NS: "tenant-a", Req: "req-1"})
	tout := tagSys.MustAlloc(tc.Len())
	for i := 0; i < 50; i++ {
		if err := tagged.Maj(tout, ta, tb, tc); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		name string
		call func() error
	}{
		{"And", func() error { return sys.And(c, a, b) }},
		{"Xor", func() error { return sys.Xor(c, a, b) }},
		{"Not", func() error { return sys.Not(c, a) }},
		{"Popcount", func() error { _, err := sys.Popcount(c); return err }},
		{"FuncRun", func() error { return and3.Run(out, a, b, c) }},
		{"Copy", func() error { return sys.Copy(out, a) }},
		{"Fill", func() error { return sys.Fill(out, true) }},
		{"Maj", func() error { return sys.Maj(out, a, b, c) }},
		{"ECCAnd", func() error { return eccSys.And(ec, ea, eb) }},
		{"ECCXorInPlace", func() error { return eccSys.Xor(ec, ec, eb) }},
		{"FaultedECCAnd", func() error { return faultSys.And(fc, fa, fb) }},
		{"FaultedECCXorInPlace", func() error { return faultSys.Xor(fc, fc, fb) }},
		{"FaultedMaj", func() error { return faultSys.Maj(fout, fa, fb, fc) }},
		{"DisabledTracerAnd", func() error { return offSys.And(oc, oa, ob) }},
		{"LabeledRegistryAnd", func() error { return labSys.And(lc, la, lb) }},
		{"TaggedFaultedECCAnd", func() error { return tagged.Apply(controller.OpAnd, tc, ta, tb) }},
		{"TaggedMaj", func() error { return tagged.Maj(tout, ta, tb, tc) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if n := testing.AllocsPerRun(100, func() {
				if err := tc.call(); err != nil {
					t.Fatal(err)
				}
			}); n != 0 {
				t.Errorf("%s steady state: %v allocs/op, want 0", tc.name, n)
			}
		})
	}
}

// TestBatchPopcountAllocsPerRow: a Batch's per-op bookkeeping (one latency
// slot per row) grows with the rows it touches, but its popcount rows —
// with and without ECC (the "dataflow" case) — count in place: the heap
// bytes a 64-row popcount adds over an 8-row one stay far below one row
// buffer per extra row.
func TestBatchPopcountAllocsPerRow(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime allocates; zero-allocation gates run without -race")
	}
	for _, route := range []struct {
		name string
		opts []Option
	}{
		{"fused", nil},
		{"dataflow", []Option{WithReliability(Reliability{ECC: true})}},
	} {
		t.Run(route.name, func(t *testing.T) {
			sys, err := New(route.opts...)
			if err != nil {
				t.Fatal(err)
			}
			rowBits := int64(sys.RowSizeBits())
			const runs = 20
			bytesPerRun := func(v *Bitvector) float64 {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				for i := 0; i < runs; i++ {
					bt := sys.NewBatch()
					if _, err := bt.Popcount(v); err != nil {
						t.Fatal(err)
					}
					if _, err := bt.Run(); err != nil {
						t.Fatal(err)
					}
				}
				runtime.ReadMemStats(&after)
				return float64(after.TotalAlloc-before.TotalAlloc) / runs
			}
			small, large := sys.MustAlloc(8*rowBits), sys.MustAlloc(64*rowBits)
			bytesPerRun(small) // warm pools and worker goroutines
			perRow := (bytesPerRun(large) - bytesPerRun(small)) / 56
			if limit := float64(sys.RowSizeBits()/8) / 4; perRow > limit {
				t.Errorf("Batch popcount allocates %.0f B per row, want under %.0f (no row buffer per row)", perRow, limit)
			}
		})
	}
}

// TestBatchAllocsIndependentOfRows: recording and running a mixed program —
// bulk, in-place, Copy, Fill, a two-output Call and Popcount — allocates per
// op, never per row: once warm, the same program on 64-row vectors makes
// exactly as many allocations as on 8-row vectors.
func TestBatchAllocsIndependentOfRows(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime allocates; zero-allocation gates run without -race")
	}
	sys, err := New()
	if err != nil {
		t.Fatal(err)
	}
	halfAdd, err := sys.Compile("halfadd", Xor(Var(0), Var(1)), And(Var(0), Var(1)))
	if err != nil {
		t.Fatal(err)
	}
	allocsAt := func(rows int64) float64 {
		bits := rows * int64(sys.RowSizeBits())
		a, b, c, d := sys.MustAlloc(bits), sys.MustAlloc(bits), sys.MustAlloc(bits), sys.MustAlloc(bits)
		program := func() {
			bt := sys.NewBatch()
			for _, err := range []error{
				bt.Fill(a, true),
				bt.Xor(b, a, c),
				bt.Not(c, c),
				bt.Copy(d, b),
				bt.Call(halfAdd, []*Bitvector{a, c}, b, d),
			} {
				if err != nil {
					t.Fatal(err)
				}
			}
			if _, err := bt.Popcount(a); err != nil {
				t.Fatal(err)
			}
			if _, err := bt.Run(); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 20; i++ {
			program() // warm pools, worker goroutines and the frontier map
		}
		return testing.AllocsPerRun(50, program)
	}
	if small, large := allocsAt(8), allocsAt(64); small != large {
		t.Errorf("Batch allocations grow with rows: %v at 8 rows, %v at 64", small, large)
	}
}

// TestBatchRunAllocsIndependentOfOps: Batch.Run allocates per program, not
// per op.  Once warm, running a recorded 64-op program makes exactly as many
// allocations as running an 8-op one; recording is outside the count.
func TestBatchRunAllocsIndependentOfOps(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime allocates; zero-allocation gates run without -race")
	}
	sys, a, b, c := allocsSystem(t)
	d := sys.MustAlloc(c.Len())
	record := func(ops int) *Batch {
		bt := sys.NewBatch()
		for i := 0; i < ops; i++ {
			var err error
			switch i % 6 {
			case 0:
				err = bt.And(c, a, b)
			case 1:
				err = bt.Xor(c, c, a)
			case 2:
				err = bt.Not(d, c)
			case 3:
				err = bt.Copy(c, d)
			case 4:
				err = bt.Fill(d, i%4 == 0)
			default:
				_, err = bt.Popcount(c)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		return bt
	}
	runAllocs := func(ops int) uint64 {
		const runs = 50
		batches := make([]*Batch, runs)
		for i := range batches {
			if _, err := record(ops).Run(); err != nil { // warm pools and the frontier map
				t.Fatal(err)
			}
			batches[i] = record(ops)
		}
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, bt := range batches {
			if _, err := bt.Run(); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return (after.Mallocs - before.Mallocs) / runs
	}
	if small, large := runAllocs(8), runAllocs(64); small != large {
		t.Errorf("Batch.Run allocations grow with ops: %d at 8 ops, %d at 64", small, large)
	}
}

// TestViewAccessSteadyStateAllocs: after the first Words() call
// materializes the cached row views, repeated view access — Words and the
// lock-holding ViewWords form — is allocation-free.
func TestViewAccessSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime allocates; zero-allocation gates run without -race")
	}
	_, _, _, c := allocsSystem(t)
	if _, err := c.Words(); err != nil { // materialize + cache the views
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := c.Words(); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Words steady state: %v allocs/op, want 0", n)
	}
	var sink uint64
	visit := func(views [][]uint64) error {
		for _, row := range views {
			sink += row[0]
		}
		return nil
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := c.ViewWords(visit); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("ViewWords steady state: %v allocs/op, want 0", n)
	}
	_ = sink
}
