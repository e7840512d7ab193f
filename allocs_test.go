package ambit

// Steady-state allocation budgets for the hot paths the word-parallel
// rework targets: once pools are warm, a direct bulk op, a Popcount, and a
// zero-copy view access must not allocate at all.  These are hard
// regressions gates — a single stray per-op allocation reintroduces GC
// pressure on exactly the paths ambitbench measures in GB/s.

import (
	"math/rand"
	"runtime"
	"testing"
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
