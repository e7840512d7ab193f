package ambit

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"ambit/internal/compile"
	"ambit/internal/dram"
)

// compileTestSystem builds a small multi-bank system so compiled functions
// exercise the parallel per-bank scheduling path.
func compileTestSystem(t testing.TB, opts ...Option) *System {
	t.Helper()
	small := WithDRAM(DRAMConfig{
		Geometry: dram.Geometry{Banks: 4, SubarraysPerBank: 2, RowsPerSubarray: 64, RowSizeBytes: 64},
		Timing:   dram.DDR3_1600(),
	})
	sys, err := New(append([]Option{small}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// randomFuncExpr generates a random expression DAG with occasional sharing
// (mirrors the internal compile package's generator, over the public surface).
func randomFuncExpr(rng *rand.Rand, depth, nvars int) *Expr {
	if depth == 0 || rng.Intn(5) == 0 {
		if rng.Intn(8) == 0 {
			return Lit(rng.Intn(2) == 1)
		}
		return Var(rng.Intn(nvars))
	}
	sub := func() *Expr { return randomFuncExpr(rng, depth-1, nvars) }
	switch rng.Intn(6) {
	case 0:
		return Not(sub())
	case 1:
		return And(sub(), sub())
	case 2:
		return Or(sub(), sub())
	case 3:
		return Xor(sub(), sub())
	case 4:
		return Maj(sub(), sub(), sub())
	}
	s := sub()
	return Or(And(s, sub()), s)
}

// TestFuncDifferential is the end-to-end property test: >= 1000 random
// expression DAGs are compiled and executed through the full System stack in
// six modes — untraced at 1, 2, 4 and 8 workers, traced at 1 and 8 — over
// randomized multi-row operands, and every output word must match the pure-Go
// reference evaluator.  Every mode must also agree with the single-worker
// untraced run on simulated time, operation for operation.
func TestFuncDifferential(t *testing.T) {
	type mode struct {
		name string
		sys  *System
	}
	coh := WithCoherenceNSPerRow(2)
	traced := func() Option { return WithTracer(NewTracer(nopTraceSink{})) }
	modes := []mode{
		{"workers-1", compileTestSystem(t, coh, WithExecWorkers(1))},
		{"workers-2", compileTestSystem(t, coh, WithExecWorkers(2))},
		{"workers-4", compileTestSystem(t, coh, WithExecWorkers(4))},
		{"workers-8", compileTestSystem(t, coh, WithExecWorkers(8))},
		{"workers-1-traced", compileTestSystem(t, coh, WithExecWorkers(1), traced())},
		{"workers-8-traced", compileTestSystem(t, coh, WithExecWorkers(8), traced())},
	}

	rng := rand.New(rand.NewSource(42))
	bits := 2 * int64(modes[0].sys.RowSizeBits()) // two rows: spans two banks
	words := int(bits / 64)

	const target = 1000
	compiled := 0
	for trial := 0; compiled < target; trial++ {
		nOut := 1 + rng.Intn(2)
		exprs := make([]*Expr, nOut)
		for j := range exprs {
			exprs[j] = randomFuncExpr(rng, 3, 4)
		}
		// Compile once per mode (each System has its own cache).
		fs := make([]*Func, len(modes))
		spilled := false
		for m := range modes {
			f, err := modes[m].sys.Compile("rand", exprs...)
			if err != nil {
				var se *SpillError
				if !errors.As(err, &se) {
					t.Fatalf("trial %d: %v", trial, err)
				}
				spilled = true
				break
			}
			fs[m] = f
		}
		if spilled {
			continue
		}
		compiled++

		nIn := fs[0].NumInputs()
		inputs := make([][]uint64, nIn)
		for i := range inputs {
			row := make([]uint64, words)
			for w := range row {
				row[w] = rng.Uint64()
			}
			inputs[i] = row
		}
		for m, md := range modes {
			srcs := make([]*Bitvector, nIn)
			for i := range srcs {
				srcs[i] = md.sys.MustAlloc(bits)
				if err := srcs[i].Write(inputs[i], Backdoor()); err != nil {
					t.Fatal(err)
				}
			}
			dsts := make([]*Bitvector, nOut)
			for j := range dsts {
				dsts[j] = md.sys.MustAlloc(bits)
			}
			if err := fs[m].RunMulti(dsts, srcs...); err != nil {
				t.Fatalf("trial %d mode %s: %v\ntrain:\n%s", trial, md.name, err, fs[m].Listing())
			}
			for w := 0; w < words; w++ {
				vars := make([]uint64, nIn)
				for i := range vars {
					vars[i] = inputs[i][w]
				}
				want := compile.EvalAll(exprs, vars)
				for j := range dsts {
					got, err := dsts[j].Read(Backdoor())
					if err != nil {
						t.Fatal(err)
					}
					if got[w] != want[j] {
						t.Fatalf("trial %d mode %s out %d word %d: got %016x, reference %016x\nexpr: %v\ntrain:\n%s",
							trial, md.name, j, w, got[w], want[j], exprs[j], fs[m].Listing())
					}
				}
			}
			// Inputs must survive.
			for i := range srcs {
				got, err := srcs[i].Read(Backdoor())
				if err != nil {
					t.Fatal(err)
				}
				for w := range got {
					if got[w] != inputs[i][w] {
						t.Fatalf("trial %d mode %s: input %d corrupted at word %d", trial, md.name, i, w)
					}
				}
			}
			for _, v := range append(dsts, srcs...) {
				if err := md.sys.Free(v); err != nil {
					t.Fatal(err)
				}
			}
		}
		// Determinism: every mode agrees on the simulated clock.
		for _, md := range modes[1:] {
			if got, want := md.sys.ElapsedNS(), modes[0].sys.ElapsedNS(); got != want {
				t.Fatalf("trial %d: %s clock %v != %s clock %v", trial, md.name, got, modes[0].name, want)
			}
		}
	}
	st := modes[0].sys.Stats()
	if st.FuncOps != int64(compiled) {
		t.Errorf("FuncOps = %d, want %d", st.FuncOps, compiled)
	}
	if st.RowOps == 0 || st.CoherenceNS == 0 {
		t.Errorf("func executions left RowOps=%d CoherenceNS=%v", st.RowOps, st.CoherenceNS)
	}
}

// TestFuncCompileCache checks that structurally identical Compile calls share
// one compiled train (the template-cache guarantee), regardless of name or
// expression-tree identity.
func TestFuncCompileCache(t *testing.T) {
	sys := compileTestSystem(t)
	f1, err := sys.Compile("a", Or(And(Var(0), Var(1)), Not(Var(2))))
	if err != nil {
		t.Fatal(err)
	}
	// A distinct Expr tree of the same structure.
	f2, err := sys.Compile("b", Or(And(Var(0), Var(1)), Not(Var(2))))
	if err != nil {
		t.Fatal(err)
	}
	if f1.c != f2.c {
		t.Error("structurally identical functions did not share a compiled train")
	}
	f3, err := sys.Compile("c", Or(And(Var(0), Var(1)), Not(Var(3))))
	if err != nil {
		t.Fatal(err)
	}
	if f3.c == f1.c {
		t.Error("distinct functions share a compiled train")
	}
	// A Func is bound to its System.
	other := compileTestSystem(t)
	d := other.MustAlloc(int64(other.RowSizeBits()))
	srcs := make([]*Bitvector, f1.NumInputs())
	for i := range srcs {
		srcs[i] = other.MustAlloc(int64(other.RowSizeBits()))
	}
	if err := f1.Run(d, srcs...); !errors.Is(err, ErrForeignSystem) {
		t.Errorf("cross-system Run error = %v, want ErrForeignSystem", err)
	}
}

// TestFuncAliasRules pins the in-place contract: aliasing is legal exactly
// when the train's reads of the aliased input all precede the output's first
// write.
func TestFuncAliasRules(t *testing.T) {
	sys := compileTestSystem(t)
	bits := int64(sys.RowSizeBits())

	// And reads both inputs before the TRA that stores the output, so
	// dst == src is legal in-place.
	and2, err := sys.Compile("and2", And(Var(0), Var(1)))
	if err != nil {
		t.Fatal(err)
	}
	a, b := sys.MustAlloc(bits), sys.MustAlloc(bits)
	wa := make([]uint64, a.WordCount())
	wb := make([]uint64, b.WordCount())
	rng := rand.New(rand.NewSource(5))
	for i := range wa {
		wa[i], wb[i] = rng.Uint64(), rng.Uint64()
	}
	if err := a.Write(wa, Backdoor()); err != nil {
		t.Fatal(err)
	}
	if err := b.Write(wb, Backdoor()); err != nil {
		t.Fatal(err)
	}
	if err := and2.Run(a, a, b); err != nil {
		t.Fatalf("legal in-place And rejected: %v", err)
	}
	got, err := a.Read(Backdoor())
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != wa[i]&wb[i] {
			t.Fatalf("in-place And word %d: %016x != %016x & %016x", i, got[i], wa[i], wb[i])
		}
	}

	// The 8-bit adder stores its low sum bits long before it last reads the
	// high operand bits: aliasing sum[0] onto a late-read input must fail.
	add8, err := sys.CompileAdder(8)
	if err != nil {
		t.Fatal(err)
	}
	srcs := make([]*Bitvector, add8.NumInputs())
	for i := range srcs {
		srcs[i] = sys.MustAlloc(bits)
	}
	dsts := make([]*Bitvector, add8.NumOutputs())
	for j := range dsts {
		dsts[j] = sys.MustAlloc(bits)
	}
	dsts[0] = srcs[15] // sum bit 0 aliases b's top bit
	if err := add8.RunMulti(dsts, srcs...); !errors.Is(err, ErrAliasedOperands) {
		t.Errorf("hazardous alias error = %v, want ErrAliasedOperands", err)
	}

	// Two outputs on one bitvector are always rejected.
	dsts[0] = dsts[1]
	if err := add8.RunMulti(dsts, srcs...); !errors.Is(err, ErrAliasedOperands) {
		t.Errorf("duplicate outputs error = %v, want ErrAliasedOperands", err)
	}

	// Arity mismatch.
	if err := and2.Run(a, b); err == nil || !strings.Contains(err.Error(), "want 2") {
		t.Errorf("arity error = %v, want operand-count report", err)
	}
}

// TestBatchCall checks compiled functions as batch citizens: data
// dependencies between chained calls are honored, independent calls share
// the batch, and the report/stats reflect the executions.
func TestBatchCall(t *testing.T) {
	sys := compileTestSystem(t)
	bits := 2 * int64(sys.RowSizeBits())
	words := int(bits / 64)

	and2, err := sys.Compile("and2", And(Var(0), Var(1)))
	if err != nil {
		t.Fatal(err)
	}
	or2, err := sys.Compile("or2", Or(Var(0), Var(1)))
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(8))
	load := func() (*Bitvector, []uint64) {
		v := sys.MustAlloc(bits)
		w := make([]uint64, words)
		for i := range w {
			w[i] = rng.Uint64()
		}
		if err := v.Write(w, Backdoor()); err != nil {
			t.Fatal(err)
		}
		return v, w
	}
	x, wx := load()
	y, wy := load()
	z, wz := load()
	tmp, out := sys.MustAlloc(bits), sys.MustAlloc(bits)

	batch := sys.NewBatch()
	if err := batch.Call(and2, []*Bitvector{tmp}, x, y); err != nil {
		t.Fatal(err)
	}
	if err := batch.Call(or2, []*Bitvector{out}, tmp, z); err != nil {
		t.Fatal(err)
	}
	rep, err := batch.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ops != 2 || rep.Waves != 2 {
		t.Errorf("report %+v, want 2 ops in 2 waves (chained calls conflict)", rep)
	}
	got, err := out.Read(Backdoor())
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if want := (wx[i] & wy[i]) | wz[i]; got[i] != want {
			t.Fatalf("word %d: %016x, want %016x", i, got[i], want)
		}
	}
	if st := sys.Stats(); st.FuncOps != 2 {
		t.Errorf("FuncOps = %d, want 2", st.FuncOps)
	}

	// Recording an aliased call fails at record time.
	b2 := sys.NewBatch()
	add2, err := sys.CompileAdder(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := b2.Call(add2, []*Bitvector{x, x, tmp}, x, y, z, out); !errors.Is(err, ErrAliasedOperands) {
		t.Errorf("batch alias error = %v, want ErrAliasedOperands", err)
	}
}

// TestBatchCallKeepsRecordedOperands: Call validates its operand lists at
// record time and the batch runs the lists it validated.  Swapping a short
// source or a source-aliasing destination into the caller's slices after
// Call must not reach Run.  One exec worker keeps every row on the test
// goroutine, so a panic from a shortened vector is recovered here.
func TestBatchCallKeepsRecordedOperands(t *testing.T) {
	sys := compileTestSystem(t, WithExecWorkers(1))
	rowBits := int64(sys.RowSizeBits())
	bits := 4 * rowBits
	xor2, err := sys.Compile("xor2", Xor(Var(0), Var(1)))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	load := func() (*Bitvector, []uint64) {
		v := sys.MustAlloc(bits)
		w := make([]uint64, v.WordCount())
		for i := range w {
			w[i] = rng.Uint64()
		}
		if err := v.Write(w, Backdoor()); err != nil {
			t.Fatal(err)
		}
		return v, w
	}
	x, wx := load()
	y, wy := load()
	d := sys.MustAlloc(bits)
	short := sys.MustAlloc(2 * rowBits)

	batch := sys.NewBatch()
	dsts, srcs := []*Bitvector{d}, []*Bitvector{x, y}
	if err := batch.Call(xor2, dsts, srcs...); err != nil {
		t.Fatal(err)
	}
	srcs[1] = short
	dsts[0] = x
	func() {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("Run panicked on operand lists edited after Call: %v", r)
			}
		}()
		if _, err := batch.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
	}()
	for _, c := range []struct {
		name string
		v    *Bitvector
		want func(i int) uint64
	}{
		{"recorded destination", d, func(i int) uint64 { return wx[i] ^ wy[i] }},
		{"source", x, func(i int) uint64 { return wx[i] }},
	} {
		got, err := c.v.Read(Backdoor())
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if want := c.want(i); got[i] != want {
				t.Fatalf("%s word %d: %016x, want %016x", c.name, i, got[i], want)
			}
		}
	}
}

// TestPopcountVertical checks the in-DRAM carry-save popcount: per-lane
// counts across n vectors against native Go counting, plus the scaffolding
// accounting (temporaries freed, only count bits surviving).
func TestPopcountVertical(t *testing.T) {
	sys := compileTestSystem(t)
	bits := int64(sys.RowSizeBits())
	words := int(bits / 64)
	rng := rand.New(rand.NewSource(13))

	const n = 7
	vs := make([]*Bitvector, n)
	data := make([][]uint64, n)
	for i := range vs {
		vs[i] = sys.MustAlloc(bits)
		data[i] = make([]uint64, words)
		for w := range data[i] {
			data[i][w] = rng.Uint64()
		}
		if err := vs[i].Write(data[i], Backdoor()); err != nil {
			t.Fatal(err)
		}
	}
	freeBefore := sys.FreeRows()

	outs, err := sys.PopcountVertical(vs...)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 3 { // ceil(log2(8)) bits count 0..7
		t.Fatalf("got %d count bits, want 3", len(outs))
	}
	outWords := make([][]uint64, len(outs))
	for j, o := range outs {
		if outWords[j], err = o.Read(Backdoor()); err != nil {
			t.Fatal(err)
		}
	}
	for l := int64(0); l < bits; l++ {
		w, bit := l/64, uint(l%64)
		want := 0
		for i := 0; i < n; i++ {
			if data[i][w]>>bit&1 == 1 {
				want++
			}
		}
		got := 0
		for j := range outWords {
			if outWords[j][w]>>bit&1 == 1 {
				got |= 1 << j
			}
		}
		if got != want {
			t.Fatalf("lane %d: counted %d in-DRAM, want %d", l, got, want)
		}
	}
	// Only the count bits remain allocated; every temporary was freed.
	rowsPer := vs[0].Rows()
	if free := sys.FreeRows(); free != freeBefore-len(outs)*rowsPer {
		t.Errorf("free rows %d after popcount, want %d (outputs only)", free, freeBefore-len(outs)*rowsPer)
	}
	// 7 inputs compress through exactly 4 full adders.
	if st := sys.Stats(); st.FuncOps != 4 {
		t.Errorf("FuncOps = %d, want 4 carry-save adders", st.FuncOps)
	}
	for _, o := range outs {
		if err := sys.Free(o); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFuncRunAllocsPerRow guards the fused fast path: scheduling compiled
// trains must not allocate per row (per-call overhead is amortized across a
// 64-row operand, so the per-row budget rounds to zero).
func TestFuncRunAllocsPerRow(t *testing.T) {
	sys := compileTestSystem(t)
	f, err := sys.Compile("mix", Or(And(Var(0), Var(1)), Xor(Var(1), Var(2))))
	if err != nil {
		t.Fatal(err)
	}
	rows := 64
	bits := int64(rows * sys.RowSizeBits())
	d := sys.MustAlloc(bits)
	srcs := []*Bitvector{sys.MustAlloc(bits), sys.MustAlloc(bits), sys.MustAlloc(bits)}
	run := func() {
		if err := f.Run(d, srcs...); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the engine and bank timelines
	perOp := testing.AllocsPerRun(10, run)
	if perRow := perOp / float64(rows); perRow >= 1 {
		t.Errorf("scheduling allocates %.1f/row (%.0f per op over %d rows), want amortized zero",
			perRow, perOp, rows)
	}
}

// BenchmarkFuncRun measures the compiled-function hot path end to end
// (parallel scheduling, untraced); allocs/op stays flat as rows grow.
func BenchmarkFuncRun(b *testing.B) {
	sys := compileTestSystem(b)
	f, err := sys.Compile("mix", Or(And(Var(0), Var(1)), Xor(Var(1), Var(2))))
	if err != nil {
		b.Fatal(err)
	}
	bits := int64(64 * sys.RowSizeBits())
	d := sys.MustAlloc(bits)
	srcs := []*Bitvector{sys.MustAlloc(bits), sys.MustAlloc(bits), sys.MustAlloc(bits)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.Run(d, srcs...); err != nil {
			b.Fatal(err)
		}
	}
}
