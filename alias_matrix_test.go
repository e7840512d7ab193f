package ambit

// The alias matrix pins down the op trains' net-effect evaluation
// (internal/controller/net.go) under every operand-aliasing pattern the
// public API admits.  dst, a, and b may name the same Bitvector in any
// combination; at the row level the evaluator then sees dk == di,
// dk == dj, or di == dj and must still compute dst = op(a, b) over the
// PRE-operation source values, exactly as the stepwise command trains do
// (the train AAPs both sources into the TRA group before the destination
// row is written back).
//
// Every cell of the matrix runs the op at 1 worker (the reference) and at 2,
// 4 and 8 workers, under three configurations: untraced (multi-row fused
// path), traced (per-row execution with event replay), and fault-armed
// (an injector makes ExecuteOpRowsFused reject the train, exercising the
// in-op stepwise fallback).  Contents and Stats must be bit-identical across
// worker counts, and for the fault-free configurations the destination must
// also match a word-level software model of the op.

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

type aliasOp struct {
	name  string
	unary bool
	run   func(s *System, dst, a, b *Bitvector) error
	eval  func(x, y uint64) uint64
}

var aliasOps = []aliasOp{
	{"and", false, func(s *System, d, a, b *Bitvector) error { return s.And(d, a, b) },
		func(x, y uint64) uint64 { return x & y }},
	{"or", false, func(s *System, d, a, b *Bitvector) error { return s.Or(d, a, b) },
		func(x, y uint64) uint64 { return x | y }},
	{"nand", false, func(s *System, d, a, b *Bitvector) error { return s.Nand(d, a, b) },
		func(x, y uint64) uint64 { return ^(x & y) }},
	{"nor", false, func(s *System, d, a, b *Bitvector) error { return s.Nor(d, a, b) },
		func(x, y uint64) uint64 { return ^(x | y) }},
	{"xor", false, func(s *System, d, a, b *Bitvector) error { return s.Xor(d, a, b) },
		func(x, y uint64) uint64 { return x ^ y }},
	{"xnor", false, func(s *System, d, a, b *Bitvector) error { return s.Xnor(d, a, b) },
		func(x, y uint64) uint64 { return ^(x ^ y) }},
	{"not", true, func(s *System, d, a, _ *Bitvector) error { return s.Not(d, a) },
		func(x, _ uint64) uint64 { return ^x }},
}

// An aliasPattern selects which of the three allocated vectors serves as
// dst, a, and b.  Unary ops only distinguish dst vs a.
type aliasPattern struct {
	name       string
	di, ai, bi int
	unaryOK    bool
}

var aliasPatterns = []aliasPattern{
	{"distinct", 0, 1, 2, true},
	{"dst=a", 0, 0, 1, true},
	{"dst=b", 0, 1, 0, false},
	{"a=b", 0, 1, 1, false},
	{"dst=a=b", 0, 0, 0, false},
}

// aliasSeedWords regenerates the deterministic initial contents of the
// three test vectors so the software model can evaluate against pre-op
// values without reading them back.
func aliasSeedWords(words int) [3][]uint64 {
	rng := rand.New(rand.NewSource(99))
	var init [3][]uint64
	for i := range init {
		w := make([]uint64, words)
		for j := range w {
			w[j] = rng.Uint64()
		}
		init[i] = w
	}
	return init
}

// runAliasCase builds a fresh System, seeds three equally-shaped vectors,
// applies op with the pattern's aliasing, and snapshots all three vectors'
// contents plus the System statistics.
func runAliasCase(t *testing.T, op aliasOp, pat aliasPattern, workers int, opts ...Option) ([][]uint64, Stats) {
	t.Helper()
	sys, err := New(append([]Option{WithExecWorkers(workers)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	bits := 3 * int64(sys.RowSizeBits()) // three full rows: spans banks, no tail masking
	vs := make([]*Bitvector, 3)
	for i := range vs {
		vs[i] = sys.MustAlloc(bits)
	}
	init := aliasSeedWords(vs[0].WordCount())
	for i, v := range vs {
		if err := v.Write(init[i], Backdoor()); err != nil {
			t.Fatal(err)
		}
	}
	if err := op.run(sys, vs[pat.di], vs[pat.ai], vs[pat.bi]); err != nil {
		t.Fatal(err)
	}
	out := make([][]uint64, 3)
	for i, v := range vs {
		if out[i], err = v.Read(Backdoor()); err != nil {
			t.Fatal(err)
		}
	}
	return out, sys.Stats()
}

// checkAliasSemantics compares the post-op contents against the word-level
// software model applied to the pre-op values.
func checkAliasSemantics(t *testing.T, op aliasOp, pat aliasPattern, got [][]uint64) {
	t.Helper()
	init := aliasSeedWords(len(got[0]))
	want := make([][]uint64, 3)
	for i := range want {
		want[i] = append([]uint64(nil), init[i]...)
	}
	for j := range want[pat.di] {
		want[pat.di][j] = op.eval(init[pat.ai][j], init[pat.bi][j])
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s/%s: contents diverge from software model", op.name, pat.name)
	}
}

// TestAliasMatrixDifferential is the exhaustive aliasing differential for
// the word-parallel execution core.
func TestAliasMatrixDifferential(t *testing.T) {
	configs := []struct {
		name    string
		opts    func() []Option
		faulted bool
	}{
		{"untraced", func() []Option { return nil }, false},
		{"traced", func() []Option { return []Option{WithTracer(NewTracer(nopTraceSink{}))} }, false},
		{"faulted", func() []Option {
			return []Option{WithFaultModel(FaultConfig{
				TRABitRate: 1e-3, TRARowRate: 2e-3, DCCBitRate: 5e-4,
				RowVariation: 1.3, WeakColumnFraction: 0.05, Seed: 7,
			})}
		}, true},
	}
	for _, op := range aliasOps {
		for _, pat := range aliasPatterns {
			if op.unary && !pat.unaryOK {
				continue
			}
			for _, cfg := range configs {
				t.Run(fmt.Sprintf("%s/%s/%s", op.name, pat.name, cfg.name), func(t *testing.T) {
					wantData, wantStats := runAliasCase(t, op, pat, 1, cfg.opts()...)
					for _, workers := range []int{2, 4, 8} {
						gotData, gotStats := runAliasCase(t, op, pat, workers, cfg.opts()...)
						if !reflect.DeepEqual(gotData, wantData) {
							t.Errorf("workers=%d: contents diverged from workers=1", workers)
						}
						if !reflect.DeepEqual(gotStats, wantStats) {
							t.Errorf("workers=%d: stats diverged:\n got %+v\nwant %+v", workers, gotStats, wantStats)
						}
					}
					if !cfg.faulted {
						checkAliasSemantics(t, op, pat, wantData)
					}
				})
			}
		}
	}
}
