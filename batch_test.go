package ambit

import (
	"errors"
	"math/rand"
	"testing"
)

// rowBits returns the bits in one row of the small test geometry.
func rowBits(s *System) int64 { return int64(s.RowSizeBits()) }

// loadRand fills v with deterministic pseudo-random words.
func loadRand(t *testing.T, rng *rand.Rand, v *Bitvector) []uint64 {
	t.Helper()
	w := randWords(rng, v.WordCount())
	if err := v.Write(w, Backdoor()); err != nil {
		t.Fatal(err)
	}
	return w
}

func TestBatchEmptyRun(t *testing.T) {
	s := smallSystem(t)
	rep, err := s.NewBatch().Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ops != 0 || rep.Waves != 0 || rep.MakespanNS != 0 {
		t.Fatalf("empty batch report = %+v, want zero", rep)
	}
}

func TestBatchMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	seq := smallSystem(t)
	bat := smallSystem(t)
	n := 4 * rowBits(seq)

	type vecs struct{ a, b, c, t1, t2, out *Bitvector }
	mk := func(s *System) vecs {
		return vecs{
			a: s.MustAlloc(n), b: s.MustAlloc(n), c: s.MustAlloc(n),
			t1: s.MustAlloc(n), t2: s.MustAlloc(n), out: s.MustAlloc(n),
		}
	}
	sv, bv := mk(seq), mk(bat)
	for _, pair := range [][2]*Bitvector{{sv.a, bv.a}, {sv.b, bv.b}, {sv.c, bv.c}} {
		w := randWords(rng, pair[0].WordCount())
		for _, v := range pair {
			if err := v.Write(w, Backdoor()); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Sequential: out = (a XOR b) AND (NOT c).
	if err := seq.Xor(sv.t1, sv.a, sv.b); err != nil {
		t.Fatal(err)
	}
	if err := seq.Not(sv.t2, sv.c); err != nil {
		t.Fatal(err)
	}
	if err := seq.And(sv.out, sv.t1, sv.t2); err != nil {
		t.Fatal(err)
	}

	b := bat.NewBatch()
	if err := b.Xor(bv.t1, bv.a, bv.b); err != nil {
		t.Fatal(err)
	}
	if err := b.Not(bv.t2, bv.c); err != nil {
		t.Fatal(err)
	}
	if err := b.And(bv.out, bv.t1, bv.t2); err != nil {
		t.Fatal(err)
	}
	rep, err := b.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ops != 3 {
		t.Fatalf("Ops = %d, want 3", rep.Ops)
	}
	// XOR and NOT are independent; AND depends on both -> two waves.
	if rep.Waves != 2 {
		t.Fatalf("Waves = %d, want 2", rep.Waves)
	}

	want, err := sv.out.Read(Backdoor())
	if err != nil {
		t.Fatal(err)
	}
	got, err := bv.out.Read(Backdoor())
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("word %d: batch %#x != sequential %#x", i, got[i], want[i])
		}
	}
}

func TestBatchCopyFillPopcount(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s := smallSystem(t)
	n := 2 * rowBits(s)
	src := s.MustAlloc(n)
	dst := s.MustAlloc(n)
	ones := s.MustAlloc(n)
	words := loadRand(t, rng, src)

	b := s.NewBatch()
	if err := b.Copy(dst, src); err != nil {
		t.Fatal(err)
	}
	if err := b.Fill(ones, true); err != nil {
		t.Fatal(err)
	}
	pc, err := b.Popcount(dst) // depends on the Copy
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pc.Value(); err == nil {
		t.Fatal("PopcountResult.Value succeeded before Run")
	}
	if _, err := b.Run(); err != nil {
		t.Fatal(err)
	}

	got, err := dst.Read(Backdoor())
	if err != nil {
		t.Fatal(err)
	}
	var want int64
	for i, w := range words {
		if got[i] != w {
			t.Fatalf("copied word %d = %#x, want %#x", i, got[i], w)
		}
		for x := w; x != 0; x &= x - 1 {
			want++
		}
	}
	n64, err := pc.Value()
	if err != nil {
		t.Fatal(err)
	}
	if n64 != want {
		t.Fatalf("batch popcount = %d, want %d", n64, want)
	}
	op, err := ones.PopcountFree()
	if err != nil {
		t.Fatal(err)
	}
	if op != int64(ones.WordCount())*64 {
		t.Fatalf("Fill(true) popcount = %d, want %d", op, int64(ones.WordCount())*64)
	}
}

// TestBatchOverlapReducesMakespan is the tentpole property: independent
// single-row operations placed on different banks complete in a batch
// makespan far below the sequential elapsed time, because per-bank timelines
// advance independently.
func TestBatchOverlapReducesMakespan(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	seq := smallSystem(t)
	bat := smallSystem(t)
	banks := seq.Config().DRAM.Geometry.Banks

	type group struct{ a, b, dst *Bitvector }
	alloc := func(s *System) []group {
		gs := make([]group, banks)
		for i := range gs {
			mk := func() *Bitvector {
				v, err := s.AllocAt(rowBits(s), i) // slot i -> bank i%banks
				if err != nil {
					t.Fatal(err)
				}
				return v
			}
			gs[i] = group{a: mk(), b: mk(), dst: mk()}
		}
		return gs
	}
	sg, bg := alloc(seq), alloc(bat)
	for i := range sg {
		wa := randWords(rng, sg[i].a.WordCount())
		wb := randWords(rng, sg[i].b.WordCount())
		for _, p := range []struct {
			v *Bitvector
			w []uint64
		}{{sg[i].a, wa}, {bg[i].a, wa}, {sg[i].b, wb}, {bg[i].b, wb}} {
			if err := p.v.Write(p.w, Backdoor()); err != nil {
				t.Fatal(err)
			}
		}
	}

	for i := range sg {
		if err := seq.Xor(sg[i].dst, sg[i].a, sg[i].b); err != nil {
			t.Fatal(err)
		}
	}
	seqNS := seq.ElapsedNS()

	b := bat.NewBatch()
	for i := range bg {
		if err := b.Xor(bg[i].dst, bg[i].a, bg[i].b); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := b.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Waves != 1 {
		t.Fatalf("independent ops produced %d waves, want 1", rep.Waves)
	}
	// All groups sit on distinct banks, so the batch makespan is one op's
	// latency while the sequential run pays for all of them end to end.
	if rep.MakespanNS*float64(banks) > seqNS*1.01 {
		t.Fatalf("batch makespan %.0f ns over %d banks not ~%dx below sequential %.0f ns",
			rep.MakespanNS, banks, banks, seqNS)
	}
	if got := bat.ElapsedNS(); got != rep.MakespanNS {
		t.Fatalf("system clock advanced %.0f ns, want makespan %.0f ns", got, rep.MakespanNS)
	}
	for i := range bg {
		want, err := sg[i].dst.Read(Backdoor())
		if err != nil {
			t.Fatal(err)
		}
		got, err := bg[i].dst.Read(Backdoor())
		if err != nil {
			t.Fatal(err)
		}
		for w := range want {
			if got[w] != want[w] {
				t.Fatalf("group %d word %d mismatch", i, w)
			}
		}
	}
	// The per-bank breakdown should show every bank roughly equally busy.
	st := bat.Stats()
	for i, busy := range st.BankBusyNS {
		if busy <= 0 {
			t.Fatalf("bank %d never busy", i)
		}
	}
	if u := st.MeanBankUtilization(); u < 0.5 {
		t.Fatalf("mean bank utilization %.2f, want >= 0.5 for a packed batch", u)
	}
}

// TestBatchTimingDeterministic: the simulated makespan must not depend on the
// worker count or goroutine interleaving.
func TestBatchTimingDeterministic(t *testing.T) {
	run := func(workers int) float64 {
		rng := rand.New(rand.NewSource(5))
		s := smallSystem(t)
		n := rowBits(s)
		s.eng.SetWorkers(workers)
		b := s.NewBatch()
		var prev *Bitvector
		for i := 0; i < 6; i++ {
			a := s.MustAlloc(n)
			c := s.MustAlloc(n)
			dst := s.MustAlloc(n)
			loadRand(t, rng, a)
			loadRand(t, rng, c)
			if err := b.Xor(dst, a, c); err != nil {
				t.Fatal(err)
			}
			if prev != nil {
				out := s.MustAlloc(n)
				if err := b.And(out, dst, prev); err != nil {
					t.Fatal(err)
				}
			}
			prev = dst
		}
		rep, err := b.Run()
		if err != nil {
			t.Fatal(err)
		}
		return rep.MakespanNS
	}
	first := run(1)
	for _, w := range []int{2, 4, 8} {
		if got := run(w); got != first {
			t.Fatalf("makespan with %d workers = %v, want %v (workers=1)", w, got, first)
		}
	}
}

func TestBatchRecordErrors(t *testing.T) {
	s := smallSystem(t)
	n := rowBits(s)
	a := s.MustAlloc(n)
	c := s.MustAlloc(n)
	dst := s.MustAlloc(n)
	big := s.MustAlloc(2 * n)

	b := s.NewBatch()
	if err := b.And(dst, nil, c); !errors.Is(err, ErrNilOperand) {
		t.Fatalf("And(nil operand): err = %v, want ErrNilOperand", err)
	}
	if err := b.And(big, a, c); !errors.Is(err, ErrShapeMismatch) {
		t.Fatalf("And with mismatched shapes: err = %v, want ErrShapeMismatch", err)
	}
	if err := b.Copy(big, a); !errors.Is(err, ErrShapeMismatch) {
		t.Fatalf("Copy with mismatched sizes: err = %v, want ErrShapeMismatch", err)
	}
	other := smallSystem(t)
	if err := b.And(dst, other.MustAlloc(n), c); !errors.Is(err, ErrForeignSystem) {
		t.Fatalf("And with foreign operand: err = %v, want ErrForeignSystem", err)
	}
	freed := s.MustAlloc(n)
	if err := s.Free(freed); err != nil {
		t.Fatal(err)
	}
	if err := b.And(dst, freed, c); !errors.Is(err, ErrFreed) {
		t.Fatalf("And with freed operand: err = %v, want ErrFreed", err)
	}
	if b.Len() != 0 {
		t.Fatalf("rejected records left %d ops in batch", b.Len())
	}
}

func TestBatchFreedBetweenRecordAndRun(t *testing.T) {
	s := smallSystem(t)
	n := rowBits(s)
	a := s.MustAlloc(n)
	c := s.MustAlloc(n)
	dst := s.MustAlloc(n)
	b := s.NewBatch()
	if err := b.And(dst, a, c); err != nil {
		t.Fatal(err)
	}
	if err := s.Free(a); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Run(); !errors.Is(err, ErrFreed) {
		t.Fatalf("Run with operand freed after recording: err = %v, want ErrFreed", err)
	}
}

func TestBatchRunOnce(t *testing.T) {
	s := smallSystem(t)
	n := rowBits(s)
	a := s.MustAlloc(n)
	c := s.MustAlloc(n)
	dst := s.MustAlloc(n)
	b := s.NewBatch()
	if err := b.Xor(dst, a, c); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Run(); err == nil {
		t.Fatal("second Run succeeded")
	}
	if err := b.Or(dst, a, c); err == nil {
		t.Fatal("recording after Run succeeded")
	}
}

// TestBatchStats: batch execution feeds the same counters direct calls do.
func TestBatchStats(t *testing.T) {
	s := smallSystem(t)
	n := 2 * rowBits(s)
	a := s.MustAlloc(n)
	c := s.MustAlloc(n)
	dst := s.MustAlloc(n)
	cp := s.MustAlloc(n)
	b := s.NewBatch()
	if err := b.And(dst, a, c); err != nil {
		t.Fatal(err)
	}
	if err := b.Copy(cp, dst); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Run(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if got := st.TotalBulkOps(); got != 1 {
		t.Fatalf("TotalBulkOps = %d, want 1", got)
	}
	if st.RowOps != 2 {
		t.Fatalf("RowOps = %d, want 2", st.RowOps)
	}
	if st.Copies != 2 {
		t.Fatalf("Copies = %d, want 2", st.Copies)
	}
	if st.ElapsedNS <= 0 {
		t.Fatal("ElapsedNS not advanced")
	}
}

// TestBatchCoherenceCharge: batch ops charge the same documented coherence
// model as direct calls (bulk: source rows; Copy: 2x rows; Fill: 1x rows).
func TestBatchCoherenceCharge(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DRAM.Geometry.Banks = 4
	cfg.DRAM.Geometry.SubarraysPerBank = 2
	cfg.DRAM.Geometry.RowsPerSubarray = 64
	cfg.DRAM.Geometry.RowSizeBytes = 128
	cfg.CoherenceNSPerRow = 100
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := int64(s.RowSizeBits())
	a := s.MustAlloc(n)
	c := s.MustAlloc(n)
	dst := s.MustAlloc(n)
	cp := s.MustAlloc(n)
	fl := s.MustAlloc(n)
	b := s.NewBatch()
	if err := b.And(dst, a, c); err != nil { // 2 source rows -> 200
		t.Fatal(err)
	}
	if err := b.Copy(cp, dst); err != nil { // 2x1 rows -> 200
		t.Fatal(err)
	}
	if err := b.Fill(fl, false); err != nil { // 1 row -> 100
		t.Fatal(err)
	}
	if _, err := b.Run(); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().CoherenceNS; got != 500 {
		t.Fatalf("CoherenceNS = %v, want 500", got)
	}
}
