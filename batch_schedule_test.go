package ambit

// Reference check for Batch's timing phase: every op's span StartNS and the
// program's Waves against a brute-force O(n²) hazard scan over the physical
// rows each recorded op reads and writes.  In the scan an op depends on every
// earlier op that writes a row it reads or writes, or reads a row it writes;
// it starts when the last of those finishes, and its level is one more than
// the highest of theirs.

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"ambit/internal/controller"
	"ambit/internal/dram"
)

// batchSpanSink keeps the per-op spans a Batch emits in its timing phase.
type batchSpanSink struct{ spans []TraceEvent }

func (s *batchSpanSink) Emit(e TraceEvent) {
	if e.Kind == KindSpan && e.Comment == "batch" {
		s.spans = append(s.spans, e)
	}
}

func (s *batchSpanSink) Flush() error { return nil }

// refBatch records ops on a traced Batch and, beside each recorded op, the
// physical rows it reads and writes, taken from the operands passed to it.
type refBatch struct {
	t      *testing.T
	sys    *System
	sink   *batchSpanSink
	b      *Batch
	reads  [][]dram.PhysAddr
	writes [][]dram.PhysAddr
}

func newRefBatch(t *testing.T) *refBatch {
	t.Helper()
	sink := &batchSpanSink{}
	cfg := DefaultConfig()
	cfg.DRAM.Geometry = dram.Geometry{Banks: 4, SubarraysPerBank: 2, RowsPerSubarray: 64, RowSizeBytes: 64}
	cfg.CoherenceNSPerRow = 1.5
	cfg.Tracer = NewTracer(sink)
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &refBatch{t: t, sys: sys, sink: sink, b: sys.NewBatch()}
}

// alloc allocates a vector of the given rows at a base slot; vectors with
// equal rows and base are co-located row for row, and base slots that differ
// by less than the bank count put corresponding rows in different banks.
func (r *refBatch) alloc(rows, base int) *Bitvector {
	r.t.Helper()
	v, err := r.sys.AllocAt(int64(rows*r.sys.RowSizeBits()), base)
	if err != nil {
		r.t.Fatal(err)
	}
	return v
}

// record keeps the op's row sets if recording it succeeded.
func (r *refBatch) record(err error, reads []*Bitvector, writes ...*Bitvector) error {
	if err != nil {
		return err
	}
	rows := func(vs []*Bitvector) []dram.PhysAddr {
		var out []dram.PhysAddr
		for _, v := range vs {
			out = append(out, v.rows...)
		}
		return out
	}
	r.reads = append(r.reads, rows(reads))
	r.writes = append(r.writes, rows(writes))
	return nil
}

func (r *refBatch) apply(op controller.Op, dst, a, b *Bitvector) error {
	reads := []*Bitvector{a, b}
	if op.Unary() {
		reads = reads[:1]
	}
	return r.record(r.b.Apply(op, dst, a, b), reads, dst)
}

func (r *refBatch) copy(dst, src *Bitvector) error {
	return r.record(r.b.Copy(dst, src), []*Bitvector{src}, dst)
}

func (r *refBatch) fill(v *Bitvector, bit bool) error { return r.record(r.b.Fill(v, bit), nil, v) }

func (r *refBatch) popcount(v *Bitvector) error {
	_, err := r.b.Popcount(v)
	return r.record(err, []*Bitvector{v})
}

func (r *refBatch) call(f *Func, dsts []*Bitvector, srcs ...*Bitvector) error {
	return r.record(r.b.Call(f, dsts, srcs...), srcs, dsts...)
}

// must fails the test on a recording error.
func (r *refBatch) must(err error) {
	r.t.Helper()
	if err != nil {
		r.t.Fatal(err)
	}
}

// sharesRow reports whether the two row lists have a row in common.
func sharesRow(a, b []dram.PhysAddr) bool {
	for _, x := range a {
		for _, y := range b {
			if x == y {
				return true
			}
		}
	}
	return false
}

// check runs the batch and compares each op's span StartNS (up to float
// rounding: the reference reads a dependency's finish back as StartNS +
// DurNS) and BatchReport.Waves (exactly) with the brute-force scan.  It
// returns the op spans and the reference waves.
func (r *refBatch) check() ([]TraceEvent, int) {
	t := r.t
	t.Helper()
	base := r.sys.Stats().ElapsedNS
	rep, err := r.b.Run()
	if err != nil {
		t.Fatal(err)
	}
	n, spans := len(r.reads), r.sink.spans
	if len(spans) != n || rep.Ops != n {
		t.Fatalf("%d op spans and BatchReport.Ops %d for %d recorded ops", len(spans), rep.Ops, n)
	}
	level := make([]int, n)
	waves := 0
	for i := range level {
		start := base
		for j := 0; j < i; j++ {
			if sharesRow(r.writes[j], r.reads[i]) || sharesRow(r.writes[j], r.writes[i]) ||
				sharesRow(r.reads[j], r.writes[i]) {
				start = math.Max(start, spans[j].StartNS+spans[j].DurNS)
				level[i] = max(level[i], level[j]+1)
			}
		}
		if got := spans[i].StartNS; math.Abs(got-start) > 1e-9*math.Max(1, start) {
			t.Errorf("op %d (%s) starts at %v ns, reference %v", i, spans[i].Name, got, start)
		}
		waves = max(waves, level[i]+1)
	}
	if rep.Waves != waves {
		t.Errorf("BatchReport.Waves = %d, reference %d", rep.Waves, waves)
	}
	return spans, waves
}

// TestBatchScheduleReference pins the hazard kinds one at a time: each case
// must agree with the reference scan, have the stated dependency depth and
// start the listed ops at the same moment.
func TestBatchScheduleReference(t *testing.T) {
	for _, tc := range []struct {
		name      string
		waves     int
		sameStart []int
		body      func(r *refBatch)
	}{
		{"empty", 0, nil, func(r *refBatch) {}},
		{"independent", 1, []int{0, 1, 2}, func(r *refBatch) {
			// Three unrelated ops, each on its own bank.
			for base := 0; base < 3; base++ {
				r.must(r.apply(controller.OpNot, r.alloc(1, base), r.alloc(1, base), nil))
			}
		}},
		{"RAW chain", 3, nil, func(r *refBatch) {
			// op0 writes x; op1 reads x, writes y; op2 reads y.
			x, y := r.alloc(2, 0), r.alloc(2, 0)
			r.must(r.fill(x, true))
			r.must(r.apply(controller.OpNot, y, x, nil))
			r.must(r.popcount(y))
		}},
		{"WAR", 2, []int{0, 1}, func(r *refBatch) {
			// op0 and op1 read x; op2 writes x and waits for both readers.
			x := r.alloc(2, 0)
			r.must(r.popcount(x))
			r.must(r.popcount(x))
			r.must(r.fill(x, false))
		}},
		{"WAW", 2, nil, func(r *refBatch) {
			x := r.alloc(2, 0)
			r.must(r.fill(x, true))
			r.must(r.fill(x, false))
		}},
		{"in-place no self-dependency", 2, nil, func(r *refBatch) {
			// x = NOT x depends on x's writer, not on itself.
			x := r.alloc(2, 0)
			r.must(r.fill(x, true))
			r.must(r.apply(controller.OpNot, x, x, nil))
		}},
		{"write clears readers", 3, nil, func(r *refBatch) {
			// op2 overwrites x after op1 did: it waits for op1 only, since
			// op0's read finished before op1 could start.
			x := r.alloc(2, 0)
			r.must(r.popcount(x))
			r.must(r.fill(x, true))
			r.must(r.fill(x, false))
		}},
		{"levels", 3, []int{1, 2}, func(r *refBatch) {
			// Diamond: op0 -> {op1, op2} -> op3; op1 and op2 share a wave.
			x, y, z, w := r.alloc(2, 0), r.alloc(2, 0), r.alloc(2, 0), r.alloc(2, 0)
			r.must(r.fill(x, true))
			r.must(r.apply(controller.OpNot, y, x, nil))
			r.must(r.apply(controller.OpNot, z, x, nil))
			r.must(r.apply(controller.OpAnd, w, y, z))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRefBatch(t)
			tc.body(r)
			spans, waves := r.check()
			if waves != tc.waves {
				t.Errorf("reference waves = %d, want %d", waves, tc.waves)
			}
			for _, i := range tc.sameStart {
				if first := tc.sameStart[0]; spans[i].StartNS != spans[first].StartNS {
					t.Errorf("op %d starts at %v, op %d at %v", i, spans[i].StartNS, first, spans[first].StartNS)
				}
			}
		})
	}
}

// TestBatchScheduleReferenceRandom checks 240 seeded random programs over two
// groups of co-located vectors at different base slots: bulk ops with shared
// and in-place operands, Copy within and across groups (a cross-bank PSM
// copy), Fill, Popcount and a two-output Call.
func TestBatchScheduleReferenceRandom(t *testing.T) {
	const programs = 240
	var crossBank, inPlace, calls, fills, popcounts, maxWaves int
	for seed := int64(0); seed < programs; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r := newRefBatch(t)
		halfAdd, err := r.sys.Compile("halfadd", Xor(Var(0), Var(1)), And(Var(0), Var(1)))
		if err != nil {
			t.Fatal(err)
		}
		rows := 1 + rng.Intn(3)
		var groups [2][]*Bitvector
		for g := range groups {
			for k := 0; k < 4; k++ {
				groups[g] = append(groups[g], r.alloc(rows, g))
			}
		}
		anyVec := func() (*Bitvector, int) {
			g := rng.Intn(len(groups))
			return groups[g][rng.Intn(len(groups[g]))], g
		}
		for i, n := 0, 1+rng.Intn(30); i < n; i++ {
			g := groups[rng.Intn(len(groups))]
			pick := func() *Bitvector { return g[rng.Intn(len(g))] }
			switch k := rng.Intn(10); {
			case k < 5:
				op := controller.Ops[rng.Intn(len(controller.Ops))]
				dst, a, b := pick(), pick(), pick()
				r.must(r.apply(op, dst, a, b))
				if dst == a || (!op.Unary() && dst == b) {
					inPlace++
				}
			case k == 5:
				dst, gd := anyVec()
				src, gs := anyVec()
				r.must(r.copy(dst, src))
				if gd != gs {
					crossBank++
				}
			case k == 6:
				r.must(r.fill(pick(), rng.Intn(2) == 1))
				fills++
			case k == 7:
				r.must(r.popcount(pick()))
				popcounts++
			default:
				// Aliased operands are rejected at recording; the
				// reference skips them too.
				switch err := r.call(halfAdd, []*Bitvector{pick(), pick()}, pick(), pick()); {
				case err == nil:
					calls++
				case !errors.Is(err, ErrAliasedOperands):
					t.Fatal(err)
				}
			}
		}
		_, waves := r.check()
		maxWaves = max(maxWaves, waves)
	}
	t.Logf("%d programs: %d cross-bank copies, %d in-place bulk ops, %d calls, %d fills, %d popcounts, up to %d waves",
		programs, crossBank, inPlace, calls, fills, popcounts, maxWaves)
	if crossBank == 0 || inPlace == 0 || calls == 0 || fills == 0 || popcounts == 0 || maxWaves < 8 {
		t.Error("the random programs miss a required case")
	}
}
