package controller

import (
	"math/rand"
	"reflect"
	"testing"

	"ambit/internal/dram"
	"ambit/internal/obs"
)

// TestCompiledMatchesSequence pins the op-train contract: for real operand
// rows under every aliasing, each op train step resolves to exactly the Step
// Sequence produces — kind, addresses, split-decoder eligibility and the
// rendered trace comment — and each op train has a net program that is exact
// for the layout (layoutFusable), which is why ExecuteOpRowsFused needs no
// per-row layout check.
func TestCompiledMatchesSequence(t *testing.T) {
	layouts := append([]opAliasing{{"rows 7/11/13", dram.D(7), dram.D(11), dram.D(13)}}, opAliasings...)
	for _, op := range Ops {
		tr := opTrains[op]
		if tr.net == nil {
			t.Errorf("%v: op train has no net program", op)
		}
		for _, al := range layouts {
			rows := []dram.RowAddr{al.dk, al.di, al.dj}
			if !tr.layoutFusable(rows) {
				t.Errorf("%v/%s: op train not layoutFusable", op, al.name)
			}
			seq, err := Sequence(op, al.dk, al.di, al.dj)
			if err != nil {
				t.Fatalf("%v: %v", op, err)
			}
			if len(tr.steps) != len(seq) {
				t.Fatalf("%v: op train has %d steps, Sequence %d", op, len(tr.steps), len(seq))
			}
			for i := range seq {
				s, want := &tr.steps[i], seq[i]
				if s.Kind != want.Kind {
					t.Errorf("%v/%s step %d: kind %v != %v", op, al.name, i, s.Kind, want.Kind)
				}
				if got := resolveTrainAddr(s.A1, s.Op1, rows); got != want.Addr1 {
					t.Errorf("%v/%s step %d: addr1 %v != %v", op, al.name, i, got, want.Addr1)
				}
				if want.Kind == StepAAP {
					if got := resolveTrainAddr(s.A2, s.Op2, rows); got != want.Addr2 {
						t.Errorf("%v/%s step %d: addr2 %v != %v", op, al.name, i, got, want.Addr2)
					}
					wantSplit := (want.Addr1.Group == dram.GroupB) != (want.Addr2.Group == dram.GroupB)
					if s.split != wantSplit {
						t.Errorf("%v/%s step %d: split %v != %v", op, al.name, i, s.split, wantSplit)
					}
				}
				// Twice: the second call reads the interned copy.
				for k := 0; k < 2; k++ {
					if got := s.commentFor(rows); got != want.Comment {
						t.Errorf("%v/%s step %d: comment %q != %q", op, al.name, i, got, want.Comment)
					}
				}
			}
		}
	}
}

// TestCompiledExecutionMatchesTraced runs every op untraced and traced on twin
// controllers and demands identical cell contents, latencies, controller
// stats, and device stats.
func TestCompiledExecutionMatchesTraced(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	mk := func() *Controller { return testController(t) }
	fast, slow := mk(), mk()
	// An installed tracer with an enabled sink adds the event replay.
	slow.SetTracer(obs.NewTracer(obs.NopSink{}), nil)

	words := testGeom().WordsPerRow()
	dk, di, dj := dram.D(0), dram.D(1), dram.D(2)
	for _, op := range Ops {
		x, y := randRow(rng, words), randRow(rng, words)
		for _, c := range []*Controller{fast, slow} {
			pokeRow(t, c, 0, 0, di, x)
			pokeRow(t, c, 0, 0, dj, y)
		}
		latFast, err := fast.ExecuteOp(op, 0, 0, dk, di, dj)
		if err != nil {
			t.Fatalf("%v fast: %v", op, err)
		}
		latSlow, err := slow.ExecuteOp(op, 0, 0, dk, di, dj)
		if err != nil {
			t.Fatalf("%v traced: %v", op, err)
		}
		if latFast != latSlow {
			t.Errorf("%v: latency %v != %v", op, latFast, latSlow)
		}
		got, want := peekRow(t, fast, 0, 0, dk), peekRow(t, slow, 0, 0, dk)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%v: result rows differ", op)
		}
	}
	if fast.Stats() != slow.Stats() {
		t.Errorf("controller stats diverged: fast %+v slow %+v", fast.Stats(), slow.Stats())
	}
	if fast.Device().Stats() != slow.Device().Stats() {
		t.Errorf("device stats diverged: fast %+v slow %+v", fast.Device().Stats(), slow.Device().Stats())
	}
}

// TestCompiledRejectsNonDataOperands mirrors TestSequenceRejectsNonDataOperands
// on ExecuteOp.
func TestCompiledRejectsNonDataOperands(t *testing.T) {
	c := testController(t)
	cases := []struct {
		dk, di, dj dram.RowAddr
	}{
		{dram.B(0), dram.D(1), dram.D(2)},
		{dram.D(0), dram.C(1), dram.D(2)},
		{dram.D(0), dram.D(1), dram.B(12)},
	}
	for _, tc := range cases {
		if _, err := c.ExecuteOp(OpAnd, 0, 0, tc.dk, tc.di, tc.dj); err == nil {
			t.Errorf("ExecuteOp(and, %v, %v, %v) accepted non-data operand", tc.dk, tc.di, tc.dj)
		}
	}
	// Unary ops must ignore dj entirely.
	if _, err := c.ExecuteOp(OpNot, 0, 0, dram.D(0), dram.D(1), dram.B(12)); err != nil {
		t.Errorf("ExecuteOp(not) rejected unused dj: %v", err)
	}
}

// BenchmarkSequence measures building a Figure-8 sequence, which happens once
// per op at init, when the op trains are built.
func BenchmarkSequence(b *testing.B) {
	dk, di, dj := dram.D(0), dram.D(1), dram.D(2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Sequence(OpAnd, dk, di, dj); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScheduleOp measures the full schedule path per row; the op train
// keeps it allocation-free.
func BenchmarkScheduleOp(b *testing.B) {
	d, err := dram.NewDevice(dram.Config{Geometry: testGeom(), Timing: dram.DDR3_1600()})
	if err != nil {
		b.Fatal(err)
	}
	c := New(d)
	dk, di, dj := dram.D(0), dram.D(1), dram.D(2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.ScheduleOp(OpAnd, 0, 0, dk, di, dj, 0); err != nil {
			b.Fatal(err)
		}
	}
}
