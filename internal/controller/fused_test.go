package controller

import (
	"math/rand"
	"reflect"
	"testing"

	"ambit/internal/dram"
	"ambit/internal/obs"
)

// opAliasing is one Dk/Di/Dj layout of an op's operand rows.
type opAliasing struct {
	name       string
	dk, di, dj dram.RowAddr
}

// opAliasings are the five ways an op's operand rows can coincide.
var opAliasings = []opAliasing{
	{"distinct", dram.D(0), dram.D(1), dram.D(2)},
	{"dk=di", dram.D(1), dram.D(1), dram.D(2)},
	{"dk=dj", dram.D(2), dram.D(1), dram.D(2)},
	{"di=dj", dram.D(0), dram.D(1), dram.D(1)},
	{"all-same", dram.D(1), dram.D(1), dram.D(1)},
}

// TestFusedMatchesStepwise is the equivalence gate for the fused train
// evaluator: for every op and every operand-aliasing shape it executes the
// train once fused and once step by step (traced path) on twin devices whose
// B-group rows are pre-polluted with noise, then diffs the COMPLETE subarray
// state — every data row, T0-T3, both DCC rows, both control rows — plus
// latency, controller stats, and device stats.  Any divergence in a net-effect
// formula shows up as a row mismatch here.
func TestFusedMatchesStepwise(t *testing.T) {
	// Addresses of every single-wordline row the trains can touch.
	auditRows := []dram.RowAddr{
		dram.B(0), dram.B(1), dram.B(2), dram.B(3), // T0..T3
		dram.B(4), dram.B(6), // DCC0, DCC1 (data side)
		dram.C(0), dram.C(1),
	}
	for i := 0; i < testGeom().DataRows(); i++ {
		auditRows = append(auditRows, dram.D(i))
	}
	rng := rand.New(rand.NewSource(99))
	words := testGeom().WordsPerRow()
	for _, op := range Ops {
		for _, al := range opAliasings {
			fused, step := testController(t), testController(t)
			step.SetTracer(obs.NewTracer(obs.NopSink{}), nil)
			step.noFuse = true // the traced path also fuses now; force stepwise
			// Identical random state everywhere, including the scratch
			// rows trains overwrite, so untouched rows must match too.
			for _, addr := range auditRows {
				if addr == dram.C(0) || addr == dram.C(1) {
					continue // control rows are constants
				}
				row := randRow(rng, words)
				pokeRow(t, fused, 0, 0, addr, row)
				pokeRow(t, step, 0, 0, addr, row)
			}
			latF, err := fused.ExecuteOp(op, 0, 0, al.dk, al.di, al.dj)
			if err != nil {
				t.Fatalf("%v/%s fused: %v", op, al.name, err)
			}
			latS, err := step.ExecuteOp(op, 0, 0, al.dk, al.di, al.dj)
			if err != nil {
				t.Fatalf("%v/%s stepwise: %v", op, al.name, err)
			}
			if latF != latS {
				t.Errorf("%v/%s: latency %v != %v", op, al.name, latF, latS)
			}
			for _, addr := range auditRows {
				got := peekRow(t, fused, 0, 0, addr)
				want := peekRow(t, step, 0, 0, addr)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%v/%s: row %v diverged", op, al.name, addr)
				}
			}
			if fused.Stats() != step.Stats() {
				t.Errorf("%v/%s: controller stats %+v != %+v", op, al.name, fused.Stats(), step.Stats())
			}
			if fused.Device().Stats() != step.Device().Stats() {
				t.Errorf("%v/%s: device stats %+v != %+v", op, al.name, fused.Device().Stats(), step.Device().Stats())
			}
		}
	}
}

// TestFusedIneligibleFallsBack checks the two runtime eligibility gates: an
// armed one-shot TRA fault mask and an installed probabilistic injector must
// route the train through the step-by-step path so the fault lands exactly as
// before.
func TestFusedIneligibleFallsBack(t *testing.T) {
	c := testController(t)
	words := testGeom().WordsPerRow()
	rng := rand.New(rand.NewSource(5))
	x, y := randRow(rng, words), randRow(rng, words)
	pokeRow(t, c, 0, 0, dram.D(1), x)
	pokeRow(t, c, 0, 0, dram.D(2), y)
	mask := make([]uint64, words)
	mask[0] = 0b101
	c.Device().Bank(0).Subarray(0).InjectTRAFault(mask)
	if _, err := c.ExecuteOp(OpAnd, 0, 0, dram.D(0), dram.D(1), dram.D(2)); err != nil {
		t.Fatal(err)
	}
	got := peekRow(t, c, 0, 0, dram.D(0))
	if got[0] != (x[0]&y[0])^mask[0] {
		t.Errorf("armed fault mask did not land: got %#x, want %#x", got[0], (x[0]&y[0])^mask[0])
	}
}
