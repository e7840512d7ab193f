package controller_test

import (
	"fmt"
	"math/rand"
	"testing"

	"ambit/internal/compile"
	"ambit/internal/controller"
	"ambit/internal/dram"
)

// diffGeom has rows of two full evaluation chunks plus a partial one, so
// chunk boundaries are exercised.
func diffGeom() dram.Geometry {
	return dram.Geometry{Banks: 2, SubarraysPerBank: 2, RowsPerSubarray: 64, RowSizeBytes: 8 * (2*controller.NetChunk + 37)}
}

func diffController(t *testing.T) *controller.Controller {
	t.Helper()
	d, err := dram.NewDevice(dram.Config{Geometry: diffGeom(), Timing: dram.DDR3_1600()})
	if err != nil {
		t.Fatal(err)
	}
	return controller.New(d)
}

// reservedRows are the single-wordline addresses of T0–T3, DCC0 and DCC1.
var reservedRows = []dram.RowAddr{dram.B(0), dram.B(1), dram.B(2), dram.B(3), dram.B(4), dram.B(6)}

// subarrayState returns every designated row and every data row of one
// subarray.
func subarrayState(t *testing.T, c *controller.Controller, bank, sub int) [][]uint64 {
	t.Helper()
	var out [][]uint64
	addrs := append([]dram.RowAddr(nil), reservedRows...)
	for r := 0; r < diffGeom().DataRows(); r++ {
		addrs = append(addrs, dram.D(r))
	}
	for _, a := range addrs {
		row, err := c.Device().PeekRow(dram.PhysAddr{Bank: bank, Subarray: sub, Row: a})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, row)
	}
	return out
}

// trainDiff runs trains on twin controllers, one on the net-effect path and
// one forced step by step, and compares the full subarray state after every
// run plus latencies and controller and device stats at the end.
type trainDiff struct {
	t           *testing.T
	rng         *rand.Rand
	fused, step *controller.Controller
	runs, fast  int
}

func newTrainDiff(t *testing.T, seed int64) *trainDiff {
	d := &trainDiff{t: t, rng: rand.New(rand.NewSource(seed)), fused: diffController(t), step: diffController(t)}
	controller.SetNoFuse(d.step, true)
	return d
}

// run executes tr with the given operand rows on a random bank/subarray whose
// operand and designated rows hold the same random contents on both twins.
func (d *trainDiff) run(label string, tr *controller.Train, rows []dram.RowAddr) {
	t := d.t
	t.Helper()
	bank, sub := d.rng.Intn(diffGeom().Banks), d.rng.Intn(diffGeom().SubarraysPerBank)
	words := diffGeom().WordsPerRow()
	for _, a := range append(append([]dram.RowAddr(nil), reservedRows...), rows...) {
		row := make([]uint64, words)
		for i := range row {
			row[i] = d.rng.Uint64()
		}
		for _, c := range []*controller.Controller{d.fused, d.step} {
			if err := c.Device().PokeRow(dram.PhysAddr{Bank: bank, Subarray: sub, Row: a}, row); err != nil {
				t.Fatal(err)
			}
		}
	}
	latF, errF := d.fused.ExecuteTrain(tr, bank, sub, rows)
	latS, errS := d.step.ExecuteTrain(tr, bank, sub, rows)
	if (errF == nil) != (errS == nil) {
		t.Fatalf("%s: fused err %v, stepwise err %v", label, errF, errS)
	}
	if errF != nil {
		t.Fatalf("%s: %v", label, errF)
	}
	if latF != latS || latF != d.fused.TrainLatencyNS(tr) {
		t.Errorf("%s: latency fused %v stepwise %v census %v", label, latF, latS, d.fused.TrainLatencyNS(tr))
	}
	got, want := subarrayState(t, d.fused, bank, sub), subarrayState(t, d.step, bank, sub)
	for r := range want {
		for w := range want[r] {
			if got[r][w] != want[r][w] {
				name := fmt.Sprint(reservedRows[min(r, len(reservedRows)-1)])
				if r >= len(reservedRows) {
					name = dram.D(r - len(reservedRows)).String()
				}
				t.Fatalf("%s rows %v: %s word %d: fused %016x, stepwise %016x\n%s",
					label, rows, name, w, got[r][w], want[r][w], tr.Listing(nil))
			}
		}
	}
	d.runs++
	if controller.HasNetProgram(tr) && controller.LayoutFusable(tr, rows) {
		d.fast++
	}
}

// finish compares the accumulated stats of the twins.
func (d *trainDiff) finish() {
	t := d.t
	t.Helper()
	if d.fused.Stats() != d.step.Stats() {
		t.Errorf("controller stats diverge:\n fused %+v\n  step %+v", d.fused.Stats(), d.step.Stats())
	}
	if d.fused.Device().Stats() != d.step.Device().Stats() {
		t.Errorf("device stats diverge:\n fused %+v\n  step %+v", d.fused.Device().Stats(), d.step.Device().Stats())
	}
	if got := d.fused.Stats().Trains; got != int64(d.runs) {
		t.Errorf("Trains counter = %d, want %d", got, d.runs)
	}
}

// distinctRows returns n distinct random data rows.
func (d *trainDiff) distinctRows(n int) []dram.RowAddr {
	perm := d.rng.Perm(diffGeom().DataRows())
	rows := make([]dram.RowAddr, n)
	for i := range rows {
		rows[i] = dram.D(perm[i])
	}
	return rows
}

// aliasedRows is distinctRows with a few slots folded onto others — layouts
// the net program must either handle exactly or refuse.
func (d *trainDiff) aliasedRows(n int) []dram.RowAddr {
	rows := d.distinctRows(n)
	for k := d.rng.Intn(3); k > 0 && n > 1; k-- {
		rows[d.rng.Intn(n)] = rows[d.rng.Intn(n)]
	}
	return rows
}

func randomExpr(rng *rand.Rand, vars, depth int) *compile.Expr {
	if depth == 0 || rng.Intn(5) == 0 {
		if rng.Intn(8) == 0 {
			return compile.Lit(rng.Intn(2) == 1)
		}
		return compile.Var(rng.Intn(vars))
	}
	sub := func() *compile.Expr { return randomExpr(rng, vars, depth-1) }
	switch rng.Intn(6) {
	case 0:
		return compile.Not(sub())
	case 1:
		return compile.And(sub(), sub())
	case 2:
		return compile.Or(sub(), sub())
	case 3:
		return compile.Xor(sub(), sub())
	case 4:
		return compile.Maj(sub(), sub(), sub())
	}
	return compile.Nand(sub(), sub())
}

func mustTrain(t *testing.T, name string, operands int, steps []controller.TrainStep) *controller.Train {
	t.Helper()
	tr, err := controller.NewTrain(name, operands, steps)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func aap(a1 dram.RowAddr, op1 int, a2 dram.RowAddr, op2 int) controller.TrainStep {
	return controller.TrainStep{Kind: controller.StepAAP, A1: a1, Op1: op1, A2: a2, Op2: op2}
}

func ap(a dram.RowAddr) controller.TrainStep {
	return controller.TrainStep{Kind: controller.StepAP, A1: a, Op1: -1, Op2: -1}
}

// TestTrainFusedMatchesStepwise is the differential for the net-effect
// evaluator: compiled and hand-built trains run on a net-effect controller
// and a step-by-step twin over random contents and operand layouts, and
// every designated row, every data row, every latency, and the controller
// and device stats must agree.
func TestTrainFusedMatchesStepwise(t *testing.T) {
	d := newTrainDiff(t, 11)
	none := dram.RowAddr{}

	// Random compiled DAGs, single- and multi-output, over distinct and
	// aliased layouts.
	compiled := 0
	for trial := 0; compiled < 400; trial++ {
		exprs := make([]*compile.Expr, 1+d.rng.Intn(3))
		for j := range exprs {
			exprs[j] = randomExpr(d.rng, 5, 6)
		}
		c, err := compile.CompileFn("rand", exprs...)
		if err != nil {
			continue // spills are a compile-time outcome, not a train
		}
		compiled++
		n := c.NumInputs + c.NumOutputs
		d.run(fmt.Sprintf("rand %d", trial), c.Train, d.distinctRows(n))
		d.run(fmt.Sprintf("rand %d aliased", trial), c.Train, d.aliasedRows(n))
	}

	// The arithmetic library and the PopcountVertical adders.
	sum, carry := compile.FullAdder(compile.Var(0), compile.Var(1), compile.Var(2))
	hs, hc := compile.HalfAdder(compile.Var(0), compile.Var(1))
	for _, f := range []struct {
		name  string
		exprs []*compile.Expr
	}{
		{"add8", compile.RippleAdd(8)},
		{"lt8", []*compile.Expr{compile.Less(8)}},
		{"eq4", []*compile.Expr{compile.Equal(4)}},
		{"csa", []*compile.Expr{sum, carry}},
		{"ha", []*compile.Expr{hs, hc}},
	} {
		c, err := compile.CompileFn(f.name, f.exprs...)
		if err != nil {
			t.Fatal(err)
		}
		n := c.NumInputs + c.NumOutputs
		for k := 0; k < 3; k++ {
			d.run(f.name, c.Train, d.distinctRows(n))
			d.run(f.name+" aliased", c.Train, d.aliasedRows(n))
		}
	}

	// Hand trains outside what the compiler emits: n-wordline captures
	// and negated sensing (B5/B7/B8/B9), the sensed DCC cell overwritten
	// through its own n-wordline, designated rows read before any write,
	// a designated row's initial value kept elsewhere while the row is
	// rewritten, control-row sensing, and self-copies.
	hand := []*controller.Train{
		mustTrain(t, "negations", 3, []controller.TrainStep{
			aap(none, 0, dram.B(5), -1),       // DCC0 = !$0
			aap(none, 1, dram.B(7), -1),       // DCC1 = !$1
			aap(dram.B(4), -1, dram.B(8), -1), // DCC0 flipped, T0 sees the flip
			aap(dram.B(6), -1, dram.B(9), -1), // same for DCC1/T1
			aap(dram.B(5), -1, dram.B(2), -1), // T2 = !DCC0
			aap(dram.B(12), -1, none, 2),      // $2 = MAJ(T0, T1, T2)
			aap(dram.B(7), -1, none, 0),       // $0 = !DCC1
		}),
		mustTrain(t, "read-before-write", 2, []controller.TrainStep{
			ap(dram.B(13)),                     // MAJ of the initial T1, T2, T3
			aap(dram.B(3), -1, none, 1),        // $1 = T3
			aap(dram.B(5), -1, dram.B(1), -1),  // T1 = !DCC0 (initial)
			aap(dram.B(14), -1, dram.B(0), -1), // T0 = MAJ(DCC0, T1, T2)
			aap(dram.B(15), -1, none, 0),       // $0 = MAJ(DCC1, T0, T3)
		}),
		mustTrain(t, "initial T0 kept", 3, []controller.TrainStep{
			aap(dram.B(0), -1, none, 2),       // $2 = T0 (initial)
			aap(none, 0, dram.B(0), -1),       // T0 = $0
			aap(none, 1, dram.B(1), -1),       // T1 = $1
			aap(dram.C(0), -1, dram.B(2), -1), // T2 = 0
			ap(dram.B(12)),                    // T0 = T1 = T2 = $0 & $1
		}),
		mustTrain(t, "initial T0 in T1", 1, []controller.TrainStep{
			aap(dram.B(0), -1, dram.B(1), -1), // T1 = T0 (initial)
			aap(none, 0, dram.B(0), -1),       // T0 = $0
		}),
		mustTrain(t, "constants", 2, []controller.TrainStep{
			aap(dram.C(0), -1, dram.B(10), -1), // T2 = T3 = 0
			aap(dram.C(1), -1, dram.B(11), -1), // T0 = T3 = 1
			aap(dram.C(1), -1, dram.B(5), -1),  // DCC0 = 0
			aap(dram.C(0), -1, dram.B(9), -1),  // DCC1 = 1, T1 = 0
			aap(dram.B(12), -1, none, 0),       // $0 = MAJ(1, 0, 0)
			aap(dram.B(15), -1, none, 1),       // $1 = MAJ(1, 1, 1)
		}),
		mustTrain(t, "self-copies", 2, []controller.TrainStep{
			aap(dram.B(0), -1, dram.B(0), -1),
			aap(dram.B(4), -1, dram.B(5), -1), // DCC0 = !DCC0
			aap(none, 0, none, 0),
			aap(none, 1, dram.B(11), -1), // T0 = T3 = $1
			aap(dram.B(0), -1, none, 1),  // $1 = $1 through T0
		}),
		mustTrain(t, "two-wordline sensing", 2, []controller.TrainStep{
			aap(none, 0, dram.B(8), -1), // DCC0 = !$0, T0 = $0: the pair agrees
			aap(dram.B(8), -1, none, 1),
		}),
	}
	if controller.HasNetProgram(hand[len(hand)-1]) {
		t.Error("two-wordline sensing train compiled to a net program")
	}
	for _, tr := range hand {
		for k := 0; k < 4; k++ {
			d.run(tr.Name(), tr, d.distinctRows(tr.Operands()))
			d.run(tr.Name()+" aliased", tr, d.aliasedRows(tr.Operands()))
		}
	}

	// Legal in-place aliasing: the output shares the row of an input whose
	// last read precedes the write.  Illegal: an input read after the
	// output sharing its row was written must take the stepwise path.
	and := mustTrain(t, "and", 3, []controller.TrainStep{
		aap(none, 0, dram.B(0), -1),
		aap(none, 1, dram.B(1), -1),
		aap(dram.C(0), -1, dram.B(2), -1),
		aap(dram.B(12), -1, none, 2),
	})
	inPlace := []dram.RowAddr{dram.D(3), dram.D(4), dram.D(3)}
	if !controller.LayoutFusable(and, inPlace) {
		t.Error("dst == src after the last read refused")
	}
	d.run("and in place", and, inPlace)
	late := mustTrain(t, "late read", 3, []controller.TrainStep{
		aap(none, 0, none, 1),       // $1 = $0
		aap(none, 2, dram.B(0), -1), // reads $2 after $1 was written
		aap(dram.B(0), -1, dram.B(5), -1),
	})
	shared := []dram.RowAddr{dram.D(5), dram.D(6), dram.D(6)}
	if controller.LayoutFusable(late, shared) {
		t.Error("read after a write to the same row accepted")
	}
	d.run("late read shared", late, shared)
	twoOuts := mustTrain(t, "two outputs", 3, []controller.TrainStep{
		aap(none, 0, none, 1),
		aap(dram.C(1), -1, none, 2),
	})
	oneRow := []dram.RowAddr{dram.D(7), dram.D(8), dram.D(8)}
	if controller.LayoutFusable(twoOuts, oneRow) {
		t.Error("two written slots on one row accepted")
	}
	d.run("two outputs on one row", twoOuts, oneRow)

	d.finish()
	if d.fast < d.runs/2 {
		t.Errorf("only %d of %d runs took the net-effect path", d.fast, d.runs)
	}
}
