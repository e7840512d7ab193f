package controller

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"ambit/internal/dram"
	"ambit/internal/obs"
)

// andTrain is a hand-built Figure-8 style train: $2 = $0 & $1.
func andTrain(t *testing.T) *Train {
	t.Helper()
	tr, err := NewTrain("and", 3, []TrainStep{
		{Kind: StepAAP, Op1: 0, A2: dram.B(0), Op2: -1, Comment: "T0 = a"},
		{Kind: StepAAP, Op1: 1, A2: dram.B(1), Op2: -1, Comment: "T1 = b"},
		{Kind: StepAAP, A1: dram.C(0), Op1: -1, A2: dram.B(2), Op2: -1, Comment: "T2 = 0"},
		{Kind: StepAAP, A1: dram.B(12), Op1: -1, Op2: 2, Comment: "out = T0 & T1"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// notTrain is the dual-contact negation train: $1 = !$0.
func notTrain(t *testing.T) *Train {
	t.Helper()
	tr, err := NewTrain("not", 2, []TrainStep{
		{Kind: StepAAP, Op1: 0, A2: dram.B(5), Op2: -1, Comment: "DCC0 = !a"},
		{Kind: StepAAP, A1: dram.B(4), Op1: -1, Op2: 1, Comment: "out = DCC0"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestNewTrainValidation(t *testing.T) {
	ok := []TrainStep{{Kind: StepAAP, Op1: 0, A2: dram.B(0), Op2: -1}}
	cases := []struct {
		name     string
		operands int
		steps    []TrainStep
		wantErr  string
	}{
		{"no operands", 0, ok, "at least one operand"},
		{"empty", 1, nil, "empty step sequence"},
		{"op1 range", 1, []TrainStep{{Kind: StepAAP, Op1: 1, A2: dram.B(0), Op2: -1}}, "out of range"},
		{"op2 range", 1, []TrainStep{{Kind: StepAAP, Op1: 0, Op2: 3}}, "out of range"},
		{"fixed data row", 1, []TrainStep{{Kind: StepAAP, A1: dram.D(5), Op1: -1, A2: dram.B(0), Op2: -1}}, "data rows must be operand slots"},
		{"write control row", 1, []TrainStep{{Kind: StepAAP, Op1: 0, A2: dram.C(1), Op2: -1}}, "cannot write control row"},
		{"B index range", 1, []TrainStep{{Kind: StepAP, A1: dram.B(16), Op1: -1, Op2: -1}}, "out of range"},
	}
	for _, c := range cases {
		_, err := NewTrain(c.name, c.operands, c.steps)
		if err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: err = %v, want substring %q", c.name, err, c.wantErr)
		}
	}
}

func TestTrainCensus(t *testing.T) {
	tr := andTrain(t)
	if tr.AAPs() != 4 || tr.APs() != 0 {
		t.Errorf("and census: %d AAPs %d APs, want 4/0", tr.AAPs(), tr.APs())
	}
	// Steps 1-3 have exactly one B-group side; the TRA step's B12 vs $2 also
	// splits: all four AAPs are split-decoder eligible.
	if tr.splitAAPs != 4 {
		t.Errorf("and splitAAPs = %d, want 4", tr.splitAAPs)
	}
	// ACTIVATEs: four single-wordline sensings/copies plus one triple.
	if tr.acts != [3]int64{7, 0, 1} {
		t.Errorf("and acts = %v, want [7 0 1]", tr.acts)
	}
	if tr.pres != 4 {
		t.Errorf("and pres = %d, want 4", tr.pres)
	}
	if tr.FirstWriteStep(2) != 3 || tr.LastReadStep(0) != 0 || tr.FirstWriteStep(0) != -1 {
		t.Errorf("and operand access: firstWrite[2]=%d lastRead[0]=%d firstWrite[0]=%d",
			tr.FirstWriteStep(2), tr.LastReadStep(0), tr.FirstWriteStep(0))
	}

	// Two-wordline sensing (B8 raises ~DCC0 and T0) is census-legal but not
	// fusable.
	two, err := NewTrain("two", 1, []TrainStep{
		{Kind: StepAAP, A1: dram.B(8), Op1: -1, Op2: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	if two.net != nil {
		t.Error("two-wordline sensing train has a net program")
	}
	if tr.net == nil {
		t.Error("and train has no net program")
	}
}

// TestTrainTracedEventsMatchStepwise holds the train equivalent of the
// traced-fused guarantee: the fused evaluator's replayed event stream is
// byte-identical to what step-by-step execution emits.
func TestTrainTracedEventsMatchStepwise(t *testing.T) {
	pricer := func(kind StepKind, a1, a2 dram.RowAddr) float64 {
		e := 2.0 + float64(len(a1.String()))
		if kind == StepAAP {
			e += 0.5 * float64(len(a2.String()))
		}
		return e
	}
	rng := rand.New(rand.NewSource(23))
	words := testGeom().WordsPerRow()
	fusedSink, stepSink := obs.NewLastN(64), obs.NewLastN(64)
	fused, step := testController(t), testController(t)
	fused.SetTracer(obs.NewTracer(fusedSink), pricer)
	step.SetTracer(obs.NewTracer(stepSink), pricer)
	step.noFuse = true

	tr := andTrain(t)
	rows := []dram.RowAddr{dram.D(0), dram.D(1), dram.D(2)}
	for _, addr := range rows {
		row := randRow(rng, words)
		pokeRow(t, fused, 0, 0, addr, row)
		pokeRow(t, step, 0, 0, addr, row)
	}
	if _, err := fused.ExecuteTrain(tr, 0, 0, rows); err != nil {
		t.Fatal(err)
	}
	if _, err := step.ExecuteTrain(tr, 0, 0, rows); err != nil {
		t.Fatal(err)
	}
	got, want := fusedSink.Events(), stepSink.Events()
	if len(got) != tr.Len() {
		t.Fatalf("fused path emitted %d events, want %d", len(got), tr.Len())
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("traced train events diverge:\n got %+v\nwant %+v", got, want)
	}
	if fused.Stats() != step.Stats() {
		t.Errorf("controller stats diverge under tracing:\n fused %+v\n  step %+v", fused.Stats(), step.Stats())
	}
}

// TestScheduleTrain checks the bank-timeline reservation: back-to-back
// scheduled trains on one bank serialize, and the completion times line up
// with TrainLatencyNS.
func TestScheduleTrain(t *testing.T) {
	c := testController(t)
	tr := andTrain(t)
	rows := []dram.RowAddr{dram.D(0), dram.D(1), dram.D(2)}
	lat := c.TrainLatencyNS(tr)
	end1, err := c.ScheduleTrain(tr, 0, 0, rows, 0)
	if err != nil {
		t.Fatal(err)
	}
	if end1 != lat {
		t.Errorf("first train completes at %v, want %v", end1, lat)
	}
	// Requesting an earlier start must still queue behind the first train.
	end2, err := c.ScheduleTrain(tr, 0, 0, rows, 0)
	if err != nil {
		t.Fatal(err)
	}
	if end2 != 2*lat {
		t.Errorf("second train completes at %v, want %v", end2, 2*lat)
	}
	// A different bank's timeline is independent.
	end3, err := c.ScheduleTrain(tr, 1, 0, rows, 0)
	if err != nil {
		t.Fatal(err)
	}
	if end3 != lat {
		t.Errorf("other-bank train completes at %v, want %v", end3, lat)
	}
}
