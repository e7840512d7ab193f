package controller

import (
	"math/rand"
	"reflect"
	"testing"

	"ambit/internal/dram"
	"ambit/internal/obs"
)

// TestTracedFusedEventsMatchStepwise holds the traced-path equivalence: for
// every op, executing the train through the net-effect evaluator with event
// replay (replayEvents) must produce the exact same event stream — names,
// addresses, latencies, energies, comments, sequence numbers — as the
// step-by-step interpreter, plus identical latency, state, and stats.  This
// is what lets the traced parallel path run at near-fused cost without
// perturbing a single trace byte.
func TestTracedFusedEventsMatchStepwise(t *testing.T) {
	pricer := func(kind StepKind, a1, a2 dram.RowAddr) float64 {
		e := 1.5 + float64(len(a1.String()))
		if kind == StepAAP {
			e += 0.25 * float64(len(a2.String()))
		}
		return e
	}
	rng := rand.New(rand.NewSource(7))
	words := testGeom().WordsPerRow()
	for _, op := range Ops {
		fusedSink, stepSink := obs.NewLastN(64), obs.NewLastN(64)
		fused, step := testController(t), testController(t)
		fused.SetTracer(obs.NewTracer(fusedSink), pricer)
		step.SetTracer(obs.NewTracer(stepSink), pricer)
		step.noFuse = true

		for _, addr := range []dram.RowAddr{dram.D(0), dram.D(1), dram.D(2)} {
			row := randRow(rng, words)
			pokeRow(t, fused, 0, 0, addr, row)
			pokeRow(t, step, 0, 0, addr, row)
		}
		latF, err := fused.ExecuteOp(op, 0, 0, dram.D(0), dram.D(1), dram.D(2))
		if err != nil {
			t.Fatalf("%v fused: %v", op, err)
		}
		latS, err := step.ExecuteOp(op, 0, 0, dram.D(0), dram.D(1), dram.D(2))
		if err != nil {
			t.Fatalf("%v stepwise: %v", op, err)
		}
		if latF != latS {
			t.Errorf("%v: latency %v != %v", op, latF, latS)
		}
		got, want := fusedSink.Events(), stepSink.Events()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%v: traced-fused events diverge from stepwise:\n got %+v\nwant %+v", op, got, want)
		}
		if len(got) == 0 {
			t.Errorf("%v: no events emitted", op)
		}
		if fused.Stats() != step.Stats() {
			t.Errorf("%v: controller stats %+v != %+v", op, fused.Stats(), step.Stats())
		}
		if fused.Device().Stats() != step.Device().Stats() {
			t.Errorf("%v: device stats %+v != %+v", op, fused.Device().Stats(), step.Device().Stats())
		}
		got2 := peekRow(t, fused, 0, 0, dram.D(0))
		want2 := peekRow(t, step, 0, 0, dram.D(0))
		if !reflect.DeepEqual(got2, want2) {
			t.Errorf("%v: destination row diverged", op)
		}
	}
}
