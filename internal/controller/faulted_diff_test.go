package controller_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"ambit/internal/compile"
	"ambit/internal/controller"
	"ambit/internal/dram"
	"ambit/internal/fault"
	"ambit/internal/obs"
)

// faultGeom is small enough that ×300 fault rates stay cheap to draw, with
// room for a 32-row MAJ staging block plus seven sources.
func faultGeom() dram.Geometry {
	return dram.Geometry{Banks: 2, SubarraysPerBank: 2, RowsPerSubarray: 64, RowSizeBytes: 128}
}

// eventLog is a trace sink keeping every event.
type eventLog struct{ evs []obs.Event }

func (l *eventLog) Emit(e obs.Event) { l.evs = append(l.evs, e) }
func (l *eventLog) Flush() error     { return nil }

// faultedTwin is one side of the faulted differential: a controller over
// its own device and fault model, optionally traced.
type faultedTwin struct {
	c   *controller.Controller
	fm  *fault.Model
	log *eventLog
}

func newFaultedTwin(t *testing.T, p *fault.Profile, noFuse, traced bool) *faultedTwin {
	t.Helper()
	g := faultGeom()
	d, err := dram.NewDevice(dram.Config{Geometry: g, Timing: dram.DDR3_1600()})
	if err != nil {
		t.Fatal(err)
	}
	fm, err := fault.NewFromProfile(p)
	if err != nil {
		t.Fatal(err)
	}
	fm.Prepare(g.Banks, g.SubarraysPerBank)
	d.SetFaultInjector(fm)
	tw := &faultedTwin{c: controller.New(d), fm: fm}
	controller.SetNoFuse(tw.c, noFuse)
	if traced {
		tw.log = &eventLog{}
		tw.c.SetTracer(obs.NewTracer(tw.log), func(kind controller.StepKind, a1, a2 dram.RowAddr) float64 {
			return float64(kind) + float64(dram.WordlineCount(a1)) + 0.5*float64(dram.WordlineCount(a2))
		})
	}
	return tw
}

// faultedState returns every reserved and data row of every subarray.
func faultedState(t *testing.T, c *controller.Controller) [][]uint64 {
	t.Helper()
	g := faultGeom()
	var out [][]uint64
	for b := 0; b < g.Banks; b++ {
		for s := 0; s < g.SubarraysPerBank; s++ {
			addrs := append([]dram.RowAddr(nil), reservedRows...)
			for r := 0; r < g.DataRows(); r++ {
				addrs = append(addrs, dram.D(r))
			}
			for _, a := range addrs {
				row, err := c.Device().PeekRow(dram.PhysAddr{Bank: b, Subarray: s, Row: a})
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, row)
			}
		}
	}
	return out
}

// TestFaultedFusedMatchesStepwise is the differential for the armed
// net-effect routes: ops whose fault draws are taken up front (net program
// when none fires, a replay of the same masks when one does) and MAJ-X
// evaluated from its sources must leave every row, both Stats blocks, the
// fault counters and every traced event exactly as issuing each command
// through the device model does.  vendorA-85C runs at ×0, ×1, ×30 and ×300
// of its rates, so runs range from fault-free through single flips to
// gross failures on most activations; ops cover the five operand aliasings
// and MAJ-3/5/7 at widths 16 and 32, with dk sometimes a source.  Every run
// ends with C0 all zeros and C1 all ones on both controllers, the condition
// ExecuteMaj's closed form needs.
func TestFaultedFusedMatchesStepwise(t *testing.T) {
	steps := 3000
	if testing.Short() {
		steps = 300
	}
	g := faultGeom()
	for _, scale := range []float64{0, 1, 30, 300} {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("x%g/traced=%v", scale, traced), func(t *testing.T) {
				p, ok := fault.ProfileByName("vendorA-85C")
				if !ok {
					t.Fatal("builtin vendorA-85C missing")
				}
				p.Base.TRABitRate *= scale
				p.Base.TRARowRate *= scale
				p.Base.DCCBitRate *= scale
				fused, step := newFaultedTwin(t, p, false, traced), newFaultedTwin(t, p, true, traced)
				rng := rand.New(rand.NewSource(int64(scale) + 17))
				for b := 0; b < g.Banks; b++ {
					for s := 0; s < g.SubarraysPerBank; s++ {
						for _, a := range reservedRows {
							row := randWords(rng, g.WordsPerRow())
							for _, tw := range []*faultedTwin{fused, step} {
								if err := tw.c.Device().PokeRow(dram.PhysAddr{Bank: b, Subarray: s, Row: a}, row); err != nil {
									t.Fatal(err)
								}
							}
						}
						for r := 0; r < g.DataRows(); r++ {
							row := randWords(rng, g.WordsPerRow())
							for _, tw := range []*faultedTwin{fused, step} {
								if err := tw.c.Device().PokeRow(dram.PhysAddr{Bank: b, Subarray: s, Row: dram.D(r)}, row); err != nil {
									t.Fatal(err)
								}
							}
						}
					}
				}
				for i := 0; i < steps; i++ {
					bank, sub := rng.Intn(g.Banks), rng.Intn(g.SubarraysPerBank)
					var label string
					var run func(c *controller.Controller) (float64, error)
					if rng.Intn(4) == 0 {
						k, w := 3+2*rng.Intn(3), 16<<rng.Intn(2)
						base := g.DataRows() - w
						perm := rng.Perm(base)
						srcs := make([]dram.RowAddr, k)
						for j := range srcs {
							srcs[j] = dram.D(perm[j])
						}
						dk := dram.D(perm[k])
						if rng.Intn(3) == 0 {
							dk = srcs[rng.Intn(k)]
						}
						label = fmt.Sprintf("MAJ-%d w=%d dk=%v srcs=%v", k, w, dk, srcs)
						run = func(c *controller.Controller) (float64, error) { return c.ExecuteMaj(bank, sub, dk, srcs, base, w) }
					} else {
						op := controller.Ops[rng.Intn(len(controller.Ops))]
						perm := rng.Perm(g.DataRows())
						r := [3]dram.RowAddr{dram.D(perm[0]), dram.D(perm[1]), dram.D(perm[2])}
						// The five aliasings of (dk, di, dj).
						switch rng.Intn(5) {
						case 1:
							r[0] = r[1]
						case 2:
							r[0] = r[2]
						case 3:
							r[2] = r[1]
						case 4:
							r[0], r[2] = r[1], r[1]
						}
						label = fmt.Sprintf("%v dk=%v di=%v dj=%v", op, r[0], r[1], r[2])
						run = func(c *controller.Controller) (float64, error) {
							return c.ExecuteOp(op, bank, sub, r[0], r[1], r[2])
						}
					}
					latF, errF := run(fused.c)
					latS, errS := run(step.c)
					if errF != nil || errS != nil {
						t.Fatalf("step %d %s: fused err %v, stepwise err %v", i, label, errF, errS)
					}
					if latF != latS {
						t.Fatalf("step %d %s: latency fused %v, stepwise %v", i, label, latF, latS)
					}
					if i%100 == 99 || i == steps-1 {
						if !reflect.DeepEqual(faultedState(t, fused.c), faultedState(t, step.c)) {
							t.Fatalf("step %d %s: rows diverged", i, label)
						}
					}
				}
				if fused.c.Stats() != step.c.Stats() {
					t.Errorf("controller stats diverge:\n fused %+v\n  step %+v", fused.c.Stats(), step.c.Stats())
				}
				if fused.c.Device().Stats() != step.c.Device().Stats() {
					t.Errorf("device stats diverge:\n fused %+v\n  step %+v", fused.c.Device().Stats(), step.c.Device().Stats())
				}
				// ExecuteMaj's closed form assumes the fill rows C0 and C1
				// hold zeros and ones; no train may have written them.
				for _, tw := range []*faultedTwin{fused, step} {
					for b := 0; b < g.Banks; b++ {
						for s := 0; s < g.SubarraysPerBank; s++ {
							for ci, want := range []uint64{0, ^uint64(0)} {
								row, err := tw.c.Device().PeekRow(dram.PhysAddr{Bank: b, Subarray: s, Row: dram.C(ci)})
								if err != nil {
									t.Fatal(err)
								}
								if i := slices.IndexFunc(row, func(v uint64) bool { return v != want }); i >= 0 {
									t.Fatalf("bank %d sub %d: C%d word %d = %#x", b, s, ci, i, row[i])
								}
							}
						}
					}
				}
				fc, sc := fused.fm.Counters(), step.fm.Counters()
				if fc != sc {
					t.Errorf("fault counters diverge:\n fused %+v\n  step %+v", fc, sc)
				}
				if scale > 0 && (sc.TRAEvents == 0 || sc.MajEvents == 0) {
					t.Errorf("vacuous run: counters %+v", sc)
				}
				if scale >= 30 && sc.GrossRows == 0 {
					t.Errorf("no gross failure at ×%g: counters %+v", scale, sc)
				}
				if traced {
					if len(fused.log.evs) != len(step.log.evs) {
						t.Fatalf("fused emitted %d events, stepwise %d", len(fused.log.evs), len(step.log.evs))
					}
					for i := range step.log.evs {
						if fused.log.evs[i] != step.log.evs[i] {
							t.Fatalf("event %d: fused %+v\nstepwise %+v", i, fused.log.evs[i], step.log.evs[i])
						}
					}
				}
			})
		}
	}
}

// faultRecorder is a fault injector that records every consultation and
// never flips a bit.
type faultRecorder struct {
	kinds []dram.FaultEvent
	ctxs  []dram.FaultContext
}

func (r *faultRecorder) TRAFaultMask(ctx dram.FaultContext, words int) []uint64 {
	r.kinds, r.ctxs = append(r.kinds, dram.FaultTRA), append(r.ctxs, ctx)
	return nil
}

func (r *faultRecorder) DCCFaultMask(ctx dram.FaultContext, words int) []uint64 {
	r.kinds, r.ctxs = append(r.kinds, dram.FaultDCC), append(r.ctxs, ctx)
	return nil
}

// TestTrainFaultEventsMatchStepwise pins the event list an armed train draws
// up front: stepping a train through the device model must consult the
// injector for exactly the kinds the train precomputed, in order, each in
// the train's context (its bank, subarray and first written operand's row),
// and the up-front draw must make the same consultations.  It covers the
// seven Figure-8 trains, compiled adders and comparators, and hand trains
// sensing and writing through B5, B7, B8 and B9.
func TestTrainFaultEventsMatchStepwise(t *testing.T) {
	none := dram.RowAddr{}
	trains := map[string]*controller.Train{}
	for _, op := range controller.Ops {
		trains[op.String()] = controller.OpTrain(op)
	}
	sum, carry := compile.FullAdder(compile.Var(0), compile.Var(1), compile.Var(2))
	for _, f := range []struct {
		name  string
		exprs []*compile.Expr
	}{
		{"add4", compile.RippleAdd(4)},
		{"lt4", []*compile.Expr{compile.Less(4)}},
		{"eq4", []*compile.Expr{compile.Equal(4)}},
		{"csa", []*compile.Expr{sum, carry}},
	} {
		c, err := compile.CompileFn(f.name, f.exprs...)
		if err != nil {
			t.Fatal(err)
		}
		trains[f.name] = c.Train
	}
	trains["negations"] = mustTrain(t, "negations", 3, []controller.TrainStep{
		aap(none, 0, dram.B(5), -1),
		aap(none, 1, dram.B(7), -1),
		aap(dram.B(4), -1, dram.B(8), -1),
		aap(dram.B(6), -1, dram.B(9), -1),
		aap(dram.B(5), -1, dram.B(2), -1),
		aap(dram.B(12), -1, none, 2),
		aap(dram.B(7), -1, none, 0),
	})
	trains["negated sensing"] = mustTrain(t, "negated sensing", 2, []controller.TrainStep{
		ap(dram.B(7)),
		aap(dram.B(14), -1, dram.B(9), -1),
		aap(dram.B(5), -1, none, 1),
		aap(dram.B(15), -1, dram.B(5), -1),
	})
	trains["two-wordline sensing"] = mustTrain(t, "two-wordline sensing", 2, []controller.TrainStep{
		aap(none, 0, dram.B(8), -1),
		aap(dram.B(8), -1, none, 1),
	})

	g := faultGeom()
	rng := rand.New(rand.NewSource(3))
	for name, tr := range trains {
		want := controller.FaultEvents(tr)
		for _, noFuse := range []bool{true, false} {
			d, err := dram.NewDevice(dram.Config{Geometry: g, Timing: dram.DDR3_1600()})
			if err != nil {
				t.Fatal(err)
			}
			rec := &faultRecorder{}
			d.SetFaultInjector(rec)
			c := controller.New(d)
			controller.SetNoFuse(c, noFuse)
			bank, sub := 1, 1
			perm := rng.Perm(g.DataRows())
			rows := make([]dram.RowAddr, tr.Operands())
			for i := range rows {
				rows[i] = dram.D(perm[i])
			}
			if _, err := c.ExecuteTrain(tr, bank, sub, rows); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !reflect.DeepEqual(rec.kinds, want) {
				t.Errorf("%s (noFuse=%v): injector saw %v, train lists %v", name, noFuse, rec.kinds, want)
			}
			// The context row is the first written operand's.
			wantCtx := dram.FaultContext{Bank: bank, Subarray: sub, Row: -1}
			for i, first := 0, -1; i < len(rows); i++ {
				if w := tr.FirstWriteStep(i); w >= 0 && (first < 0 || w < first) {
					wantCtx.Row, first = rows[i].Index, w
				}
			}
			for i, ctx := range rec.ctxs {
				if ctx != wantCtx {
					t.Errorf("%s (noFuse=%v): event %d context %+v, want %+v", name, noFuse, i, ctx, wantCtx)
				}
			}
		}
	}
	// Per op: and/or 1 TRA, nand/nor 1 TRA + 1 DCC, xor/xnor 3 TRA + 2 DCC,
	// not 1 DCC.
	for op, want := range map[controller.Op][2]int{
		controller.OpNot: {0, 1}, controller.OpAnd: {1, 0}, controller.OpOr: {1, 0},
		controller.OpNand: {1, 1}, controller.OpNor: {1, 1}, controller.OpXor: {3, 2}, controller.OpXnor: {3, 2},
	} {
		var got [2]int
		for _, e := range controller.FaultEvents(controller.OpTrain(op)) {
			got[e]++
		}
		if got != want {
			t.Errorf("%v draws %d TRA + %d DCC, want %d + %d", op, got[0], got[1], want[0], want[1])
		}
	}
}

// randWords returns n random words.
func randWords(rng *rand.Rand, n int) []uint64 {
	w := make([]uint64, n)
	for i := range w {
		w[i] = rng.Uint64()
	}
	return w
}
