package controller

import (
	"fmt"
	"sync"

	"ambit/internal/dram"
	"ambit/internal/obs"
)

// Stats counts the primitives the controller has issued.
type Stats struct {
	AAPs int64
	APs  int64
	// OpCounts counts completed bulk bitwise operations by Op.
	OpCounts [7]int64
	// Trains counts completed compiled command trains (ExecuteTrain), the
	// per-row unit of compiled boolean functions.
	Trains int64
	// Majs counts completed many-row majority trains (ExecuteMaj).
	Majs int64
	// BusyNS is the total simulated DRAM-command latency issued.
	BusyNS float64
}

// Controller drives an Ambit DRAM device.  It owns the reserved-address map
// knowledge (via dram.DecodeRowAddr), issues AAP/AP command trains, and
// accounts simulated latency, including the split-row-decoder optimization
// of Section 5.3.
type Controller struct {
	dev *dram.Device

	// SplitDecoder enables the Section 5.3 optimization: when exactly one
	// of an AAP's two addresses is a B-group address, the two ACTIVATEs
	// are overlapped, reducing AAP latency from 2·tRAS+tRP to
	// tRAS+tOverlap+tRP.  The paper notes that all AAPs in Figure 8
	// qualify except one in nand (AAP(B12, B5)).
	SplitDecoder bool

	// tr receives one command event per AAP/AP (plus reliability events);
	// a nil tracer costs one nil check per primitive.  stepEnergy, when
	// set, prices each primitive for the events' pJ field (injected by the
	// driver from the energy model; this package cannot import
	// internal/energy, which imports it for Op).  Both are fixed at
	// construction time via SetTracer and must not be mutated while
	// command trains run.
	tr         *obs.Tracer
	stepEnergy StepEnergyFunc

	// noFuse disables the fused train evaluator on every path (test hook:
	// equivalence tests force step-by-step execution and diff it against a
	// fused run).
	noFuse bool

	// netScratch holds each bank's register file for compiled-train
	// evaluation; per-bank access is serialized by the caller.
	netScratch []netScratch

	mu    sync.Mutex // guards stats
	stats Stats
}

// StepEnergyFunc returns the energy in nanojoules of one AAP/AP primitive
// (the addresses determine how many wordlines each ACTIVATE raises).
type StepEnergyFunc func(kind StepKind, a1, a2 dram.RowAddr) float64

// SetTracer installs an observability tracer and an optional per-step energy
// pricer.  Call before issuing commands; not synchronized with execution.
func (c *Controller) SetTracer(tr *obs.Tracer, stepEnergy StepEnergyFunc) {
	c.tr = tr
	c.stepEnergy = stepEnergy
}

// emitCmd emits one command event.  The caller has already checked
// c.tr.Enabled() or accepts the redundant check's cost.
func (c *Controller) emitCmd(name string, bank, sub int, a1, a2 string, durNS, nj float64, comment string) {
	if !c.tr.Enabled() {
		return
	}
	c.tr.Emit(obs.Event{
		Kind: obs.KindCommand, Name: name, Bank: bank, Subarray: sub,
		StartNS: -1, DurNS: durNS, EnergyPJ: nj * 1000,
		A1: a1, A2: a2, Comment: comment,
	})
}

// stepEnergyNJ prices one primitive, or 0 without a pricer.
func (c *Controller) stepEnergyNJ(kind StepKind, a1, a2 dram.RowAddr) float64 {
	if c.stepEnergy == nil {
		return 0
	}
	return c.stepEnergy(kind, a1, a2)
}

// New creates a controller over dev with the split decoder enabled (the
// paper's design point).
func New(dev *dram.Device) *Controller {
	return &Controller{dev: dev, SplitDecoder: true, netScratch: make([]netScratch, dev.Geometry().Banks)}
}

// Device returns the underlying device.
func (c *Controller) Device() *dram.Device { return c.dev }

// Stats returns a snapshot of the counters.
func (c *Controller) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// ResetStats zeroes the counters.
func (c *Controller) ResetStats() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats = Stats{}
}

// AAPLatencyNS returns the latency of AAP(a1, a2) under the current decoder
// configuration.
func (c *Controller) AAPLatencyNS(a1, a2 dram.RowAddr) float64 {
	t := c.dev.Timing()
	if c.SplitDecoder && (a1.Group == dram.GroupB) != (a2.Group == dram.GroupB) {
		return t.AAPSplit()
	}
	return t.AAPNaive()
}

// APLatencyNS returns the latency of an AP.
func (c *Controller) APLatencyNS() float64 { return c.dev.Timing().AP() }

// AAP executes ACTIVATE a1; ACTIVATE a2; PRECHARGE on the given
// bank/subarray and returns the train's latency.
func (c *Controller) AAP(bank, sub int, a1, a2 dram.RowAddr) (float64, error) {
	return c.aap(bank, sub, a1, a2, "")
}

// aap implements AAP, annotating the traced event with the Figure-8 comment.
func (c *Controller) aap(bank, sub int, a1, a2 dram.RowAddr, comment string) (float64, error) {
	if err := c.dev.Activate(dram.PhysAddr{Bank: bank, Subarray: sub, Row: a1}); err != nil {
		return 0, fmt.Errorf("AAP(%v,%v) first activate: %w", a1, a2, err)
	}
	if err := c.dev.Activate(dram.PhysAddr{Bank: bank, Subarray: sub, Row: a2}); err != nil {
		return 0, fmt.Errorf("AAP(%v,%v) second activate: %w", a1, a2, err)
	}
	if err := c.dev.Precharge(bank); err != nil {
		return 0, err
	}
	lat := c.AAPLatencyNS(a1, a2)
	c.mu.Lock()
	c.stats.AAPs++
	c.stats.BusyNS += lat
	c.mu.Unlock()
	if c.tr.Enabled() {
		c.emitCmd("AAP", bank, sub, a1.String(), a2.String(), lat,
			c.stepEnergyNJ(StepAAP, a1, a2), comment)
	}
	return lat, nil
}

// AP executes ACTIVATE a; PRECHARGE.
func (c *Controller) AP(bank, sub int, a dram.RowAddr) (float64, error) {
	return c.ap(bank, sub, a, "")
}

// ap implements AP, annotating the traced event with the Figure-8 comment.
func (c *Controller) ap(bank, sub int, a dram.RowAddr, comment string) (float64, error) {
	if err := c.dev.Activate(dram.PhysAddr{Bank: bank, Subarray: sub, Row: a}); err != nil {
		return 0, fmt.Errorf("AP(%v): %w", a, err)
	}
	if err := c.dev.Precharge(bank); err != nil {
		return 0, err
	}
	lat := c.APLatencyNS()
	c.mu.Lock()
	c.stats.APs++
	c.stats.BusyNS += lat
	c.mu.Unlock()
	if c.tr.Enabled() {
		c.emitCmd("AP", bank, sub, a.String(), "", lat,
			c.stepEnergyNJ(StepAP, a, dram.RowAddr{}), comment)
	}
	return lat, nil
}

// ExecuteStep runs one sequence step on the given bank/subarray.
func (c *Controller) ExecuteStep(bank, sub int, s Step) (float64, error) {
	if s.Kind == StepAAP {
		return c.aap(bank, sub, s.Addr1, s.Addr2, s.Comment)
	}
	return c.ap(bank, sub, s.Addr1, s.Comment)
}

// ExecuteOp performs dk = op(di [, dj]) on rows of subarray sub in bank,
// returning the total command-train latency in nanoseconds.  The source rows
// are preserved (Section 3.3: the TRA operates on copies in the designated
// rows).
//
// With tracing disabled this dispatches to the compiled-train fast path
// (compiled.go), which issues the identical command sequence without
// allocating.  With tracing enabled it still tries the fused evaluator first
// and replays the train's events from the Figure-8 sequence (emitFusedTrain):
// the events are byte-identical to step-by-step execution at near-fused cost,
// which is what keeps the traced-parallel overhead inside the CI gate.  The
// Sequence interpreter below remains the fallback when the subarray state
// makes fusing ineligible (armed fault hook, non-precharged bank).
func (c *Controller) ExecuteOp(op Op, bank, sub int, dk, di, dj dram.RowAddr) (float64, error) {
	if !c.tr.Enabled() {
		return c.executeOpCompiled(op, bank, sub, dk, di, dj)
	}
	if !c.noFuse {
		if total, ok := c.executeOpFused(op, bank, sub, dk, di, dj); ok {
			c.emitFusedTrain(op, bank, sub, dk, di, dj)
			return total, nil
		}
	}
	seq, err := Sequence(op, dk, di, dj)
	if err != nil {
		return 0, err
	}
	// Give the fault injector (if any) the train's destination-row context,
	// so per-row failure weakness applies to the row receiving the result.
	row := -1
	if dk.Group == dram.GroupD {
		row = dk.Index
	}
	c.dev.BeginTrain(bank, sub, row)
	var total float64
	for _, s := range seq {
		lat, err := c.ExecuteStep(bank, sub, s)
		if err != nil {
			return total, fmt.Errorf("%v step %q: %w", op, s, err)
		}
		total += lat
	}
	c.mu.Lock()
	c.stats.OpCounts[op]++
	c.mu.Unlock()
	return total, nil
}

// emitFusedTrain replays the command events of one fused train.  The fused
// evaluator commits state, census, and latency without materializing steps,
// so the traced path reconstructs the per-step events from the op's compiled
// template (compiled.go), whose address strings and comment parts were
// precomputed from the same Figure-8 sequence the interpreter walks — same
// names, addresses, latencies, energy, and comments, in the same order,
// without rebuilding the sequence per row.
func (c *Controller) emitFusedTrain(op Op, bank, sub int, dk, di, dj dram.RowAddr) {
	ct := &compiledTrains[op]
	t := c.dev.Timing()
	aapSplit, aapNaive, apLat := t.AAPSplit(), t.AAPNaive(), t.AP()
	// Operands reaching the fused path are validated D-group rows, so their
	// renderings are interned once per distinct index.
	dkS, diS, djS := dRowStr(dk.Index), dRowStr(di.Index), dRowStr(dj.Index)
	opStr := func(role operandRole, fixed string) string {
		switch role {
		case roleDK:
			return dkS
		case roleDI:
			return diS
		case roleDJ:
			return djS
		}
		return fixed
	}
	// Under a ShardSet (the parallel path) the whole train is filled into
	// the bank's capture shard in place — no per-event dispatch or copying.
	// Otherwise (no capture shard, as in a single-stream plan) events go
	// through the ordinary emitCmd/Emit pipeline; both produce identical
	// bytes.
	if cb := c.tr.CommandBuffer(bank); cb.Active() {
		evs := cb.Extend(len(ct.steps))
		for i := range ct.steps {
			s := &ct.steps[i]
			a1 := s.addr1(dk, di, dj)
			ev := &evs[i]
			ev.Kind = obs.KindCommand
			ev.Bank, ev.Subarray = bank, sub
			ev.StartNS = -1
			ev.Rows = 0
			ev.A1 = opStr(s.r1, s.a1Str)
			ev.Comment = s.commentFor(dk, di, dj)
			if s.kind == StepAAP {
				ev.Name = "AAP"
				ev.A2 = opStr(s.r2, s.a2Str)
				ev.DurNS = aapNaive
				if c.SplitDecoder && s.split {
					ev.DurNS = aapSplit
				}
				ev.EnergyPJ = c.stepEnergyNJ(StepAAP, a1, s.addr2(dk, di, dj)) * 1000
			} else {
				ev.Name = "AP"
				ev.A2 = ""
				ev.DurNS = apLat
				ev.EnergyPJ = c.stepEnergyNJ(StepAP, a1, dram.RowAddr{}) * 1000
			}
		}
		return
	}
	for i := range ct.steps {
		s := &ct.steps[i]
		a1 := s.addr1(dk, di, dj)
		comment := s.commentFor(dk, di, dj)
		if s.kind == StepAAP {
			lat := aapNaive
			if c.SplitDecoder && s.split {
				lat = aapSplit
			}
			c.emitCmd("AAP", bank, sub, opStr(s.r1, s.a1Str), opStr(s.r2, s.a2Str),
				lat, c.stepEnergyNJ(StepAAP, a1, s.addr2(dk, di, dj)), comment)
		} else {
			c.emitCmd("AP", bank, sub, opStr(s.r1, s.a1Str), "",
				apLat, c.stepEnergyNJ(StepAP, a1, dram.RowAddr{}), comment)
		}
	}
}

// OpLatencyNS returns the command-train latency of one row-wide operation
// without executing it (the schedule is static, Section 5.5.2).  Computed
// from the compiled template, allocation-free.
func (c *Controller) OpLatencyNS(op Op) float64 {
	ct := &compiledTrains[op]
	t := c.dev.Timing()
	var total float64
	for i := range ct.steps {
		s := &ct.steps[i]
		switch {
		case s.kind != StepAAP:
			total += t.AP()
		case c.SplitDecoder && s.split:
			total += t.AAPSplit()
		default:
			total += t.AAPNaive()
		}
	}
	return total
}

// ScheduleOp executes dk = op(di[, dj]) and reserves the bank's timeline
// starting no earlier than `start`, returning the completion time.  Banks
// operate independently, so operations scheduled on different banks overlap
// (Section 7: Ambit exploits "the memory-level parallelism across multiple
// DRAM arrays").
func (c *Controller) ScheduleOp(op Op, bank, sub int, dk, di, dj dram.RowAddr, start float64) (float64, error) {
	lat, err := c.ExecuteOp(op, bank, sub, dk, di, dj)
	if err != nil {
		return 0, err
	}
	return c.dev.Bank(bank).Reserve(start, lat), nil
}
