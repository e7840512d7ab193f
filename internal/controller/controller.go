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

	// scratch holds each bank's reusable host buffers; per-bank access is
	// serialized by the caller.
	scratch []bankScratch

	mu    sync.Mutex // guards stats
	stats Stats
}

// bankScratch is one bank's reusable host buffers.  The caller serializes
// per-bank access, so each bank owns its scratch outright.
type bankScratch struct {
	// net is the register file of net-effect evaluation.
	net netScratch
	// masks holds a train's fault masks, drawn up front (ExecuteTrain).
	masks [][]uint64
	// tmr holds the three TMR replicas read back for the vote, then the
	// aliased source saved for a retry (ExecuteOpReliable); allocated on
	// the bank's first ECC row.
	tmr [4][]uint64
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
	return &Controller{dev: dev, SplitDecoder: true, scratch: make([]bankScratch, dev.Geometry().Banks)}
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

// ExecuteOp performs dk = op(di [, dj]) on rows of subarray sub in bank,
// returning the total command-train latency in nanoseconds.  The source rows
// are preserved (Section 3.3: the TRA operates on copies in the designated
// rows).  It runs op's train (optrain.go) through ExecuteTrain; dj is
// ignored for unary ops.
func (c *Controller) ExecuteOp(op Op, bank, sub int, dk, di, dj dram.RowAddr) (float64, error) {
	if op >= numOps {
		return 0, fmt.Errorf("controller: unknown operation %v", op)
	}
	rows := [3]dram.RowAddr{dk, di, dj}
	return c.ExecuteTrain(opTrains[op], bank, sub, rows[:])
}

// OpLatencyNS returns the command-train latency of one row-wide operation
// without executing it (the schedule is static, Section 5.5.2).
func (c *Controller) OpLatencyNS(op Op) float64 { return c.TrainLatencyNS(opTrains[op]) }

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
