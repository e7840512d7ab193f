package controller

import (
	"fmt"
	"strings"

	"ambit/internal/dram"
	"ambit/internal/obs"
)

// Generalized compiled command trains.
//
// The PR-4 template cache (compiled.go) covers the seven Figure-8 sequences,
// whose operand slots are the three fixed roles Dk/Di/Dj.  Compiled boolean
// functions (internal/compile) need the same machinery for *arbitrary*
// AAP/TRA sequences over any number of data-row operands, so Train abstracts
// the template: each step's addresses are either fixed reserved addresses
// (B/C group) or indices into the operand row vector bound at execution time.
// Like the built-in templates, a Train precomputes its command census —
// ACTIVATEs by wordline fan-out, PRECHARGEs, split-decoder-eligible AAPs —
// so the fused evaluator charges latency, energy, and stats in O(1) per row
// without walking the steps.

// TrainStep is one primitive of a compiled command train.  An address slot is
// either bound to an operand (OpN >= 0: the address is rows[OpN], a data row)
// or fixed (OpN < 0: the compiled AN address is used as-is).
type TrainStep struct {
	Kind   StepKind
	A1, A2 dram.RowAddr
	// Op1/Op2 bind the step's addresses to the executing train's operand
	// rows; -1 selects the fixed address instead.
	Op1, Op2 int
	// Comment is the Figure-8 style annotation.  Operand references use
	// the function's symbolic names fixed at compile time (the traced
	// event's A1/A2 fields carry the concrete row addresses).
	Comment string
}

// String renders the step in the paper's notation, with operand slots shown
// as $N.
func (s TrainStep) String() string {
	a1 := s.A1.String()
	if s.Op1 >= 0 {
		a1 = fmt.Sprintf("$%d", s.Op1)
	}
	if s.Kind == StepAP {
		return fmt.Sprintf("AP  (%s)       ;%s", a1, s.Comment)
	}
	a2 := s.A2.String()
	if s.Op2 >= 0 {
		a2 = fmt.Sprintf("$%d", s.Op2)
	}
	return fmt.Sprintf("AAP (%s, %s) ;%s", a1, a2, s.Comment)
}

// Train is a validated compiled command train template: the unit the
// boolean-function compiler produces and the controller executes per row.
// A Train is immutable after NewTrain and safe for concurrent ExecuteTrain
// calls on different banks (the caller serializes per-bank access exactly as
// for ExecuteOp).
type Train struct {
	name     string
	operands int
	steps    []TrainStep

	// Command census (cf. compiledTrain): acts[k] counts ACTIVATEs raising
	// k+1 wordlines; pres counts PRECHARGEs; splitAAPs counts AAPs with
	// exactly one B-group address (Section 5.3 split-decoder eligible).
	acts      [3]int64
	pres      int64
	aaps, aps int64
	splitAAPs int64

	// net is the compiled net effect (net.go), nil when some step is not
	// modelable at the template level: two-wordline sensing (charge sharing
	// between distinct cells is only defined when their contents agree,
	// which a template cannot guarantee).
	net *netProgram

	// firstWrite[i] is the first step index whose destination is operand i,
	// lastRead[i] the last step index sensing operand i; -1 when absent.
	// The root package uses these for in-place aliasing checks.
	firstWrite, lastRead []int
	// written lists the operand slots any step writes, in slot order.
	written []int
	// firstOut is the first operand written by any step, -1 if the train
	// writes no operand; it provides the destination-row context handed to
	// the fault injector via BeginTrain.
	firstOut int
}

// NewTrain validates and compiles a step sequence over the given number of
// data-row operands.  Fixed addresses must be reserved addresses: B-group (or
// C-group for sensing); data rows may only be referenced through operand
// slots, which is what makes the template reusable across rows.
func NewTrain(name string, operands int, steps []TrainStep) (*Train, error) {
	if operands <= 0 {
		return nil, fmt.Errorf("controller: train %q: needs at least one operand", name)
	}
	if len(steps) == 0 {
		return nil, fmt.Errorf("controller: train %q: empty step sequence", name)
	}
	t := &Train{
		name:       name,
		operands:   operands,
		steps:      append([]TrainStep(nil), steps...),
		firstWrite: make([]int, operands),
		lastRead:   make([]int, operands),
		firstOut:   -1,
	}
	for i := range t.firstWrite {
		t.firstWrite[i], t.lastRead[i] = -1, -1
	}
	checkFixed := func(i int, a dram.RowAddr, sensing bool) error {
		switch a.Group {
		case dram.GroupB:
			if a.Index < 0 || a.Index >= dram.BGroupAddresses {
				return fmt.Errorf("controller: train %q step %d: %v out of range", name, i, a)
			}
		case dram.GroupC:
			if !sensing {
				return fmt.Errorf("controller: train %q step %d: cannot write control row %v", name, i, a)
			}
			if a.Index < 0 || a.Index >= dram.CGroupAddresses {
				return fmt.Errorf("controller: train %q step %d: %v out of range", name, i, a)
			}
		default:
			return fmt.Errorf("controller: train %q step %d: fixed data row %v (data rows must be operand slots)", name, i, a)
		}
		return nil
	}
	for i, s := range t.steps {
		// First address (sensing side).
		var wc1 int
		if s.Op1 >= 0 {
			if s.Op1 >= operands {
				return nil, fmt.Errorf("controller: train %q step %d: operand $%d out of range [0,%d)", name, i, s.Op1, operands)
			}
			t.lastRead[s.Op1] = i
			wc1 = 1
		} else {
			if err := checkFixed(i, s.A1, true); err != nil {
				return nil, err
			}
			wc1 = dram.WordlineCount(s.A1)
		}
		t.acts[wc1-1]++
		t.pres++
		if s.Kind != StepAAP {
			t.aps++
			continue
		}
		// Second address (copy destination).
		b1 := s.Op1 < 0 && s.A1.Group == dram.GroupB
		var b2 bool
		if s.Op2 >= 0 {
			if s.Op2 >= operands {
				return nil, fmt.Errorf("controller: train %q step %d: operand $%d out of range [0,%d)", name, i, s.Op2, operands)
			}
			if t.firstWrite[s.Op2] < 0 {
				t.firstWrite[s.Op2] = i
			}
			if t.firstOut < 0 {
				t.firstOut = s.Op2
			}
			t.acts[0]++
		} else {
			if err := checkFixed(i, s.A2, false); err != nil {
				return nil, err
			}
			t.acts[dram.WordlineCount(s.A2)-1]++
			b2 = s.A2.Group == dram.GroupB
		}
		t.aaps++
		if b1 != b2 {
			t.splitAAPs++
		}
	}
	for i, w := range t.firstWrite {
		if w >= 0 {
			t.written = append(t.written, i)
		}
	}
	if p, ok := compileNet(operands, t.steps); ok {
		t.net = p
	}
	return t, nil
}

// Name returns the train's diagnostic name.
func (t *Train) Name() string { return t.name }

// Operands returns the number of data-row operand slots.
func (t *Train) Operands() int { return t.operands }

// Len returns the number of steps.
func (t *Train) Len() int { return len(t.steps) }

// Steps returns a copy of the step sequence.
func (t *Train) Steps() []TrainStep { return append([]TrainStep(nil), t.steps...) }

// AAPs and APs return the per-row primitive counts.
func (t *Train) AAPs() int64 { return t.aaps }

// APs returns the per-row AP count.
func (t *Train) APs() int64 { return t.aps }

// FirstWriteStep returns the first step index that writes operand op, -1 if
// the train never writes it.
func (t *Train) FirstWriteStep(op int) int { return t.firstWrite[op] }

// LastReadStep returns the last step index that senses operand op, -1 if the
// train never reads it.
func (t *Train) LastReadStep(op int) int { return t.lastRead[op] }

// Listing renders the full step sequence, one primitive per line, resolving
// operand slots through names (symbolic operand names, index-aligned).  Used
// for golden command-train tests and documentation.
func (t *Train) Listing(names []string) string {
	opName := func(i int) string {
		if i < len(names) {
			return names[i]
		}
		return fmt.Sprintf("$%d", i)
	}
	var b strings.Builder
	for _, s := range t.steps {
		a1 := s.A1.String()
		if s.Op1 >= 0 {
			a1 = opName(s.Op1)
		}
		if s.Kind == StepAP {
			fmt.Fprintf(&b, "AP  (%s)\t;%s\n", a1, s.Comment)
			continue
		}
		a2 := s.A2.String()
		if s.Op2 >= 0 {
			a2 = opName(s.Op2)
		}
		fmt.Fprintf(&b, "AAP (%s, %s)\t;%s\n", a1, a2, s.Comment)
	}
	return b.String()
}

// TrainLatencyNS returns the per-row latency of the train under the current
// timing and decoder configuration, computed from the census without
// executing anything.
func (c *Controller) TrainLatencyNS(t *Train) float64 {
	tm := c.dev.Timing()
	if c.SplitDecoder {
		return float64(t.splitAAPs)*tm.AAPSplit() + float64(t.aaps-t.splitAAPs)*tm.AAPNaive() + float64(t.aps)*tm.AP()
	}
	return float64(t.aaps)*tm.AAPNaive() + float64(t.aps)*tm.AP()
}

// resolveTrainAddr resolves one step address slot against the operand rows.
func resolveTrainAddr(a dram.RowAddr, op int, rows []dram.RowAddr) dram.RowAddr {
	if op >= 0 {
		return rows[op]
	}
	return a
}

// ExecuteTrain runs one compiled train on the given bank/subarray with the
// given operand rows (all D-group, one per operand slot), returning the
// train's total command latency.  Dispatch mirrors ExecuteOp: untraced
// precharged banks take the compiled net effect (allocation-free); traced
// runs take it plus event replay; an armed fault model, an open bank, a
// train with two-wordline sensing, or an operand layout the net program
// cannot order falls back to step-by-step execution through the same aap/ap
// primitives the built-in ops use.
func (c *Controller) ExecuteTrain(t *Train, bank, sub int, rows []dram.RowAddr) (float64, error) {
	if len(rows) != t.operands {
		return 0, fmt.Errorf("controller: train %q: got %d operand rows, want %d", t.name, len(rows), t.operands)
	}
	g := c.dev.Geometry()
	if bank < 0 || bank >= g.Banks || sub < 0 || sub >= g.SubarraysPerBank {
		return 0, fmt.Errorf("controller: train %q: bank %d/subarray %d out of range", t.name, bank, sub)
	}
	for i, r := range rows {
		if r.Group != dram.GroupD {
			return 0, fmt.Errorf("controller: train %q operand $%d: %v is not a data row", t.name, i, r)
		}
		if err := r.Validate(g); err != nil {
			return 0, fmt.Errorf("controller: train %q operand $%d: %w", t.name, i, err)
		}
	}
	if !c.tr.Enabled() {
		if lat, ok := c.executeTrainFused(t, bank, sub, rows); ok {
			return lat, nil
		}
		return c.executeTrainStepwise(t, bank, sub, rows)
	}
	if !c.noFuse {
		if lat, ok := c.executeTrainFused(t, bank, sub, rows); ok {
			c.emitTrainEvents(t, bank, sub, rows)
			return lat, nil
		}
	}
	return c.executeTrainStepwise(t, bank, sub, rows)
}

// ScheduleTrain executes the train and reserves the bank's timeline starting
// no earlier than start, returning the completion time (cf. ScheduleOp).
func (c *Controller) ScheduleTrain(t *Train, bank, sub int, rows []dram.RowAddr, start float64) (float64, error) {
	lat, err := c.ExecuteTrain(t, bank, sub, rows)
	if err != nil {
		return 0, err
	}
	return c.dev.Bank(bank).Reserve(start, lat), nil
}

// executeTrainFused applies the train's compiled net effect (net.go) when
// nothing can observe the intermediate states: a precharged subarray, no
// fault hook, a train without two-wordline sensing, and an operand layout the
// net program can order (layoutFusable).  Stats, latency, and energy are
// charged from the census, bit-identical to the step-by-step path.
func (c *Controller) executeTrainFused(t *Train, bank, sub int, rows []dram.RowAddr) (float64, bool) {
	if t.net == nil || c.noFuse || !t.layoutFusable(rows) {
		return 0, false
	}
	sa := c.dev.Bank(bank).Subarray(sub)
	if !sa.FusedEligible() {
		return 0, false
	}
	t.net.run(sa, rows, c.dev.Geometry().WordsPerRow(), &c.netScratch[bank])

	total := c.TrainLatencyNS(t)
	st := dram.Stats{Precharges: t.pres}
	copy(st.Activates[:], t.acts[:])
	c.dev.CommitStats(st)
	c.mu.Lock()
	c.stats.AAPs += t.aaps
	c.stats.APs += t.aps
	c.stats.BusyNS += total
	c.stats.Trains++
	c.mu.Unlock()
	return total, true
}

// layoutFusable reports whether the net program is exact for this operand
// layout.  The symbolic model treats operand slots as distinct cells, which
// still holds when slots share a row as long as the sharing is invisible:
// read-only slots may coincide freely, and a written slot may share its row
// with a read-only slot whose last read comes no later than the write (the
// step senses before it writes).  Two written slots on one row, or a shared
// row read after it is written, take the stepwise path.
func (t *Train) layoutFusable(rows []dram.RowAddr) bool {
	for _, j := range t.written {
		for i, r := range rows {
			if i == j || r.Index != rows[j].Index {
				continue
			}
			if t.firstWrite[i] >= 0 || t.lastRead[i] > t.firstWrite[j] {
				return false
			}
		}
	}
	return true
}

// executeTrainStepwise runs the train through the aap/ap primitives — the
// path that exercises the full charge-share/latch/restore model and the
// fault-injection hooks.  Per-step stats and traced events are handled by
// the primitives themselves.
func (c *Controller) executeTrainStepwise(t *Train, bank, sub int, rows []dram.RowAddr) (float64, error) {
	row := -1
	if t.firstOut >= 0 {
		row = rows[t.firstOut].Index
	}
	c.dev.BeginTrain(bank, sub, row)
	var total float64
	for si := range t.steps {
		s := &t.steps[si]
		a1 := resolveTrainAddr(s.A1, s.Op1, rows)
		var lat float64
		var err error
		if s.Kind == StepAAP {
			lat, err = c.aap(bank, sub, a1, resolveTrainAddr(s.A2, s.Op2, rows), s.Comment)
		} else {
			lat, err = c.ap(bank, sub, a1, s.Comment)
		}
		if err != nil {
			return total, fmt.Errorf("train %q step %d %q: %w", t.name, si, s, err)
		}
		total += lat
	}
	c.mu.Lock()
	c.stats.Trains++
	c.mu.Unlock()
	return total, nil
}

// emitTrainEvents replays the command events of one fused train execution,
// byte-compatible with what executeTrainStepwise would have emitted (modulo
// fault events, which cannot occur on the fused path).  Operand address
// strings are interned per row index; comments are fixed at compile time.
func (c *Controller) emitTrainEvents(t *Train, bank, sub int, rows []dram.RowAddr) {
	tm := c.dev.Timing()
	aapSplit, aapNaive, apLat := tm.AAPSplit(), tm.AAPNaive(), tm.AP()
	addrStr := func(a dram.RowAddr, op int) string {
		if op >= 0 {
			return dRowStr(rows[op].Index)
		}
		return a.String()
	}
	if cb := c.tr.CommandBuffer(bank); cb.Active() {
		evs := cb.Extend(len(t.steps))
		for i := range t.steps {
			s := &t.steps[i]
			a1 := resolveTrainAddr(s.A1, s.Op1, rows)
			ev := &evs[i]
			ev.Kind = obs.KindCommand
			ev.Bank, ev.Subarray = bank, sub
			ev.StartNS = -1
			ev.Rows = 0
			ev.A1 = addrStr(s.A1, s.Op1)
			ev.A2 = ""
			ev.Comment = s.Comment
			if s.Kind == StepAAP {
				a2 := resolveTrainAddr(s.A2, s.Op2, rows)
				ev.Name = "AAP"
				ev.A2 = addrStr(s.A2, s.Op2)
				ev.DurNS = aapNaive
				if c.SplitDecoder && (a1.Group == dram.GroupB) != (a2.Group == dram.GroupB) {
					ev.DurNS = aapSplit
				}
				ev.EnergyPJ = c.stepEnergyNJ(StepAAP, a1, a2) * 1000
			} else {
				ev.Name = "AP"
				ev.DurNS = apLat
				ev.EnergyPJ = c.stepEnergyNJ(StepAP, a1, dram.RowAddr{}) * 1000
			}
		}
		return
	}
	for i := range t.steps {
		s := &t.steps[i]
		a1 := resolveTrainAddr(s.A1, s.Op1, rows)
		if s.Kind == StepAAP {
			a2 := resolveTrainAddr(s.A2, s.Op2, rows)
			lat := aapNaive
			if c.SplitDecoder && (a1.Group == dram.GroupB) != (a2.Group == dram.GroupB) {
				lat = aapSplit
			}
			c.emitCmd("AAP", bank, sub, addrStr(s.A1, s.Op1), addrStr(s.A2, s.Op2),
				lat, c.stepEnergyNJ(StepAAP, a1, a2), s.Comment)
		} else {
			c.emitCmd("AP", bank, sub, addrStr(s.A1, s.Op1), "",
				apLat, c.stepEnergyNJ(StepAP, a1, dram.RowAddr{}), s.Comment)
		}
	}
}
