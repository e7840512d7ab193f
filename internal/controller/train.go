package controller

import (
	"fmt"
	"strings"

	"ambit/internal/dram"
	"ambit/internal/obs"
)

// Command trains.
//
// A Train is the one representation of an AAP/AP command sequence: the seven
// Figure-8 operations (optrain.go) and the boolean functions internal/compile
// emits are both Trains.  Each step's addresses are either fixed reserved
// addresses (B/C group) or indices into the operand row vector bound at
// execution time.  A Train precomputes its command census — ACTIVATEs by
// wordline fan-out, PRECHARGEs, split-decoder-eligible AAPs — so the net
// effect evaluator charges latency, energy, and stats in O(1) per row without
// walking the steps, and the strings its trace events carry, so replaying a
// traced train allocates nothing.

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

// trainStep is a TrainStep plus what executing and tracing it needs, fixed
// when the train is built.
type trainStep struct {
	TrainStep
	// split reports Section 5.3 split-decoder eligibility: an AAP with
	// exactly one B-group address.
	split bool
	// a1 and a2 are the fixed addresses' strings; "" for an operand slot.
	a1, a2 string
	// tmpl is an op train's comment split around the one operand slot it
	// names (slot); the rendered comments are interned per row index in
	// cache.  nil when the comment is fixed.
	tmpl  []string
	slot  int
	cache *internTable
}

// addrStr returns the trace string of one of the step's address slots.
func addrStr(fixed string, op int, rows []dram.RowAddr) string {
	if op >= 0 {
		return dRowStr(rows[op].Index)
	}
	return fixed
}

// commentFor returns the step's trace comment for the given operand rows.
func (s *trainStep) commentFor(rows []dram.RowAddr) string {
	if s.cache == nil {
		return s.Comment
	}
	idx := rows[s.slot].Index
	if c, ok := s.cache.lookup(idx); ok {
		return c
	}
	return s.cache.put(idx, strings.Join(s.tmpl, rows[s.slot].String()))
}

// latency returns the step's latency given the AAP latency with and without
// the split decoder's overlap, and the AP latency.
func (s *trainStep) latency(aapSplit, aapNaive, ap float64) float64 {
	switch {
	case s.Kind != StepAAP:
		return ap
	case s.split:
		return aapSplit
	}
	return aapNaive
}

// Train is a validated command train template: the unit the controller
// executes per row.  A Train is immutable after construction and safe for
// concurrent ExecuteTrain calls on different banks (the caller serializes
// per-bank access).
type Train struct {
	name     string
	operands int
	steps    []trainStep
	// op is the OpCounts index a completed run of an op train increments;
	// -1 for any other train, whose runs count in Trains.
	op int

	// Command census: acts[k] counts ACTIVATEs raising k+1 wordlines; pres
	// counts PRECHARGEs; splitAAPs counts AAPs with exactly one B-group
	// address (Section 5.3 split-decoder eligible).
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
	// faults lists the injector consultations one run makes, in command
	// order (see NewTrain); an armed run draws them up front.
	faults []dram.FaultEvent
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
		steps:      make([]trainStep, len(steps)),
		op:         -1,
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
	// negations appends one DCC draw per negation wordline an ACTIVATE of
	// a restores or writes (Subarray.overwrite); operand slots and control
	// rows raise no negation wordline.
	negations := func(a dram.RowAddr) {
		for _, wl := range dram.BGroupWordlines(a.Index) {
			if wl.Negated() {
				t.faults = append(t.faults, dram.FaultDCC)
			}
		}
	}
	for i, s := range steps {
		ts := &t.steps[i]
		*ts = trainStep{TrainStep: s, slot: -1}
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
			ts.a1 = s.A1.String()
			if s.A1.Group == dram.GroupB {
				// A first ACTIVATE draws for a TRA's majority, then
				// for each negation wordline it restores.
				if wc1 == 3 {
					t.faults = append(t.faults, dram.FaultTRA)
				}
				negations(s.A1)
			}
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
			ts.a2 = s.A2.String()
			negations(s.A2)
		}
		t.aaps++
		if b1 != b2 {
			t.splitAAPs++
			ts.split = true
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
func (t *Train) Steps() []TrainStep {
	out := make([]TrainStep, len(t.steps))
	for i := range t.steps {
		out[i] = t.steps[i].TrainStep
	}
	return out
}

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

// stepLatencies returns the latencies trainStep.latency selects between: an
// eligible AAP's (the overlapped one when the split decoder is on), any other
// AAP's, and an AP's.
func (c *Controller) stepLatencies() (aapSplit, aapNaive, ap float64) {
	tm := c.dev.Timing()
	aapSplit, aapNaive = tm.AAPSplit(), tm.AAPNaive()
	if !c.SplitDecoder {
		aapSplit = aapNaive
	}
	return aapSplit, aapNaive, tm.AP()
}

// resolveTrainAddr resolves one step address slot against the operand rows.
func resolveTrainAddr(a dram.RowAddr, op int, rows []dram.RowAddr) dram.RowAddr {
	if op >= 0 {
		return rows[op]
	}
	return a
}

// completions returns the counter one completed run of t increments: its
// op's OpCounts entry for an op train, Trains for any other.
func (t *Train) completions(st *Stats) *int64 {
	if t.op >= 0 {
		return &st.OpCounts[t.op]
	}
	return &st.Trains
}

// checkOperands validates a run's bank, subarray and operand rows.  Every
// operand slot the train touches must be an in-range D-group row; a slot no
// step names (Dj of a unary op) is ignored.
func (t *Train) checkOperands(g dram.Geometry, bank, sub int, rows []dram.RowAddr) error {
	if len(rows) != t.operands {
		return fmt.Errorf("controller: train %q: got %d operand rows, want %d", t.name, len(rows), t.operands)
	}
	if bank < 0 || bank >= g.Banks || sub < 0 || sub >= g.SubarraysPerBank {
		return fmt.Errorf("controller: train %q: bank %d/subarray %d out of range", t.name, bank, sub)
	}
	for i, r := range rows {
		if t.firstWrite[i] < 0 && t.lastRead[i] < 0 {
			continue
		}
		if r.Group != dram.GroupD {
			return fmt.Errorf("controller: train %q operand $%d: %v is not a data row", t.name, i, r)
		}
		if err := r.Validate(g); err != nil {
			return fmt.Errorf("controller: train %q operand $%d: %w", t.name, i, err)
		}
	}
	return nil
}

// ExecuteTrain runs one train on the given bank/subarray with the given
// operand rows (D-group, one per operand slot), returning the train's total
// command latency.  When nothing can observe the intermediate states — the
// train has a net program, the operand layout lets it order its reads and
// writes (layoutFusable), and the subarray is precharged with no one-shot
// fault mask set — it runs the net effect in one word pass, commits the
// census, and replays the command events if traced.  Under a fault injector
// it first takes the train's draws up front, in command order: they never
// read row data, so when none fires the net effect is still exact, and when
// one does the steps replay those same masks one by one through the device
// model.  Every route gives identical cells, latencies, statistics, fault
// draws and trace bytes.
func (c *Controller) ExecuteTrain(t *Train, bank, sub int, rows []dram.RowAddr) (float64, error) {
	if err := t.checkOperands(c.dev.Geometry(), bank, sub, rows); err != nil {
		return 0, err
	}
	if t.net != nil && !c.noFuse && t.layoutFusable(rows) {
		bk := c.dev.Bank(bank)
		sa := bk.Subarray(sub)
		if sa.FusedEligible() {
			return c.runNet(t, sa, bank, sub, rows), nil
		}
		// The bank must be precharged too: with another subarray open
		// the first ACTIVATE fails before any draw.
		if sa.DrawEligible() && !bk.Activated() {
			c.dev.BeginTrain(bank, sub, t.destRow(rows))
			if !sa.DrawFaults(t.faults, &c.scratch[bank].masks) {
				return c.runNet(t, sa, bank, sub, rows), nil
			}
			lat, err := c.executeStepwise(t, bank, sub, rows)
			sa.EndReplay()
			return lat, err
		}
	}
	return c.executeStepwise(t, bank, sub, rows)
}

// runNet applies t's net effect to sa, commits its census, and replays its
// command events when traced.
func (c *Controller) runNet(t *Train, sa *dram.Subarray, bank, sub int, rows []dram.RowAddr) float64 {
	t.net.run(sa, rows, c.dev.Geometry().WordsPerRow(), &c.scratch[bank].net)
	lat := c.commitTrains(t, 1)
	if c.tr.Enabled() {
		c.replayEvents(t, bank, sub, rows)
	}
	return lat
}

// destRow returns the fault context's destination row for a run on rows:
// the first written operand's row index, -1 when the train writes none.
func (t *Train) destRow(rows []dram.RowAddr) int {
	if t.firstOut < 0 {
		return -1
	}
	return rows[t.firstOut].Index
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

// commitTrains charges n net-effect runs of t from its census in one device
// commit and one stats lock, and returns the per-run latency.  Committing n
// runs at once is exact: the census is integer sums, and the train latency
// is an exact multiple of 2^-2 ns under the paper's timings, so the n BusyNS
// adds accumulate bit-identically to n single-run commits in any
// interleaving.
func (c *Controller) commitTrains(t *Train, n int64) float64 {
	lat := c.TrainLatencyNS(t)
	st := dram.Stats{Precharges: t.pres * n}
	for i, a := range t.acts {
		st.Activates[i] = a * n
	}
	c.dev.CommitStats(st)
	c.mu.Lock()
	c.stats.AAPs += t.aaps * n
	c.stats.APs += t.aps * n
	for i := int64(0); i < n; i++ {
		c.stats.BusyNS += lat
	}
	*t.completions(&c.stats) += n
	c.mu.Unlock()
	return lat
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

// executeStepwise issues the train's commands one by one through the device
// model — the full charge-share/latch/restore path with its fault hooks —
// counting them locally and committing device and controller statistics
// once, and emits each command's event when traced.
func (c *Controller) executeStepwise(t *Train, bank, sub int, rows []dram.RowAddr) (float64, error) {
	c.dev.BeginTrain(bank, sub, t.destRow(rows))
	aapSplit, aapNaive, apLat := c.stepLatencies()
	traced := c.tr.Enabled()
	var st dram.Stats
	var total float64
	var aaps, aps int64
	var err error
	for i := range t.steps {
		s := &t.steps[i]
		if err = c.issue(s, bank, sub, rows, &st); err != nil {
			err = fmt.Errorf("train %q step %d %q: %w", t.name, i, s.TrainStep, err)
			break
		}
		lat := s.latency(aapSplit, aapNaive, apLat)
		total += lat
		if s.Kind == StepAAP {
			aaps++
		} else {
			aps++
		}
		if traced {
			var ev obs.Event
			c.fillEvent(&ev, s, bank, sub, rows, lat)
			c.tr.Emit(ev)
		}
	}
	c.dev.CommitStats(st)
	c.mu.Lock()
	c.stats.AAPs += aaps
	c.stats.APs += aps
	c.stats.BusyNS += total
	if err == nil {
		*t.completions(&c.stats)++
	}
	c.mu.Unlock()
	return total, err
}

// issue runs one step's ACTIVATEs and PRECHARGE, counting them into st.
func (c *Controller) issue(s *trainStep, bank, sub int, rows []dram.RowAddr, st *dram.Stats) error {
	a1 := resolveTrainAddr(s.A1, s.Op1, rows)
	p := dram.PhysAddr{Bank: bank, Subarray: sub, Row: a1}
	if s.Kind == StepAAP {
		a2 := resolveTrainAddr(s.A2, s.Op2, rows)
		if err := c.dev.ActivateLocal(p, st); err != nil {
			return fmt.Errorf("AAP(%v,%v) first activate: %w", a1, a2, err)
		}
		p.Row = a2
		if err := c.dev.ActivateLocal(p, st); err != nil {
			return fmt.Errorf("AAP(%v,%v) second activate: %w", a1, a2, err)
		}
	} else if err := c.dev.ActivateLocal(p, st); err != nil {
		return fmt.Errorf("AP(%v): %w", a1, err)
	}
	return c.dev.PrechargeLocal(bank, st)
}

// fillEvent writes one step of a run on rows into ev as its command event,
// assigning every field but Seq, so ev may be a recycled capture slot.
func (c *Controller) fillEvent(ev *obs.Event, s *trainStep, bank, sub int, rows []dram.RowAddr, lat float64) {
	a1 := resolveTrainAddr(s.A1, s.Op1, rows)
	ev.Kind, ev.Name = obs.KindCommand, "AP"
	ev.Bank, ev.Subarray = bank, sub
	ev.StartNS, ev.DurNS, ev.Rows = -1, lat, 0
	ev.A1, ev.A2 = addrStr(s.a1, s.Op1, rows), ""
	ev.Comment, ev.NS, ev.Req = s.commentFor(rows), "", ""
	var a2 dram.RowAddr
	if s.Kind == StepAAP {
		a2 = resolveTrainAddr(s.A2, s.Op2, rows)
		ev.Name, ev.A2 = "AAP", addrStr(s.a2, s.Op2, rows)
	}
	ev.EnergyPJ = c.stepEnergyNJ(s.Kind, a1, a2) * 1000
}

// replayEvents emits the command events of one net-effect run, identical to
// what executeStepwise emits (no fault fired in a net-effect run).  Under a
// ShardSet the whole train is written into the bank's capture shard in place;
// otherwise each event goes through the tracer.
func (c *Controller) replayEvents(t *Train, bank, sub int, rows []dram.RowAddr) {
	aapSplit, aapNaive, apLat := c.stepLatencies()
	if cb := c.tr.CommandBuffer(bank); cb.Active() {
		evs := cb.Extend(len(t.steps))
		for i := range t.steps {
			s := &t.steps[i]
			c.fillEvent(&evs[i], s, bank, sub, rows, s.latency(aapSplit, aapNaive, apLat))
		}
		return
	}
	for i := range t.steps {
		s := &t.steps[i]
		var ev obs.Event
		c.fillEvent(&ev, s, bank, sub, rows, s.latency(aapSplit, aapNaive, apLat))
		c.tr.Emit(ev)
	}
}
