package controller

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"ambit/internal/dram"
)

// The seven Figure-8 operations as Trains.
//
// Sequence is the Figure-8 table.  At package init each op's sequence is
// built once into a Train over three operand slots — 0 = Dk, 1 = Di, 2 = Dj —
// so ExecuteOp runs the same net-effect, traced and stepwise code as a
// compiled function, and a different sequence for an op is a change to the
// table alone.  Only the comments need more than a Train holds: a Figure-8
// comment names a concrete operand row ("T0 = D7"), so each op-train step
// keeps its comment split around the one operand slot it names and interns
// the rendered strings per row index.

// opTrains holds each op's train, indexed by Op.
var opTrains [numOps]*Train

// opSentinels mark the operand slots when the sequences are built.  Sequence
// only inspects the address group of its operands, so negative indices are
// safe and cannot collide with real rows.
var opSentinels = [3]dram.RowAddr{dram.D(-1), dram.D(-2), dram.D(-3)}

// sentinelSlot returns the operand slot a sentinel address marks, -1 for a
// fixed address.
func sentinelSlot(a dram.RowAddr) int {
	for k, s := range opSentinels {
		if a == s {
			return k
		}
	}
	return -1
}

func init() {
	for _, op := range Ops {
		t, err := newOpTrain(op)
		if err != nil {
			panic(fmt.Sprintf("controller: building the %v train: %v", op, err))
		}
		opTrains[op] = t
	}
}

// newOpTrain builds op's Figure-8 sequence into a Train.  The steps keep
// their comments with the operand slot shown as $N; the trace renders them
// from the templates instead.
func newOpTrain(op Op) (*Train, error) {
	seq, err := Sequence(op, opSentinels[0], opSentinels[1], opSentinels[2])
	if err != nil {
		return nil, err
	}
	steps := make([]TrainStep, len(seq))
	tmpls := make([][]string, len(seq))
	slots := make([]int, len(seq))
	for i, s := range seq {
		slots[i] = -1
		steps[i] = TrainStep{Kind: s.Kind, A1: s.Addr1, A2: s.Addr2,
			Op1: sentinelSlot(s.Addr1), Op2: sentinelSlot(s.Addr2), Comment: s.Comment}
		for k, sn := range opSentinels {
			if !strings.Contains(s.Comment, sn.String()) {
				continue
			}
			if slots[i] >= 0 {
				return nil, fmt.Errorf("step %d comment %q names two operand slots", i, s.Comment)
			}
			slots[i], tmpls[i] = k, strings.Split(s.Comment, sn.String())
			steps[i].Comment = strings.Join(tmpls[i], fmt.Sprintf("$%d", k))
		}
	}
	t, err := NewTrain(op.String(), len(opSentinels), steps)
	if err != nil {
		return nil, err
	}
	if t.net == nil { // ExecuteOpRowsFused runs every op train's net program
		return nil, fmt.Errorf("no net program")
	}
	t.op = int(op)
	for i := range t.steps {
		if slots[i] >= 0 {
			t.steps[i].tmpl, t.steps[i].slot, t.steps[i].cache = tmpls[i], slots[i], &internTable{}
		}
	}
	return t, nil
}

// internTable is a lock-free-read cache of strings indexed by a data-row
// index; growth and fills happen copy-on-write under mu.  Misses render and
// store; hits are one atomic load.  Tables hang off the package-level op
// trains, so every controller shares them — the cached strings are pure
// functions of (step, row index).
type internTable struct {
	mu  sync.Mutex
	tab atomic.Pointer[[]string]
}

// lookup returns the interned string for idx, if cached.
func (c *internTable) lookup(idx int) (string, bool) {
	if idx < 0 {
		return "", false
	}
	if p := c.tab.Load(); p != nil && idx < len(*p) {
		if s := (*p)[idx]; s != "" {
			return s, true
		}
	}
	return "", false
}

// put caches s for idx and returns the canonical copy.  Negative indices
// (test sentinels) are never cached.
func (c *internTable) put(idx int, s string) string {
	if idx < 0 {
		return s
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var old []string
	if p := c.tab.Load(); p != nil {
		old = *p
	}
	if idx < len(old) && old[idx] != "" {
		return old[idx] // lost the race; keep the canonical copy
	}
	n := len(old)
	if idx >= n {
		n = idx + 1
		if grow := 2 * len(old); grow > n {
			n = grow
		}
	}
	next := make([]string, n)
	copy(next, old)
	next[idx] = s
	c.tab.Store(&next)
	return s
}

// dRowStrs interns the D-group address strings ("D0", "D1", ...) trace
// events carry for operand slots.
var dRowStrs internTable

// dRowStr returns the interned dram.D(i).String().
func dRowStr(i int) string {
	if s, ok := dRowStrs.lookup(i); ok {
		return s
	}
	return dRowStrs.put(i, dram.D(i).String())
}

// RowTrain names one row-level train of a multi-row fused dispatch: the
// subarray and the D-group operand rows of a single Figure-8 train on the
// dispatching bank.
type RowTrain struct {
	Sub        int
	DK, DI, DJ dram.RowAddr
}

// ExecuteOpRowsFused runs op's net program on every train, charging the
// aggregate command census with a single device commit and a single
// controller-stats lock.  It returns the per-train latency (identical for
// every train — the census is static) and whether the fused path ran.
//
// The dispatch is all-or-nothing: every train is validated up front
// (operands as ExecuteOp checks them, and FusedEligible — net evaluation
// leaves subarrays precharged, so eligibility checked before the pass holds
// across it) and on any failure the call returns false having changed
// nothing, leaving the caller to fall back to per-row execution, which also
// owns error reporting.  An op train's net program is exact under every
// aliasing of Dk, Di and Dj, so no train needs a layout check.  The caller
// must hold the bank's execution shard.
func (c *Controller) ExecuteOpRowsFused(op Op, bank int, trains []RowTrain) (float64, bool) {
	if c.noFuse || len(trains) == 0 || c.tr.Enabled() || op >= numOps {
		return 0, false
	}
	t := opTrains[op]
	g := c.dev.Geometry()
	for i := range trains {
		rt := &trains[i]
		rows := [3]dram.RowAddr{rt.DK, rt.DI, rt.DJ}
		if t.checkOperands(g, bank, rt.Sub, rows[:]) != nil || !c.dev.Bank(bank).Subarray(rt.Sub).FusedEligible() {
			return 0, false
		}
	}
	bk, sc := c.dev.Bank(bank), &c.scratch[bank].net
	for i := range trains {
		rt := &trains[i]
		rows := [3]dram.RowAddr{rt.DK, rt.DI, rt.DJ}
		t.net.run(bk.Subarray(rt.Sub), rows[:], g.WordsPerRow(), sc)
	}
	return c.commitTrains(t, int64(len(trains))), true
}
