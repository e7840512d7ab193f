package controller

import (
	"fmt"

	"ambit/internal/dram"
)

// Many-row majority (MAJ-X) execution.
//
// The 2024 characterization papers (PAPERS.md) show commodity DRAM can raise
// 16 or 32 rows in one ACTIVATE, computing a wide bitwise majority.  The
// controller exposes that as MAJ-k over k data-row operands: each operand is
// replicated into a reserved block of staging rows an even number of times
// (plus a balanced zero/one fill from the control rows), so the W-row
// majority equals the k-input majority and — because k is odd and the
// replication factor even — no bitline can tie.
//
// Command train for MAJ-k at width W:
//
//	AAP(src_i, Ds_j)  x W     ; stage c replicas of each src + fill
//	ACTIVATE-many(Ds_0..Ds_{W-1}); ACTIVATE(dk); PRECHARGE
//
// The many-row train is priced like an AAP whose first ACTIVATE raises W
// wordlines; each extra wordline adds tOverlap of settling time:
// AAPNaive + (W-1)·tOverlap.

// PlanMaj computes the replication plan for a k-input majority at activation
// width w: the per-operand replication factor c (the largest even count with
// c·k <= w) and the number of balanced filler rows (w - c·k, half zeros and
// half ones).  k must be odd with 3 <= k and 2k <= w; w must be even and at
// most dram.MaxSimultaneousWordlines.
func PlanMaj(k, w int) (c, fill int, err error) {
	if k < 3 || k%2 == 0 {
		return 0, 0, fmt.Errorf("controller: MAJ-X input count must be odd and >= 3, got %d", k)
	}
	if w%2 != 0 || w < 4 || w > dram.MaxSimultaneousWordlines {
		return 0, 0, fmt.Errorf("controller: MAJ-X width must be even in [4,%d], got %d", dram.MaxSimultaneousWordlines, w)
	}
	c = w / k
	if c%2 == 1 {
		c--
	}
	if c < 2 {
		return 0, 0, fmt.Errorf("controller: %d inputs do not fit width %d (need 2 replicas each)", k, w)
	}
	return c, w - c*k, nil
}

// MajLatencyNS returns the simulated latency of one ExecuteMaj train at
// activation width w: w staging AAPs plus the many-row train.
func (c *Controller) MajLatencyNS(w int) float64 {
	t := c.dev.Timing()
	return float64(w)*t.AAPNaive() + t.AAPNaive() + float64(w-1)*t.TOverlap
}

// ExecuteMaj performs dk = MAJ(srcs...) on one subarray using many-row
// simultaneous activation.  srcs are distinct D-group rows (odd count >= 3);
// dk is a D-group destination and may alias a source (staging copies read the
// sources before dk is written).  scratchBase is the first of w consecutive
// D-group staging rows reserved by the driver (withheld from allocation);
// their contents are clobbered.  Returns the train's total latency.
//
// When the bank is precharged and every row is in range, the train runs as
// its net effect: the many-row activation latches MAJ-k of the k sources
// directly, since the even replication and the balanced C0/C1 fill make the
// staged block's majority and weak-bit mask functions of the sources alone
// (dram.Subarray.ActivateManyFrom); the result is written into dk, the
// staging rows read it back lazily, and the census is committed at once.
// The staging copies move data through single, non-negated wordlines and
// draw no faults, and the one many-row draw reads only the weak-bit mask, so
// both routes give identical cells, latencies, statistics, fault draws and
// trace bytes.  Otherwise — or with fusion disabled — the staging AAPs and
// the many-row train are issued one by one.
func (c *Controller) ExecuteMaj(bank, sub int, dk dram.RowAddr, srcs []dram.RowAddr, scratchBase, w int) (float64, error) {
	k := len(srcs)
	repl, fill, err := PlanMaj(k, w)
	if err != nil {
		return 0, err
	}
	if dk.Group != dram.GroupD {
		return 0, fmt.Errorf("controller: MAJ-X destination %v is not a data row", dk)
	}
	g := c.dev.Geometry()
	dataRows := g.DataRows()
	if scratchBase < 0 || scratchBase+w > dataRows {
		return 0, fmt.Errorf("controller: MAJ-X staging rows [%d,%d) outside data rows [0,%d)", scratchBase, scratchBase+w, dataRows)
	}
	if dk.Index >= scratchBase && dk.Index < scratchBase+w {
		return 0, fmt.Errorf("controller: MAJ-X destination %v inside staging block [%d,%d)", dk, scratchBase, scratchBase+w)
	}
	valid := bank >= 0 && bank < g.Banks && sub >= 0 && sub < g.SubarraysPerBank && dk.Validate(g) == nil
	for i, s := range srcs {
		if s.Group != dram.GroupD {
			return 0, fmt.Errorf("controller: MAJ-X operand %v is not a data row", s)
		}
		if s.Index >= scratchBase && s.Index < scratchBase+w {
			return 0, fmt.Errorf("controller: MAJ-X operand %v inside staging block [%d,%d)", s, scratchBase, scratchBase+w)
		}
		for _, q := range srcs[:i] {
			if q == s {
				return 0, fmt.Errorf("controller: duplicate MAJ-X operand %v", s)
			}
		}
		valid = valid && s.Validate(g) == nil
	}

	c.dev.BeginTrain(bank, sub, dk.Index)
	var stagedBuf [dram.MaxSimultaneousWordlines]int // the device does not keep rows
	staged := stagedBuf[:w]
	for i := range staged {
		staged[i] = scratchBase + i
	}
	// An out-of-range address or an open bank fails partway through the
	// stepwise train, which owns that error accounting.
	if c.noFuse || !valid || c.dev.Bank(bank).Activated() || c.dev.Bank(bank).Subarray(sub).Activated() {
		return c.executeMajStepwise(bank, sub, dk, srcs, staged, repl, fill)
	}

	var srcBuf [dram.MaxSimultaneousWordlines / 2]int // k <= w/2
	srcRows := srcBuf[:k]
	for i, s := range srcs {
		srcRows[i] = s.Index
	}
	if err := c.dev.Bank(bank).Subarray(sub).ActivateManyFrom(srcRows, repl, fill, staged, dk.Index); err != nil {
		return 0, fmt.Errorf("many-row activate bank %d sub %d: %w", bank, sub, err)
	}

	// The census of w staging AAPs (two one-wordline ACTIVATEs and a
	// PRECHARGE each) and the many-row train (a w-wordline ACTIVATE, the
	// ACTIVATE of dk, a PRECHARGE), with BusyNS added in command order.
	var st dram.Stats
	st.Activates[0] = int64(2*w + 1)
	st.Activates[w-1] = 1
	st.Precharges = int64(w + 1)
	c.dev.CommitStats(st)
	// Every staging AAP copies a D- or C-group row into a D-group row, so
	// all share the first one's latency.
	aapLat := c.AAPLatencyNS(srcs[0], dram.D(staged[0]))
	majLat := c.majTrainNS(w)
	var total float64
	for range staged {
		total += aapLat
	}
	total += majLat
	c.mu.Lock()
	c.stats.AAPs += int64(w)
	for range staged {
		c.stats.BusyNS += aapLat
	}
	c.stats.BusyNS += majLat
	c.stats.Majs++
	c.mu.Unlock()
	if c.tr.Enabled() {
		stageMaj(srcs, staged, repl, fill, true, func(src, dst dram.RowAddr, comment string) error {
			c.emitCmd("AAP", bank, sub, src.String(), dst.String(), aapLat, c.stepEnergyNJ(StepAAP, src, dst), comment)
			return nil
		})
		c.emitMaj(bank, sub, dk, staged, k, repl, fill, majLat)
	}
	return total, nil
}

// majTrainNS returns the latency of the many-row train at width w: an AAP
// whose first ACTIVATE raises w wordlines, each extra one adding tOverlap.
func (c *Controller) majTrainNS(w int) float64 {
	t := c.dev.Timing()
	return t.AAPNaive() + float64(w-1)*t.TOverlap
}

// stageMaj walks the staging AAPs of a MAJ-k train in command order — repl
// copies of each source, then the zero fill, then the one fill — calling f
// with each copy's source, staging row and, when traced, trace comment.
func stageMaj(srcs []dram.RowAddr, staged []int, repl, fill int, traced bool, f func(src, dst dram.RowAddr, comment string) error) error {
	next := 0
	stage := func(src dram.RowAddr, comment string) error {
		dst := dram.D(staged[next])
		next++
		return f(src, dst, comment)
	}
	for i, s := range srcs {
		for j := 0; j < repl; j++ {
			var comment string
			if traced {
				comment = fmt.Sprintf("stage replica %d of operand %d", j, i)
			}
			if err := stage(s, comment); err != nil {
				return err
			}
		}
	}
	for j := 0; j < fill/2; j++ {
		if err := stage(dram.C(0), "stage balanced fill (zeros)"); err != nil {
			return err
		}
	}
	for j := 0; j < fill/2; j++ {
		if err := stage(dram.C(1), "stage balanced fill (ones)"); err != nil {
			return err
		}
	}
	return nil
}

// emitMaj emits the many-row train's command event.
func (c *Controller) emitMaj(bank, sub int, dk dram.RowAddr, staged []int, k, repl, fill int, majLat float64) {
	w := len(staged)
	nj := c.stepEnergyNJ(StepMaj, dram.D(w), dk)
	c.emitCmd("MAJ", bank, sub, fmt.Sprintf("D%d..D%d", staged[0], staged[w-1]), dk.String(),
		majLat, nj, fmt.Sprintf("%d-row simultaneous majority (MAJ-%d, %d replicas + %d fill)", w, k, repl, fill))
}

// executeMajStepwise issues the MAJ-k train command by command: the staging
// AAPs through the device model, then the many-row ACTIVATE of the staged
// block, the ACTIVATE of dk and a PRECHARGE.  It is the reference the net
// effect in ExecuteMaj is checked against.
func (c *Controller) executeMajStepwise(bank, sub int, dk dram.RowAddr, srcs []dram.RowAddr, staged []int, repl, fill int) (float64, error) {
	traced := c.tr.Enabled()
	var total float64
	err := stageMaj(srcs, staged, repl, fill, traced, func(src, dst dram.RowAddr, comment string) error {
		lat, err := c.aap(bank, sub, src, dst, comment)
		total += lat
		return err
	})
	if err != nil {
		return total, err
	}

	// Many-row train: simultaneous ACTIVATE of the staged block, copy into
	// dk, precharge.
	var st dram.Stats
	if err := c.dev.ActivateManyLocal(bank, sub, staged, &st); err != nil {
		c.dev.CommitStats(st)
		return total, err
	}
	if err := c.dev.ActivateLocal(dram.PhysAddr{Bank: bank, Subarray: sub, Row: dk}, &st); err != nil {
		c.dev.CommitStats(st)
		return total, err
	}
	if err := c.dev.PrechargeLocal(bank, &st); err != nil {
		c.dev.CommitStats(st)
		return total, err
	}
	c.dev.CommitStats(st)
	majLat := c.majTrainNS(len(staged))
	total += majLat
	if traced {
		c.emitMaj(bank, sub, dk, staged, len(srcs), repl, fill, majLat)
	}

	// The staging AAPs booked themselves through aap(); only the many-row
	// train itself is added here.
	c.mu.Lock()
	c.stats.Majs++
	c.stats.BusyNS += majLat
	c.mu.Unlock()
	return total, nil
}
