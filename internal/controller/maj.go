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
func (c *Controller) ExecuteMaj(bank, sub int, dk dram.RowAddr, srcs []dram.RowAddr, scratchBase, w int) (float64, error) {
	k := len(srcs)
	repl, fill, err := PlanMaj(k, w)
	if err != nil {
		return 0, err
	}
	if dk.Group != dram.GroupD {
		return 0, fmt.Errorf("controller: MAJ-X destination %v is not a data row", dk)
	}
	dataRows := c.dev.Geometry().DataRows()
	if scratchBase < 0 || scratchBase+w > dataRows {
		return 0, fmt.Errorf("controller: MAJ-X staging rows [%d,%d) outside data rows [0,%d)", scratchBase, scratchBase+w, dataRows)
	}
	if dk.Index >= scratchBase && dk.Index < scratchBase+w {
		return 0, fmt.Errorf("controller: MAJ-X destination %v inside staging block [%d,%d)", dk, scratchBase, scratchBase+w)
	}
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
	}

	c.dev.BeginTrain(bank, sub, dk.Index)

	// Stage: c replicas of each source, then a balanced zero/one fill.
	// Comments only reach traced events, so they are formatted only then.
	traced := c.tr.Enabled()
	var total float64
	next := scratchBase
	stage := func(src dram.RowAddr, comment string) error {
		lat, err := c.aap(bank, sub, src, dram.D(next), comment)
		if err != nil {
			return err
		}
		next++
		total += lat
		return nil
	}
	for i, s := range srcs {
		for j := 0; j < repl; j++ {
			var comment string
			if traced {
				comment = fmt.Sprintf("stage replica %d of operand %d", j, i)
			}
			if err := stage(s, comment); err != nil {
				return total, err
			}
		}
	}
	for j := 0; j < fill/2; j++ {
		if err := stage(dram.C(0), "stage balanced fill (zeros)"); err != nil {
			return total, err
		}
	}
	for j := 0; j < fill/2; j++ {
		if err := stage(dram.C(1), "stage balanced fill (ones)"); err != nil {
			return total, err
		}
	}

	// Many-row train: simultaneous ACTIVATE of the staged block, copy into
	// dk, precharge.
	var stagedBuf [dram.MaxSimultaneousWordlines]int // ActivateManyLocal does not keep rows
	staged := stagedBuf[:w]
	for i := range staged {
		staged[i] = scratchBase + i
	}
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
	t := c.dev.Timing()
	majLat := t.AAPNaive() + float64(w-1)*t.TOverlap
	total += majLat
	if c.tr.Enabled() {
		nj := c.stepEnergyNJ(StepMaj, dram.D(w), dk)
		c.emitCmd("MAJ", bank, sub, fmt.Sprintf("D%d..D%d", scratchBase, scratchBase+w-1), dk.String(),
			majLat, nj, fmt.Sprintf("%d-row simultaneous majority (MAJ-%d, %d replicas + %d fill)", w, k, repl, fill))
	}

	// The staging AAPs booked themselves through aap(); only the many-row
	// train itself is added here.
	c.mu.Lock()
	c.stats.Majs++
	c.stats.BusyNS += majLat
	c.mu.Unlock()
	return total, nil
}
