package dram

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// manyRowStub extends stubInjector with the ManyRowFaultInjector interface,
// recording the weak-bit mask and activation width it is handed.
type manyRowStub struct {
	stubInjector
	maj     []uint64
	majCtxs []FaultContext
	weak    []uint64
}

func (m *manyRowStub) MajFaultMask(ctx FaultContext, words int, weak []uint64) []uint64 {
	m.majCtxs = append(m.majCtxs, ctx)
	m.weak = append([]uint64(nil), weak...)
	return m.maj
}

// naiveMajority computes the expected per-bit majority and the per-bit
// ones-counts of the given rows.
func naiveMajority(rows [][]uint64, words int) (maj []uint64, counts [][]int) {
	maj = make([]uint64, words)
	counts = make([][]int, words)
	for i := 0; i < words; i++ {
		counts[i] = make([]int, 64)
		for bit := 0; bit < 64; bit++ {
			c := 0
			for _, r := range rows {
				if r[i]>>uint(bit)&1 == 1 {
					c++
				}
			}
			counts[i][bit] = c
			if 2*c > len(rows) {
				maj[i] |= 1 << uint(bit)
			}
		}
	}
	return maj, counts
}

// TestActivateManyMajority: the many-row activation computes the exact
// bitwise majority of odd row counts (tie-free by construction) and restores
// it into every connected cell.
func TestActivateManyMajority(t *testing.T) {
	for _, w := range []int{3, 5, 15, 31} {
		d := newTestDevice(t)
		words := d.Geometry().WordsPerRow()
		rng := rand.New(rand.NewSource(int64(w)))
		stride := 2 // non-contiguous rows are fine
		if w*stride > d.Geometry().DataRows() {
			stride = 1
		}
		data := make([][]uint64, w)
		rowIdx := make([]int, w)
		for r := 0; r < w; r++ {
			data[r] = randRow(rng, words)
			rowIdx[r] = r * stride
			if err := d.WriteRow(PhysAddr{Bank: 0, Subarray: 1, Row: D(rowIdx[r])}, data[r]); err != nil {
				t.Fatal(err)
			}
		}
		want, _ := naiveMajority(data, words)

		n, err := d.Bank(0).ActivateMany(1, rowIdx)
		if err != nil {
			t.Fatalf("w=%d: %v", w, err)
		}
		if n != w {
			t.Fatalf("w=%d: reported %d wordlines", w, n)
		}
		buf, err := d.Bank(0).subarrays[1].RowBuffer()
		if err != nil {
			t.Fatal(err)
		}
		if !equalRows(buf, want) {
			t.Fatalf("w=%d: row buffer is not the bitwise majority", w)
		}
		if err := d.Precharge(0); err != nil {
			t.Fatal(err)
		}
		// Restoration: every connected row now holds the majority.
		for _, r := range rowIdx {
			got, err := d.ReadRow(PhysAddr{Bank: 0, Subarray: 1, Row: D(r)})
			if err != nil {
				t.Fatal(err)
			}
			if !equalRows(got, want) {
				t.Fatalf("w=%d: row D%d not restored to the majority", w, r)
			}
		}
	}
}

// TestActivateManyEvenWidth: an even activation width works when no bitline
// ties, and fails with ErrUndefinedChargeSharing when one does.
func TestActivateManyEvenWidth(t *testing.T) {
	d := newTestDevice(t)
	words := d.Geometry().WordsPerRow()
	pattern := make([]uint64, words)
	for i := range pattern {
		pattern[i] = 0xA5A5_5A5A_DEAD_BEEF
	}
	// Three copies of the pattern and one all-zero row: counts are 0 or 3
	// of 4 — never tied — and the majority is the pattern itself.
	rows := []int{0, 1, 2, 3}
	for _, r := range rows[:3] {
		if err := d.WriteRow(PhysAddr{Bank: 1, Subarray: 0, Row: D(r)}, pattern); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.Bank(1).ActivateMany(0, rows); err != nil {
		t.Fatal(err)
	}
	buf, err := d.Bank(1).subarrays[0].RowBuffer()
	if err != nil {
		t.Fatal(err)
	}
	if !equalRows(buf, pattern) {
		t.Fatal("4-row majority of 3x pattern + zeros is not the pattern")
	}
	if err := d.Precharge(1); err != nil {
		t.Fatal(err)
	}

	// Two pattern rows and two zero rows: every pattern bit ties at 2 of 4.
	if err := d.WriteRow(PhysAddr{Bank: 1, Subarray: 0, Row: D(8)}, pattern); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteRow(PhysAddr{Bank: 1, Subarray: 0, Row: D(9)}, pattern); err != nil {
		t.Fatal(err)
	}
	_, err = d.Bank(1).ActivateMany(0, []int{8, 9, 10, 11})
	if !errors.Is(err, ErrUndefinedChargeSharing) {
		t.Fatalf("tied even-width activation: err = %v, want ErrUndefinedChargeSharing", err)
	}
}

// TestActivateManyWeakMask: the injector receives the activation width in
// ctx.K and a weak-bit mask marking exactly the minimum-charge-margin
// bitlines (count one step from the tie point).
func TestActivateManyWeakMask(t *testing.T) {
	d := newTestDevice(t)
	words := d.Geometry().WordsPerRow()
	stub := &manyRowStub{}
	d.SetFaultInjector(stub)

	const w = 5
	rng := rand.New(rand.NewSource(99))
	data := make([][]uint64, w)
	rows := make([]int, w)
	for r := 0; r < w; r++ {
		data[r] = randRow(rng, words)
		rows[r] = r
		if err := d.WriteRow(PhysAddr{Bank: 0, Subarray: 0, Row: D(r)}, data[r]); err != nil {
			t.Fatal(err)
		}
	}
	d.BeginTrain(0, 0, 4)
	if _, err := d.Bank(0).ActivateMany(0, rows); err != nil {
		t.Fatal(err)
	}
	if len(stub.majCtxs) != 1 {
		t.Fatalf("MajFaultMask consulted %d times, want 1", len(stub.majCtxs))
	}
	if got := stub.majCtxs[0]; got.K != w || got.Bank != 0 || got.Subarray != 0 || got.Row != 4 {
		t.Fatalf("MajFaultMask context = %+v, want K=%d bank 0 sub 0 row 4", got, w)
	}
	// Odd w=5: majority needs count >= 3, so counts 2 and 3 sit at the
	// minimum margin |2c-w| = 1.
	_, counts := naiveMajority(data, words)
	for i := 0; i < words; i++ {
		var want uint64
		for bit := 0; bit < 64; bit++ {
			if c := counts[i][bit]; c == 2 || c == 3 {
				want |= 1 << uint(bit)
			}
		}
		if stub.weak[i] != want {
			t.Fatalf("weak mask word %d = %016x, want %016x", i, stub.weak[i], want)
		}
	}
}

// TestActivateManyFallbackInjector: an injector without the many-row
// extension is still consulted through TRAFaultMask, and its mask lands in
// the sensed majority (and the restored rows).
func TestActivateManyFallbackInjector(t *testing.T) {
	d := newTestDevice(t)
	words := d.Geometry().WordsPerRow()
	mask := make([]uint64, words)
	mask[0] = 0b110
	stub := &stubInjector{tra: mask}
	d.SetFaultInjector(stub)

	// All-zero rows: the majority is zero, so the buffer equals the mask.
	if _, err := d.Bank(0).ActivateMany(0, []int{0, 1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	buf, err := d.Bank(0).subarrays[0].RowBuffer()
	if err != nil {
		t.Fatal(err)
	}
	if buf[0] != mask[0] {
		t.Fatalf("row buffer word 0 = %b, want injected %b", buf[0], mask[0])
	}
	if len(stub.traCtxs) != 1 || stub.traCtxs[0].K != 5 {
		t.Fatalf("TRAFaultMask contexts = %+v, want one with K=5", stub.traCtxs)
	}
}

// TestActivateManyErrors: width, range, duplicate, and state violations are
// all rejected without touching the subarray.
func TestActivateManyErrors(t *testing.T) {
	d := newTestDevice(t)
	dataRows := d.Geometry().DataRows()
	cases := []struct {
		name string
		rows []int
	}{
		{"too few", []int{3}},
		{"too many", make([]int, MaxSimultaneousWordlines+1)},
		{"duplicate", []int{1, 2, 1}},
		{"out of range", []int{0, 1, dataRows}},
		{"negative", []int{-1, 0, 1}},
	}
	for i := range cases[1].rows {
		cases[1].rows[i] = i
	}
	for _, tc := range cases {
		if _, err := d.Bank(0).ActivateMany(0, tc.rows); err == nil {
			t.Errorf("%s: ActivateMany(%v) accepted", tc.name, tc.rows)
		}
	}

	// Activated subarray: a many-row activation always senses.
	if err := d.Activate(PhysAddr{Bank: 0, Subarray: 0, Row: D(0)}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Bank(0).ActivateMany(0, []int{1, 2, 3}); err == nil {
		t.Error("ActivateMany accepted on an activated subarray")
	}
	if err := d.Precharge(0); err != nil {
		t.Fatal(err)
	}

	// Cross-subarray conflict within a bank.
	if err := d.Activate(PhysAddr{Bank: 0, Subarray: 1, Row: D(0)}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Bank(0).ActivateMany(0, []int{1, 2, 3}); !errors.Is(err, ErrBankActive) {
		t.Errorf("cross-subarray many-row activate: err = %v, want ErrBankActive", err)
	}
}

// TestActivateManyLocalStats: the command census counts a W-wordline
// activation in Activates[W-1].
func TestActivateManyLocalStats(t *testing.T) {
	d := newTestDevice(t)
	var st Stats
	if err := d.ActivateManyLocal(0, 0, []int{0, 1, 2, 3, 4, 5, 6}, &st); err != nil {
		t.Fatal(err)
	}
	if st.Activates[6] != 1 {
		t.Fatalf("Activates = %v, want one 7-wordline activation", st.Activates)
	}
	if st.TotalActivates() != 1 {
		t.Fatalf("TotalActivates = %d, want 1", st.TotalActivates())
	}
	if err := d.ActivateManyLocal(2, 0, []int{0, 1, 2}, &st); err == nil {
		t.Fatal("ActivateManyLocal accepted an out-of-range bank")
	}
}

// majShape is controller.PlanMaj's rule, which this package cannot import:
// the largest even replication c with c·k <= w, at least 2, and a fill of
// w - c·k rows.
func majShape(k, w int) (c, fill int, ok bool) {
	c = w / k &^ 1
	return c, w - c*k, c >= 2
}

// TestActivateManyFromEveryPlannerShape: for every odd k in 3..15 and every
// even width w in 4..32 the planner accepts, latching MAJ-k from the sources
// leaves every data row (the block rows and dst, which is sometimes a
// source) and the weak-bit mask as staging c copies of each source plus the
// C0/C1 fill and activating the block does, on rows of one full counting
// chunk plus six words; with a recording injector installed, it also sees
// the same context and weak-bit mask and its mask lands in the same rows.
func TestActivateManyFromEveryPlannerShape(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	g := Geometry{Banks: 1, SubarraysPerBank: 1, RowsPerSubarray: 96, RowSizeBytes: 8 * (countChunk + 6)}
	words := g.WordsPerRow()
	shapes := 0
	for k := 3; k <= 15; k += 2 {
		for _, injected := range []bool{false, true} {
			// One device pair per k runs every width in turn, so a shape
			// with an empty weak mask follows one with a full mask.
			var devs [2]*Device
			var stubs [2]*manyRowStub
			for i := range devs {
				d, err := NewDevice(Config{Geometry: g, Timing: DDR3_1600()})
				if err != nil {
					t.Fatal(err)
				}
				devs[i] = d
				if injected {
					stubs[i] = &manyRowStub{maj: make([]uint64, 3)}
					stubs[i].maj[1] = 0b1001
					d.SetFaultInjector(stubs[i])
				}
			}
			from, staged := devs[0], devs[1]
			for w := 4; w <= MaxSimultaneousWordlines; w += 2 {
				c, fill, ok := majShape(k, w)
				if !ok {
					continue
				}
				if !injected {
					shapes++
				}
				name := fmt.Sprintf("k=%d w=%d injected=%v", k, w, injected)
				if injected {
					for _, st := range stubs {
						st.majCtxs = nil
					}
				}
				for r := 0; r < g.DataRows(); r++ {
					row := randRow(rng, words)
					for _, d := range devs {
						if err := d.PokeRow(PhysAddr{Row: D(r)}, row); err != nil {
							t.Fatal(err)
						}
					}
				}
				base := g.DataRows() - w
				perm := rng.Perm(base)
				srcs, dst := perm[:k], perm[k]
				if rng.Intn(3) == 0 {
					dst = srcs[rng.Intn(k)]
				}
				block := make([]int, w)
				for i := range block {
					block[i] = base + i
				}
				// Stage the block in the planner's order: c copies of each
				// source, then the zero fill and the one fill.
				next := base
				stage := func(wl Wordline, n int) {
					row := staged.Bank(0).Subarray(0).PeekWordline(wl)
					for ; n > 0; n-- {
						if err := staged.PokeRow(PhysAddr{Row: D(next)}, row); err != nil {
							t.Fatal(err)
						}
						next++
					}
				}
				for _, r := range srcs {
					stage(Wordline{Kind: WLData, Index: r}, c)
				}
				stage(Wordline{Kind: WLC, Index: 0}, fill/2)
				stage(Wordline{Kind: WLC, Index: 1}, fill/2)
				var srcRows [][]uint64
				for _, r := range srcs {
					row, _ := from.PeekRow(PhysAddr{Row: D(r)})
					srcRows = append(srcRows, row)
				}
				wantMaj, _ := naiveMajority(srcRows, words)

				for _, d := range devs {
					d.BeginTrain(0, 0, dst)
				}
				if _, err := staged.Bank(0).ActivateMany(0, block); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if err := staged.Activate(PhysAddr{Row: D(dst)}); err != nil {
					t.Fatal(err)
				}
				staged.Bank(0).Precharge()
				if err := from.Bank(0).Subarray(0).ActivateManyFrom(srcs, c, fill, block, dst); err != nil {
					t.Fatalf("%s: %v", name, err)
				}

				for r := 0; r < g.DataRows(); r++ {
					got, _ := from.PeekRow(PhysAddr{Row: D(r)})
					want, _ := staged.PeekRow(PhysAddr{Row: D(r)})
					if !slices.Equal(got, want) {
						t.Fatalf("%s: row D%d differs from the staged block", name, r)
					}
				}
				weak := from.Bank(0).Subarray(0).weakBuf
				if !slices.Equal(weak, staged.Bank(0).Subarray(0).weakBuf) {
					t.Fatalf("%s: weak-bit mask differs from the staged block's", name)
				}
				if nonzero := slices.ContainsFunc(weak, func(v uint64) bool { return v != 0 }); nonzero != (c == 2) {
					t.Fatalf("%s: c=%d but weak-bit mask nonzero=%v", name, c, nonzero)
				}
				got, _ := from.PeekRow(PhysAddr{Row: D(dst)})
				if injected {
					for i, m := range stubs[0].maj {
						wantMaj[i] ^= m
					}
					if !slices.Equal(stubs[0].weak, stubs[1].weak) || !slices.Equal(stubs[0].majCtxs, stubs[1].majCtxs) {
						t.Fatalf("%s: injector saw weak %x ctx %+v, staged %x ctx %+v", name,
							stubs[0].weak, stubs[0].majCtxs, stubs[1].weak, stubs[1].majCtxs)
					}
					if want := (FaultContext{Row: dst, K: w}); len(stubs[0].majCtxs) != 1 || stubs[0].majCtxs[0] != want {
						t.Fatalf("%s: injector contexts %+v, want one %+v", name, stubs[0].majCtxs, want)
					}
				}
				if !slices.Equal(got, wantMaj) {
					t.Fatalf("%s: dst is not MAJ-%d of the sources", name, k)
				}
				if from.Bank(0).Subarray(0).Activated() {
					t.Fatalf("%s: ActivateManyFrom left the subarray activated", name)
				}
			}
		}
	}
	if shapes != 56 {
		t.Fatalf("covered %d planner shapes, want 56", shapes)
	}
}

// TestActivateManyFromMatchesStaged: ActivateManyFrom accepts only the
// planner's staging shapes, whose latch matches the staged block
// (TestActivateManyFromEveryPlannerShape).  Each malformed case below
// breaks one condition of the shape, the rows or the subarray state.
func TestActivateManyFromMatchesStaged(t *testing.T) {
	d := newTestDevice(t)
	s := d.Bank(0).Subarray(0)
	block := []int{8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23}
	srcs := []int{0, 1, 2}
	if err := s.ActivateManyFrom(srcs, 4, 4, block, 5); err != nil {
		t.Fatalf("well-formed MAJ-3 at w=16 rejected: %v", err)
	}
	for _, bad := range []struct {
		name    string
		srcs    []int
		c, fill int
		block   []int
		dst     int
	}{
		{"even k", []int{0, 1, 2, 3}, 4, 0, block, 5},
		{"one source", []int{0}, 4, 12, block, 5},
		{"odd c", srcs, 3, 6, block[:15], 5},
		{"zero c", srcs, 0, 16, block, 5},
		{"odd fill", []int{0, 1, 2, 3, 4}, 2, 5, block[:15], 5},
		{"negative fill", srcs, 6, -2, block, 5},
		{"c·k + fill short of the block", srcs, 4, 2, block, 5},
		{"c·k + fill past the block", srcs, 4, 6, block, 5},
		{"source inside the block", []int{0, 1, 12}, 4, 4, block, 5},
		{"source out of range", []int{0, 1, d.Geometry().DataRows()}, 4, 4, block, 5},
		{"destination out of range", srcs, 4, 4, block, -1},
		{"duplicate block row", srcs, 4, 4, append(block[:15:15], 8), 5},
		{"non-consecutive block", srcs, 4, 4, append(block[:15:15], 24), 5},
	} {
		if err := s.ActivateManyFrom(bad.srcs, bad.c, bad.fill, bad.block, bad.dst); err == nil {
			t.Errorf("%s accepted", bad.name)
		}
	}
	if err := d.Activate(PhysAddr{Row: D(0)}); err != nil {
		t.Fatal(err)
	}
	if err := s.ActivateManyFrom(srcs, 4, 4, block, 5); err == nil {
		t.Error("ActivateManyFrom accepted on an activated subarray")
	}
}

// pokeRandomRows fills every data row of bank 0, subarray 0 with random
// content.
func pokeRandomRows(t *testing.T, d *Device, rng *rand.Rand) {
	t.Helper()
	g := d.Geometry()
	for r := 0; r < g.DataRows(); r++ {
		if err := d.PokeRow(PhysAddr{Row: D(r)}, randRow(rng, g.WordsPerRow())); err != nil {
			t.Fatal(err)
		}
	}
}

// peekData returns data row r of bank 0, subarray 0.
func peekData(t *testing.T, d *Device, r int) []uint64 {
	t.Helper()
	row, err := d.PeekRow(PhysAddr{Row: D(r)})
	if err != nil {
		t.Fatal(err)
	}
	return row
}

// majPending runs ActivateManyFrom for MAJ-3 of srcs (four copies each, two
// of each control row) over the 16 rows from lo, into dst, and returns the
// majority it must latch.  It peeks the sources first, so they must lie
// outside any pending block.
func majPending(t *testing.T, d *Device, srcs []int, lo, dst int) []uint64 {
	t.Helper()
	var rows [][]uint64
	for _, r := range srcs {
		rows = append(rows, peekData(t, d, r))
	}
	want, _ := naiveMajority(rows, d.Geometry().WordsPerRow())
	block := make([]int, 16)
	for i := range block {
		block[i] = lo + i
	}
	if err := d.Bank(0).Subarray(0).ActivateManyFrom(srcs, 4, 4, block, dst); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestPendingBlockActivateMany: ActivateMany reads its cells past cell's
// pending-block check, so over rows of a pending block it must latch the
// block's value, not what the rows held before.
func TestPendingBlockActivateMany(t *testing.T) {
	d := newTestDevice(t)
	pokeRandomRows(t, d, rand.New(rand.NewSource(1)))
	want := majPending(t, d, []int{0, 1, 2}, 8, 5)
	if _, err := d.Bank(0).ActivateMany(0, []int{9, 12, 20}); err != nil {
		t.Fatal(err)
	}
	buf, err := d.Bank(0).Subarray(0).RowBuffer()
	if err != nil {
		t.Fatal(err)
	}
	d.Bank(0).Precharge()
	if !slices.Equal(buf, want) {
		t.Fatalf("ActivateMany over the pending block latched %x, want the block's value %x", buf, want)
	}
	for r := 8; r < 24; r++ {
		if got := peekData(t, d, r); !slices.Equal(got, want) {
			t.Fatalf("D%d = %x after ActivateMany, want %x", r, got, want)
		}
	}
}

// TestPendingBlockPokeOneRow: writing one row of a pending block writes the
// block out first, so every other row of it still reads the latched value.
func TestPendingBlockPokeOneRow(t *testing.T) {
	d := newTestDevice(t)
	rng := rand.New(rand.NewSource(2))
	pokeRandomRows(t, d, rng)
	want := majPending(t, d, []int{0, 1, 2}, 8, 5)
	poked := randRow(rng, d.Geometry().WordsPerRow())
	if err := d.PokeRow(PhysAddr{Row: D(13)}, poked); err != nil {
		t.Fatal(err)
	}
	for r := 8; r < 24; r++ {
		w := want
		if r == 13 {
			w = poked
		}
		if got := peekData(t, d, r); !slices.Equal(got, w) {
			t.Fatalf("D%d = %x after poking D13, want %x", r, got, w)
		}
	}
	if got := peekData(t, d, 5); !slices.Equal(got, want) {
		t.Fatalf("destination D5 = %x, want %x", got, want)
	}
}

// TestPendingBlockReplacedElsewhere: a pending block is written out before
// an ActivateManyFrom over other rows records its own, whether the two
// blocks overlap or not, and one over the same rows replaces it.
func TestPendingBlockReplacedElsewhere(t *testing.T) {
	d := newTestDevice(t)
	pokeRandomRows(t, d, rand.New(rand.NewSource(3)))
	first := majPending(t, d, []int{0, 1, 2}, 8, 7)   // D8..D23
	second := majPending(t, d, []int{1, 2, 3}, 16, 7) // D16..D31, overlapping
	majPending(t, d, []int{2, 3, 4}, 30, 7)           // D30..D45, overlapping
	last := majPending(t, d, []int{3, 4, 6}, 30, 7)   // the same rows
	for r := 8; r < 46; r++ {
		want := last
		switch {
		case r < 16:
			want = first
		case r < 30:
			want = second
		}
		if got := peekData(t, d, r); !slices.Equal(got, want) {
			t.Fatalf("D%d = %x, want %x", r, got, want)
		}
	}
}

// TestPendingBlockNeighbours: the pending block covers exactly its rows.
// Whether the first access goes to its first or its last row, that row
// reads the latched value, and the rows directly below and above the block
// read what they held before.
func TestPendingBlockNeighbours(t *testing.T) {
	for _, first := range []int{20, 35} {
		d := newTestDevice(t)
		pokeRandomRows(t, d, rand.New(rand.NewSource(4)))
		below, above := peekData(t, d, 19), peekData(t, d, 36)
		want := majPending(t, d, []int{0, 1, 2}, 20, 5)
		if got := peekData(t, d, first); !slices.Equal(got, want) {
			t.Fatalf("first access to D%d read %x, want %x", first, got, want)
		}
		if got := peekData(t, d, 19); !slices.Equal(got, below) {
			t.Fatalf("access to D%d changed D19 below the block to %x, want %x", first, got, below)
		}
		if got := peekData(t, d, 36); !slices.Equal(got, above) {
			t.Fatalf("access to D%d changed D36 above the block to %x, want %x", first, got, above)
		}
		for r := 20; r < 36; r++ {
			if got := peekData(t, d, r); !slices.Equal(got, want) {
				t.Fatalf("D%d = %x, want %x", r, got, want)
			}
		}
	}
}

// recyclingStub is a many-row injector that returns a fresh mask from every
// draw and records the masks handed back to it.
type recyclingStub struct {
	drawn, recycled [][]uint64
}

func (r *recyclingStub) draw(words int) []uint64 {
	m := make([]uint64, words)
	m[0] = 1 << len(r.drawn)
	r.drawn = append(r.drawn, m)
	return m
}

func (r *recyclingStub) TRAFaultMask(_ FaultContext, words int) []uint64 { return r.draw(words) }
func (r *recyclingStub) DCCFaultMask(_ FaultContext, words int) []uint64 { return r.draw(words) }
func (r *recyclingStub) MajFaultMask(_ FaultContext, words int, _ []uint64) []uint64 {
	return r.draw(words)
}
func (r *recyclingStub) RecycleFaultMask(_ FaultContext, m []uint64) {
	r.recycled = append(r.recycled, m)
}

// TestFaultMasksRecycledAfterApply: every drawn mask is handed back exactly
// once, after its activation applied it — a TRA's, a DCC write's and a
// many-row activation's at once, and a mask DrawFaults keeps for a replay
// only when the replayed activation consumes it.
func TestFaultMasksRecycledAfterApply(t *testing.T) {
	d := newTestDevice(t)
	stub := &recyclingStub{}
	d.SetFaultInjector(stub)
	s := d.Bank(0).Subarray(0)
	same := func(a, b []uint64) bool { return &a[0] == &b[0] }

	// B12 raises T0, T1, T2: a TRA draw.  B5 then writes DCC0 through its
	// negation wordline: a DCC draw.
	if err := d.Activate(PhysAddr{Row: B(12)}); err != nil {
		t.Fatal(err)
	}
	if len(stub.recycled) != 1 || !same(stub.recycled[0], stub.drawn[0]) {
		t.Fatalf("after a TRA: recycled %d masks, want the TRA's", len(stub.recycled))
	}
	if err := d.Activate(PhysAddr{Row: B(5)}); err != nil {
		t.Fatal(err)
	}
	d.Bank(0).Precharge()
	if len(stub.recycled) != 2 || !same(stub.recycled[1], stub.drawn[1]) {
		t.Fatalf("after a DCC write: recycled %d masks, want the DCC's", len(stub.recycled))
	}
	if got := s.PeekWordline(Wordline{Kind: WLT, Index: 0}); got[0] != 1 {
		t.Fatalf("T0 = %#x after the TRA, want its mask 0x1", got[0])
	}
	if err := s.ActivateManyFrom([]int{0, 1, 2}, 4, 4, []int{8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23}, 5); err != nil {
		t.Fatal(err)
	}
	if len(stub.recycled) != 3 || !same(stub.recycled[2], stub.drawn[2]) {
		t.Fatalf("after a many-row activation: recycled %d masks, want its mask", len(stub.recycled))
	}

	var masks [][]uint64
	if !s.DrawFaults([]FaultEvent{FaultTRA, FaultDCC}, &masks) {
		t.Fatal("DrawFaults reported no fired mask")
	}
	if len(stub.recycled) != 3 {
		t.Fatalf("DrawFaults recycled %d masks before the replay", len(stub.recycled)-3)
	}
	if err := d.Activate(PhysAddr{Row: B(12)}); err != nil {
		t.Fatal(err)
	}
	if len(stub.recycled) != 4 || !same(stub.recycled[3], masks[0]) {
		t.Fatal("the replayed TRA did not hand back its predrawn mask alone")
	}
	if err := d.Activate(PhysAddr{Row: B(5)}); err != nil {
		t.Fatal(err)
	}
	d.Bank(0).Precharge()
	s.EndReplay()
	if len(stub.recycled) != 5 || !same(stub.recycled[4], masks[1]) {
		t.Fatal("the replayed DCC write did not hand back its predrawn mask")
	}
}

// BenchmarkActivateManyFrom measures the net-effect MAJ-X step on 8 KB
// rows: MAJ-3 at width 16 (four copies per source, two of each control
// row), MAJ-5 and MAJ-7 at width 16 (two copies per source, the weak-mask
// path) and MAJ-9 at width 32 (two copies, fourteen fill rows).
func BenchmarkActivateManyFrom(b *testing.B) {
	for _, tc := range []struct{ k, w int }{{3, 16}, {5, 16}, {7, 16}, {9, 32}} {
		b.Run(fmt.Sprintf("maj%d", tc.k), func(b *testing.B) {
			g := Geometry{Banks: 1, SubarraysPerBank: 1, RowsPerSubarray: 96, RowSizeBytes: 8192}
			s := NewSubarray(g)
			rng := rand.New(rand.NewSource(1))
			c, fill, _ := majShape(tc.k, tc.w)
			srcs := make([]int, tc.k)
			for i := range srcs {
				srcs[i] = i
				row := s.cell(Wordline{Kind: WLData, Index: i})
				for j := range row {
					row[j] = rng.Uint64()
				}
			}
			block := make([]int, tc.w)
			for i := range block {
				block[i] = 20 + i
			}
			b.SetBytes(int64(g.RowSizeBytes))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.ActivateManyFrom(srcs, c, fill, block, 16); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
