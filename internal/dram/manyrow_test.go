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

// TestActivateManyFromMatchesStaged: evaluating a many-row block from its
// distinct inputs, each counted with its multiplicity, leaves every row
// and the row buffer as staging the copies and activating the block (then
// copying into dst) does, and hands the injector the same weak-bit mask,
// at widths whose counts reach the minimum margin, on rows of one full
// counting chunk plus a partial one.
func TestActivateManyFromMatchesStaged(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	g := Geometry{Banks: 1, SubarraysPerBank: 1, RowsPerSubarray: 64, RowSizeBytes: 8 * (countChunk + 6)}
	for _, tc := range []struct{ k, c, fill int }{{3, 4, 4}, {5, 2, 6}, {7, 2, 2}, {3, 8, 8}, {5, 6, 2}} {
		w := tc.k*tc.c + tc.fill
		var stubs [2]*manyRowStub
		var devs [2]*Device
		for i := range devs {
			d, err := NewDevice(Config{Geometry: g, Timing: DDR3_1600()})
			if err != nil {
				t.Fatal(err)
			}
			devs[i] = d
			stubs[i] = &manyRowStub{maj: make([]uint64, 3)}
			stubs[i].maj[1] = 0b1001
			devs[i].SetFaultInjector(stubs[i])
		}
		words := devs[0].Geometry().WordsPerRow()
		base, dst := devs[0].Geometry().DataRows()-w, tc.k
		var in []ManyRowInput
		for r := 0; r < tc.k; r++ {
			row := randRow(rng, words)
			for _, d := range devs {
				if err := d.PokeRow(PhysAddr{Row: D(r)}, row); err != nil {
					t.Fatal(err)
				}
			}
			in = append(in, ManyRowInput{Wordline: Wordline{Kind: WLData, Index: r}, Copies: tc.c})
		}
		in = append(in, ManyRowInput{Wordline: Wordline{Kind: WLC, Index: 0}, Copies: tc.fill / 2},
			ManyRowInput{Wordline: Wordline{Kind: WLC, Index: 1}, Copies: tc.fill / 2})
		block := make([]int, w)
		next := base
		for i := range block {
			block[i] = base + i
		}
		// Staged reference: copy each input into its block rows.
		staged, sa := devs[1], devs[1].Bank(0).Subarray(0)
		for _, x := range in {
			src := sa.PeekWordline(x.Wordline)
			for j := 0; j < x.Copies; j++ {
				if err := staged.PokeRow(PhysAddr{Row: D(next)}, src); err != nil {
					t.Fatal(err)
				}
				next++
			}
		}
		// The word-by-word reference over the staged block.
		var blockRows [][]uint64
		for _, r := range block {
			row, _ := staged.PeekRow(PhysAddr{Row: D(r)})
			blockRows = append(blockRows, row)
		}
		wantMaj, counts := naiveMajority(blockRows, words)
		for i, m := range stubs[0].maj {
			wantMaj[i] ^= m
		}
		for _, d := range devs {
			d.BeginTrain(0, 0, dst)
		}
		if _, err := staged.Bank(0).ActivateMany(0, block); err != nil {
			t.Fatal(err)
		}
		if err := staged.Activate(PhysAddr{Row: D(dst)}); err != nil {
			t.Fatal(err)
		}
		staged.Bank(0).Precharge()
		if err := devs[0].Bank(0).Subarray(0).ActivateManyFrom(in, block, dst); err != nil {
			t.Fatal(err)
		}
		for r := 0; r < devs[0].Geometry().DataRows(); r++ {
			got, _ := devs[0].PeekRow(PhysAddr{Row: D(r)})
			want, _ := staged.PeekRow(PhysAddr{Row: D(r)})
			if !slices.Equal(got, want) {
				t.Fatalf("k=%d c=%d: row D%d differs from the staged block", tc.k, tc.c, r)
			}
		}
		if !slices.Equal(stubs[0].weak, stubs[1].weak) || !slices.Equal(stubs[0].majCtxs, stubs[1].majCtxs) {
			t.Fatalf("k=%d c=%d: injector saw weak %x ctx %+v, staged %x ctx %+v", tc.k, tc.c,
				stubs[0].weak, stubs[0].majCtxs, stubs[1].weak, stubs[1].majCtxs)
		}
		if got, _ := devs[0].PeekRow(PhysAddr{Row: D(dst)}); !slices.Equal(got, wantMaj) {
			t.Fatalf("k=%d c=%d: dst is not the majority of the staged block", tc.k, tc.c)
		}
		for i := 0; i < words; i++ {
			var want uint64
			for bit := 0; bit < 64; bit++ {
				if c := counts[i][bit]; 2*c == w-2 || 2*c == w+2 {
					want |= 1 << uint(bit)
				}
			}
			if stubs[0].weak[i] != want {
				t.Fatalf("k=%d c=%d: weak word %d = %016x, want %016x", tc.k, tc.c, i, stubs[0].weak[i], want)
			}
		}
		if tc.c == 2 && !slices.ContainsFunc(stubs[0].weak, func(v uint64) bool { return v != 0 }) {
			t.Fatalf("k=%d c=%d: empty weak mask", tc.k, tc.c)
		}
		if devs[0].Bank(0).Subarray(0).Activated() {
			t.Fatal("ActivateManyFrom left the subarray activated")
		}
	}

	s := newTestDevice(t).Bank(0).Subarray(0)
	x := Wordline{Kind: WLData, Index: 0}
	for _, bad := range []struct {
		name  string
		in    []ManyRowInput
		block []int
		dst   int
	}{
		{"copies short of the block", []ManyRowInput{{x, 2}}, []int{4, 5, 6, 7}, 1},
		{"input inside the block", []ManyRowInput{{x, 2}, {Wordline{Kind: WLData, Index: 4}, 2}}, []int{4, 5, 6, 7}, 1},
		{"negated input", []ManyRowInput{{x, 2}, {Wordline{Kind: WLDCCNeg, Index: 0}, 2}}, []int{4, 5, 6, 7}, 1},
		{"destination out of range", []ManyRowInput{{x, 4}}, []int{4, 5, 6, 7}, -1},
		{"tie", []ManyRowInput{{x, 2}, {Wordline{Kind: WLC, Index: 0}, 2}}, []int{4, 5, 6, 7}, 1},
	} {
		if bad.name == "tie" {
			if err := s.PokeRow(D(0), []uint64{1, 0, 0, 0, 0, 0, 0, 0}[:s.geom.WordsPerRow()]); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.ActivateManyFrom(bad.in, bad.block, bad.dst); err == nil {
			t.Errorf("%s accepted", bad.name)
		}
	}
}

// BenchmarkActivateManyFrom measures the net-effect MAJ-X step on 8 KB
// rows: MAJ-3 at width 16 (four copies per source, two of each control row)
// and MAJ-5 (two copies per source, three of each control row).
func BenchmarkActivateManyFrom(b *testing.B) {
	for _, k := range []int{3, 5} {
		b.Run(fmt.Sprintf("maj%d", k), func(b *testing.B) {
			g := Geometry{Banks: 1, SubarraysPerBank: 1, RowsPerSubarray: 64, RowSizeBytes: 8192}
			s := NewSubarray(g)
			rng := rand.New(rand.NewSource(1))
			c, fill := 16/k&^1, 16-16/k&^1*k
			var in []ManyRowInput
			for i := 0; i < k; i++ {
				row := s.cell(Wordline{Kind: WLData, Index: i})
				for j := range row {
					row[j] = rng.Uint64()
				}
				in = append(in, ManyRowInput{Wordline: Wordline{Kind: WLData, Index: i}, Copies: c})
			}
			in = append(in, ManyRowInput{Wordline: Wordline{Kind: WLC, Index: 0}, Copies: fill / 2},
				ManyRowInput{Wordline: Wordline{Kind: WLC, Index: 1}, Copies: fill / 2})
			block := make([]int, 16)
			for i := range block {
				block[i] = 24 + i
			}
			b.SetBytes(int64(g.RowSizeBytes))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.ActivateManyFrom(in, block, 20); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
