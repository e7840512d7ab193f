package controller

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"ambit/internal/dram"
	"ambit/internal/obs"
)

// TestPlanMaj pins the replication plan: c is the largest even per-operand
// replica count fitting the width, fill balances the remainder, and every
// invalid (k, w) pair is rejected.
func TestPlanMaj(t *testing.T) {
	cases := []struct {
		k, w    int
		c, fill int
		ok      bool
	}{
		{3, 16, 4, 4, true},
		{3, 32, 10, 2, true},
		{5, 16, 2, 6, true},
		{5, 32, 6, 2, true},
		{7, 16, 2, 2, true},
		{7, 32, 4, 4, true},
		{9, 32, 2, 14, true},
		{15, 32, 2, 2, true},
		{3, 8, 2, 2, true},
		{9, 16, 0, 0, false},  // needs >= 18 rows
		{15, 16, 0, 0, false}, // needs >= 30 rows
		{2, 16, 0, 0, false},  // even k
		{1, 16, 0, 0, false},  // k < 3
		{-3, 16, 0, 0, false},
		{3, 15, 0, 0, false}, // odd width
		{3, 2, 0, 0, false},  // width < 4
		{3, 34, 0, 0, false}, // width > MaxSimultaneousWordlines
	}
	for _, tc := range cases {
		c, fill, err := PlanMaj(tc.k, tc.w)
		if tc.ok != (err == nil) {
			t.Errorf("PlanMaj(%d, %d): err = %v, want ok=%v", tc.k, tc.w, err, tc.ok)
			continue
		}
		if !tc.ok {
			continue
		}
		if c != tc.c || fill != tc.fill {
			t.Errorf("PlanMaj(%d, %d) = (%d, %d), want (%d, %d)", tc.k, tc.w, c, fill, tc.c, tc.fill)
		}
		// Structural invariants: even replicas, exact width, balanced fill.
		if c%2 != 0 || fill%2 != 0 || c*tc.k+fill != tc.w {
			t.Errorf("PlanMaj(%d, %d) = (%d, %d): plan does not tile the width evenly", tc.k, tc.w, c, fill)
		}
	}
}

// softwareMajority is the word-wise oracle for an odd number of operands.
func softwareMajority(rows [][]uint64, words int) []uint64 {
	out := make([]uint64, words)
	for i := 0; i < words; i++ {
		for bit := 0; bit < 64; bit++ {
			c := 0
			for _, r := range rows {
				if r[i]>>uint(bit)&1 == 1 {
					c++
				}
			}
			if 2*c > len(rows) {
				out[i] |= 1 << uint(bit)
			}
		}
	}
	return out
}

// TestExecuteMajFunctional: the many-row train computes the exact k-input
// majority for every supported k at both widths, leaves the sources intact,
// and books the expected stats and latency.
func TestExecuteMajFunctional(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	words := testGeom().WordsPerRow()
	// k=11 is the widest that fits: a 32-row staging block leaves 14 data
	// rows in the 46-row test geometry (11 operands + 1 destination).
	for _, tc := range []struct{ k, w int }{{3, 16}, {5, 16}, {7, 16}, {3, 32}, {9, 32}, {11, 32}} {
		c := testController(t)
		scratchBase := c.Device().Geometry().DataRows() - tc.w
		data := make([][]uint64, tc.k)
		srcs := make([]dram.RowAddr, tc.k)
		for i := 0; i < tc.k; i++ {
			data[i] = randRow(rng, words)
			srcs[i] = dram.D(i + 1)
			pokeRow(t, c, 0, 0, srcs[i], data[i])
		}
		lat, err := c.ExecuteMaj(0, 0, dram.D(0), srcs, scratchBase, tc.w)
		if err != nil {
			t.Fatalf("MAJ-%d w=%d: %v", tc.k, tc.w, err)
		}
		want := softwareMajority(data, words)
		got := peekRow(t, c, 0, 0, dram.D(0))
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("MAJ-%d w=%d: word %d = %016x, want %016x", tc.k, tc.w, i, got[i], want[i])
			}
		}
		for i, s := range srcs {
			if got := peekRow(t, c, 0, 0, s); !equalWords(got, data[i]) {
				t.Fatalf("MAJ-%d w=%d: source %v clobbered", tc.k, tc.w, s)
			}
		}
		if st := c.Stats(); st.Majs != 1 || st.AAPs != int64(tc.w) {
			t.Fatalf("MAJ-%d w=%d: stats = %+v, want 1 maj and %d AAPs", tc.k, tc.w, st, tc.w)
		}
		if want := c.MajLatencyNS(tc.w); math.Abs(lat-want) > 1e-9 {
			t.Fatalf("MAJ-%d w=%d: latency %v, want MajLatencyNS's %v", tc.k, tc.w, lat, want)
		}
	}
}

func equalWords(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestExecuteMajDestAliasesSource: dk may be one of the operands — staging
// reads all sources before dk is overwritten.
func TestExecuteMajDestAliasesSource(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	words := testGeom().WordsPerRow()
	c := testController(t)
	scratchBase := c.Device().Geometry().DataRows() - 16
	data := make([][]uint64, 3)
	srcs := []dram.RowAddr{dram.D(0), dram.D(1), dram.D(2)}
	for i := range srcs {
		data[i] = randRow(rng, words)
		pokeRow(t, c, 0, 0, srcs[i], data[i])
	}
	if _, err := c.ExecuteMaj(0, 0, dram.D(0), srcs, scratchBase, 16); err != nil {
		t.Fatal(err)
	}
	if got := peekRow(t, c, 0, 0, dram.D(0)); !equalWords(got, softwareMajority(data, words)) {
		t.Fatal("aliased MAJ-3 result is not the majority of the pre-call operands")
	}
}

// TestExecuteMajRejections: every operand-validation branch fires before any
// command is issued (stats stay zero).
func TestExecuteMajRejections(t *testing.T) {
	c := testController(t)
	dataRows := c.Device().Geometry().DataRows()
	base := dataRows - 16
	d3 := []dram.RowAddr{dram.D(0), dram.D(1), dram.D(2)}
	cases := []struct {
		name string
		run  func() error
		want string
	}{
		{"even operand count", func() error {
			_, err := c.ExecuteMaj(0, 0, dram.D(4), []dram.RowAddr{dram.D(0), dram.D(1)}, base, 16)
			return err
		}, "odd"},
		{"control-row destination", func() error {
			_, err := c.ExecuteMaj(0, 0, dram.C(0), d3, base, 16)
			return err
		}, "not a data row"},
		{"control-row operand", func() error {
			_, err := c.ExecuteMaj(0, 0, dram.D(4), []dram.RowAddr{dram.D(0), dram.D(1), dram.B(0)}, base, 16)
			return err
		}, "not a data row"},
		{"duplicate operand", func() error {
			_, err := c.ExecuteMaj(0, 0, dram.D(4), []dram.RowAddr{dram.D(0), dram.D(1), dram.D(0)}, base, 16)
			return err
		}, "duplicate"},
		{"staging out of range", func() error {
			_, err := c.ExecuteMaj(0, 0, dram.D(4), d3, dataRows-8, 16)
			return err
		}, "outside data rows"},
		{"negative staging base", func() error {
			_, err := c.ExecuteMaj(0, 0, dram.D(4), d3, -1, 16)
			return err
		}, "outside data rows"},
		{"destination in staging block", func() error {
			_, err := c.ExecuteMaj(0, 0, dram.D(base), d3, base, 16)
			return err
		}, "inside staging block"},
		{"operand in staging block", func() error {
			_, err := c.ExecuteMaj(0, 0, dram.D(4), []dram.RowAddr{dram.D(0), dram.D(1), dram.D(base + 2)}, base, 16)
			return err
		}, "inside staging block"},
		{"bad width", func() error {
			_, err := c.ExecuteMaj(0, 0, dram.D(4), d3, base, 15)
			return err
		}, "even"},
	}
	for _, tc := range cases {
		err := tc.run()
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
	if st := c.Stats(); st.Majs != 0 || st.AAPs != 0 {
		t.Fatalf("rejected calls issued commands: %+v", st)
	}
}

// TestExecuteMajTraced: a traced train ends with a MAJ command event whose
// comment names the plan.
func TestExecuteMajTraced(t *testing.T) {
	c := testController(t)
	sink := obs.NewLastN(64)
	c.SetTracer(obs.NewTracer(sink), func(kind StepKind, a1, a2 dram.RowAddr) float64 { return 2.5 })
	scratchBase := c.Device().Geometry().DataRows() - 16
	if _, err := c.ExecuteMaj(0, 0, dram.D(0), []dram.RowAddr{dram.D(1), dram.D(2), dram.D(3)}, scratchBase, 16); err != nil {
		t.Fatal(err)
	}
	events := sink.Events()
	if len(events) == 0 {
		t.Fatal("no events traced")
	}
	last := events[len(events)-1]
	if last.Name != "MAJ" {
		t.Fatalf("last traced command is %q, want MAJ", last.Name)
	}
	aaps := 0
	for _, e := range events {
		if e.Name == "AAP" {
			aaps++
		}
	}
	if aaps != 16 {
		t.Fatalf("traced %d staging AAPs, want 16", aaps)
	}
	// 16 rows / 3 inputs: 4 replicas each, then 2 zero and 2 one fill rows.
	if got, want := events[5].Comment, "stage replica 1 of operand 1"; got != want {
		t.Errorf("staging comment = %q, want %q", got, want)
	}
	if got, want := events[13].Comment, "stage balanced fill (zeros)"; got != want {
		t.Errorf("fill comment = %q, want %q", got, want)
	}
}
