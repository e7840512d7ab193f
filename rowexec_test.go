package ambit

// Contracts of the row executor that direct ops and Batch.Run share: what a
// failed Batch leaves behind, fusion inside a single caller stream, the
// exact bytes of traced Batch programs, and the coherence charge of every
// primitive on both routes.

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ambit/internal/controller"
)

// TestBatchFailureContract pins what a failed Batch leaves behind, at 1 and
// 8 workers.  Run reports the failure earliest in recording order, naming
// the op and its row.  The clock and every counter but UncorrectableRows
// keep their pre-Run values, BankBusyNS included; a pending popcount stays
// unavailable; and the partially executed contents do not depend on the
// worker count.
func TestBatchFailureContract(t *testing.T) {
	run := func(workers int) [][]uint64 {
		sys, a, b, d := armUncorrectable(t, workers)
		c := sys.MustAlloc(a.Len())
		bt := sys.NewBatch()
		if err := bt.Copy(c, a); err != nil {
			t.Fatal(err)
		}
		if err := bt.And(d, c, b); err != nil { // fails at row 2 under ECC
			t.Fatal(err)
		}
		pc, err := bt.Popcount(d)
		if err != nil {
			t.Fatal(err)
		}
		before := sys.Stats()
		_, err = bt.Run()
		if !errors.Is(err, ErrUncorrectable) || !strings.HasPrefix(err.Error(), "ambit: batch and row 2: ") {
			t.Fatalf("workers=%d: Run error = %v, want ErrUncorrectable as \"ambit: batch and row 2: ...\"", workers, err)
		}
		want := before
		want.UncorrectableRows++
		if got := sys.Stats(); !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: Stats after the failed Run\n got %+v\nwant %+v", workers, got, want)
		}
		if _, err := pc.Value(); err == nil {
			t.Errorf("workers=%d: PopcountResult.Value succeeded after a failed Run", workers)
		}
		var data [][]uint64
		for _, v := range []*Bitvector{c, d} {
			words, err := v.Read(Backdoor())
			if err != nil {
				t.Fatal(err)
			}
			data = append(data, words)
		}
		return data
	}
	if one, eight := run(1), run(8); !reflect.DeepEqual(one, eight) {
		t.Error("contents after the failed Run differ between 1 and 8 workers")
	}
}

// TestBatchSingleStreamFusion: a program with a cross-bank Copy runs all of
// its items as one stream on the calling goroutine, so consecutive rows of
// one bulk op in that stream sit on different banks.  Each fused pass may
// take only one bank's rows: the multi-bank And after the copy must equal
// a&b in every word.
func TestBatchSingleStreamFusion(t *testing.T) {
	sys, err := New()
	if err != nil {
		t.Fatal(err)
	}
	bits := 3 * int64(sys.RowSizeBits())
	alloc := func(base int) *Bitvector {
		v, err := sys.AllocAt(bits, base)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	a, b, d, x := alloc(0), alloc(0), alloc(0), alloc(1)
	if d.Row(0).Bank == d.Row(1).Bank {
		t.Fatalf("rows 0 and 1 share bank %d; the And must span banks", d.Row(0).Bank)
	}
	for r := 0; r < 3; r++ {
		if x.Row(r).Bank == a.Row(r).Bank {
			t.Fatalf("copy row %d stays on bank %d; the Copy must cross banks", r, a.Row(r).Bank)
		}
	}
	rng := rand.New(rand.NewSource(29))
	wa, wb := loadRand(t, rng, a), loadRand(t, rng, b)
	bt := sys.NewBatch()
	if err := bt.Copy(x, a); err != nil {
		t.Fatal(err)
	}
	if err := bt.And(d, a, b); err != nil {
		t.Fatal(err)
	}
	if _, err := bt.Run(); err != nil {
		t.Fatal(err)
	}
	gd, err := d.Read(Backdoor())
	if err != nil {
		t.Fatal(err)
	}
	gx, err := x.Read(Backdoor())
	if err != nil {
		t.Fatal(err)
	}
	for i := range wa {
		if gd[i] != wa[i]&wb[i] {
			t.Fatalf("And word %d = %#x, want %#x", i, gd[i], wa[i]&wb[i])
		}
		if gx[i] != wa[i] {
			t.Fatalf("Copy word %d = %#x, want %#x", i, gx[i], wa[i])
		}
	}
}

// tracedBatchGolden is the pinned JSONL trace of one traced Batch program.
type tracedBatchGolden struct {
	Digest string `json:"digest"`
	Bytes  int    `json:"bytes"`
}

// TestTracedBatchGolden pins the JSONL trace of every tracedBatchPrograms
// program, run as one traced Batch at 1 and 8 workers, to a digest in
// testdata.  TestTracedBatchDeterministic compares worker counts with each
// other, so it cannot see a change that moves every run's bytes alike.  Run
// with -update to rewrite testdata/traced_batch_digests.json after an
// intentional change.
func TestTracedBatchGolden(t *testing.T) {
	got := map[string]tracedBatchGolden{}
	for _, p := range tracedBatchPrograms {
		for _, workers := range []int{1, 8} {
			trace, _ := runTracedProgram(t, p, workers, true, true)
			h := fnv.New64a()
			h.Write(trace)
			g := tracedBatchGolden{Digest: fmt.Sprintf("%016x", h.Sum64()), Bytes: len(trace)}
			if prev, ok := got[p.name]; ok && prev != g {
				t.Errorf("%s: workers=%d trace %+v differs from workers=1 %+v", p.name, workers, g, prev)
			}
			got[p.name] = g
		}
	}
	path := filepath.Join("testdata", "traced_batch_digests.json")
	if *updateGolden {
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test -run TestTracedBatchGolden -update` to create)", err)
	}
	var want map[string]tracedBatchGolden
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	for _, p := range tracedBatchPrograms {
		if got[p.name] != want[p.name] {
			t.Errorf("%s: trace %+v, golden %+v", p.name, got[p.name], want[p.name])
		}
	}
}

// TestCoherencePerKind pins the coherence charge of every primitive on both
// routes (DESIGN.md §5b): each op adds its rows times its per-row count
// times the per-row rate to CoherenceNS.  The per-row counts are the
// sources of a bulk op (InputRows), 2 for Copy, 1 for Fill, the inputs of
// a compiled function, k+1 for a k-source Maj, and 0 for a Batch popcount.
func TestCoherencePerKind(t *testing.T) {
	const rate, rows = 100, 3
	sys, err := New(WithCoherenceNSPerRow(rate), WithManyRowMaj(5))
	if err != nil {
		t.Fatal(err)
	}
	bits := rows * int64(sys.RowSizeBits())
	v := make([]*Bitvector, 6)
	for i := range v {
		v[i] = sys.MustAlloc(bits)
	}
	a, b, c, e, f, d := v[0], v[1], v[2], v[3], v[4], v[5]
	and3, err := sys.Compile("and3", And(Var(0), Var(1), Var(2)))
	if err != nil {
		t.Fatal(err)
	}
	batch := func(record func(bt *Batch) error) func() error {
		return func() error {
			bt := sys.NewBatch()
			if err := record(bt); err != nil {
				return err
			}
			_, err := bt.Run()
			return err
		}
	}
	cases := []struct {
		name   string
		perRow int
		run    func() error
	}{
		{"And", controller.OpAnd.InputRows(), func() error { return sys.And(d, a, b) }},
		{"Not", controller.OpNot.InputRows(), func() error { return sys.Not(d, a) }},
		{"Copy", 2, func() error { return sys.Copy(d, a) }},
		{"Fill", 1, func() error { return sys.Fill(d, true) }},
		{"Func.Run", and3.NumInputs(), func() error { return and3.Run(d, a, b, c) }},
		{"Maj3", 3 + 1, func() error { return sys.Maj(d, a, b, c) }},
		{"Maj5", 5 + 1, func() error { return sys.Maj(d, a, b, c, e, f) }},
		{"Batch.And", controller.OpAnd.InputRows(), batch(func(bt *Batch) error { return bt.And(d, a, b) })},
		{"Batch.Copy", 2, batch(func(bt *Batch) error { return bt.Copy(d, a) })},
		{"Batch.Fill", 1, batch(func(bt *Batch) error { return bt.Fill(d, false) })},
		{"Batch.Call", and3.NumInputs(), batch(func(bt *Batch) error { return bt.Call(and3, []*Bitvector{d}, a, b, c) })},
		{"Batch.Popcount", 0, batch(func(bt *Batch) error { _, err := bt.Popcount(a); return err })},
	}
	for _, tc := range cases {
		before := sys.Stats().CoherenceNS
		if err := tc.run(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got, want := sys.Stats().CoherenceNS-before, float64(tc.perRow*rows*rate); got != want {
			t.Errorf("%s: CoherenceNS += %v, want %v (%d rows x %d per row x %d ns)", tc.name, got, want, rows, tc.perRow, rate)
		}
	}
}
