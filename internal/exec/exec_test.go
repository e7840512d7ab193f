package exec

import (
	"errors"
	"reflect"
	"sync"
	"testing"

	"ambit/internal/dram"
)

// addrsByBank returns rows addresses with row i on bank bankOf(i).
func addrsByBank(rows int, bankOf func(i int) int) []dram.PhysAddr {
	addrs := make([]dram.PhysAddr, rows)
	for i := range addrs {
		addrs[i].Bank = bankOf(i)
	}
	return addrs
}

// recordRunner is a test GroupRunner: row i of bank b ends at b*1000+i,
// rows listed in fail return err, and every call and completed row is
// recorded.
type recordRunner struct {
	fail  map[int]bool
	err   error
	mu    sync.Mutex
	calls []Group
	ran   map[int]bool
}

func (r *recordRunner) RunGroup(bank int, rows []int) GroupResult {
	res := GroupResult{ErrRow: -1}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.calls = append(r.calls, Group{Bank: bank, Rows: append([]int(nil), rows...)})
	for _, row := range rows {
		if r.fail[row] {
			res.Err, res.ErrRow = r.err, row
			return res
		}
		r.ran[row] = true
		res.Completed++
		res.EndNS = max(res.EndNS, float64(bank*1000+row))
	}
	return res
}

func runPlan(e *Engine, addrs []dram.PhysAddr, r *recordRunner) Result {
	r.ran = map[int]bool{}
	r.calls = nil
	p := e.PlanAddrs(addrs)
	defer p.Release()
	return e.RunPlan(p, r)
}

// TestGroupByBank checks PlanAddrs' partition: groups in ascending bank
// order, rows ascending within a group, the bank set Banks reports, and —
// with one worker — RunPlan visiting the groups in that order.
func TestGroupByBank(t *testing.T) {
	// 10 rows over banks 0..3 of 6, row i -> bank i%4.
	e := New(6, 1)
	p := e.PlanAddrs(addrsByBank(10, func(i int) int { return i % 4 }))
	want := []Group{
		{Bank: 0, Rows: []int{0, 4, 8}},
		{Bank: 1, Rows: []int{1, 5, 9}},
		{Bank: 2, Rows: []int{2, 6}},
		{Bank: 3, Rows: []int{3, 7}},
	}
	if !reflect.DeepEqual(p.groups, want) {
		t.Fatalf("groups = %+v, want %+v", p.groups, want)
	}
	if got := p.Banks(); !reflect.DeepEqual(got, []int{0, 1, 2, 3}) {
		t.Fatalf("banks = %v", got)
	}
	r := &recordRunner{ran: map[int]bool{}}
	e.RunPlan(p, r)
	if !reflect.DeepEqual(r.calls, want) {
		t.Fatalf("RunGroup calls = %+v, want %+v", r.calls, want)
	}
	p.Release()

	empty := e.PlanAddrs(nil)
	if len(empty.groups) != 0 || len(empty.Banks()) != 0 {
		t.Fatal("empty plan should have no groups")
	}
	if res := e.RunPlan(empty, r); res != (Result{ErrRow: -1}) {
		t.Fatalf("empty RunPlan = %+v", res)
	}
	empty.Release()
}

// TestPlanStream checks the single-stream plan: one bankless group holding
// every row in ascending order, no banks to lock, and — however many
// workers the engine has — one RunGroup call, with the usual merge.
func TestPlanStream(t *testing.T) {
	e := New(4, 8)
	p := e.PlanStream(5)
	if len(p.Banks()) != 0 {
		t.Fatalf("banks = %v, want none", p.Banks())
	}
	r := &recordRunner{ran: map[int]bool{}, fail: map[int]bool{3: true}, err: errors.New("boom")}
	res := e.RunPlan(p, r)
	p.Release()
	if want := []Group{{Bank: -1, Rows: []int{0, 1, 2, 3, 4}}}; !reflect.DeepEqual(r.calls, want) {
		t.Fatalf("RunGroup calls = %+v, want %+v", r.calls, want)
	}
	if res.Completed != 3 || res.ErrRow != 3 || res.Err == nil {
		t.Fatalf("RunPlan = %+v, want rows 0-2 completed, failure at row 3", res)
	}
}

// TestRunMatchesSequential checks the parallel merge against a sequential
// fold for several worker counts.
func TestRunMatchesSequential(t *testing.T) {
	addrs := addrsByBank(64, func(i int) int { return i % 8 })
	want := runPlan(New(8, 1), addrs, &recordRunner{})
	for _, w := range []int{2, 4, 16} {
		got := runPlan(New(8, w), addrs, &recordRunner{})
		if got != want {
			t.Fatalf("workers=%d: %+v != %+v", w, got, want)
		}
	}
	if want.Completed != 64 || want.Err != nil || want.ErrRow != -1 {
		t.Fatalf("unexpected sequential result %+v", want)
	}
	if want.EndNS != 7063 { // bank 7, row 63
		t.Fatalf("EndNS = %v", want.EndNS)
	}
}

// TestRunErrorStopsGroupPrefix checks per-bank prefix semantics: the failing
// bank stops at its failing row, other banks complete, and the reported
// error is the lowest-indexed failure.
func TestRunErrorStopsGroupPrefix(t *testing.T) {
	boom := errors.New("boom")
	addrs := addrsByBank(16, func(i int) int { return i % 4 })
	for _, w := range []int{1, 4} {
		r := &recordRunner{fail: map[int]bool{9: true, 6: true}, err: boom} // banks 1 and 2
		res := runPlan(New(4, w), addrs, r)
		if !errors.Is(res.Err, boom) || res.ErrRow != 6 {
			t.Fatalf("workers=%d: err=%v row=%d, want boom at 6", w, res.Err, res.ErrRow)
		}
		// Bank 2 ran {2}, bank 1 ran {1, 5}, banks 0 and 3 ran fully.
		if res.Completed != 1+2+4+4 {
			t.Fatalf("workers=%d: completed=%d", w, res.Completed)
		}
		if r.ran[6] || r.ran[9] || r.ran[10] || r.ran[13] {
			t.Fatalf("workers=%d: rows after failure ran: %v", w, r.ran)
		}
		if res.EndNS != 3015 { // bank 3, row 15
			t.Fatalf("workers=%d: EndNS=%v", w, res.EndNS)
		}
	}
}

// TestLockDisciplines exercises the shard-locking helpers under concurrency.
func TestLockDisciplines(t *testing.T) {
	e := New(8, 4)
	var wg sync.WaitGroup
	counters := make([]int, 8)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			banks := []int{0, 3, 5}
			e.LockBanks(banks)
			for _, b := range banks {
				counters[b]++
			}
			e.UnlockBanks(banks)
		}()
	}
	wg.Wait()
	total := 0
	for _, c := range counters {
		total += c
	}
	if total != 16*3 {
		t.Fatalf("total increments = %d", total)
	}
}

func TestWorkersDefault(t *testing.T) {
	if New(4, 0).Workers() <= 0 {
		t.Fatal("default workers must be positive")
	}
	e := New(4, 7)
	if e.Workers() != 7 {
		t.Fatalf("Workers() = %d", e.Workers())
	}
	e.SetWorkers(2)
	if e.Workers() != 2 {
		t.Fatalf("after SetWorkers: %d", e.Workers())
	}
	e.SetWorkers(0)
	if e.Workers() <= 0 {
		t.Fatal("SetWorkers(0) must reset to a positive default")
	}
}
