package controller

import (
	"errors"
	"math/bits"
	"math/rand"
	"testing"

	"ambit/internal/dram"
)

// majorityVote is a standalone TMR vote for tests (mirrors ecc.VoteRows,
// which this package cannot import).
func majorityVote(dst, r0, r1, r2 []uint64) (int, error) {
	bad := 0
	for i := range r0 {
		maj := r0[i]&r1[i] | r1[i]&r2[i] | r2[i]&r0[i]
		for _, r := range []uint64{r0[i], r1[i], r2[i]} {
			bad += bits.OnesCount64(r ^ maj)
		}
		dst[i] = maj
	}
	return bad, nil
}

func TestReliabilityValidate(t *testing.T) {
	if err := (Reliability{ECC: true, MaxRetries: 4}).Validate(); err != nil {
		t.Fatalf("valid policy rejected: %v", err)
	}
	if err := (Reliability{MaxRetries: -1}).Validate(); err == nil {
		t.Fatal("negative MaxRetries accepted")
	}
	if err := (Reliability{RetryThresholdBits: -1}).Validate(); err == nil {
		t.Fatal("negative RetryThresholdBits accepted")
	}
	if got := (Reliability{}).thresholdBits(8192); got != 512 {
		t.Fatalf("default threshold = %d, want rowBits/16 = 512", got)
	}
	if got := (Reliability{RetryThresholdBits: 7}).thresholdBits(8192); got != 7 {
		t.Fatalf("explicit threshold = %d, want 7", got)
	}
}

// TestReliableFaultFree: on a fault-free device the reliable path computes the
// correct result with no corrections or retries, and its latency covers the
// three replica trains plus three verification reads.
func TestReliableFaultFree(t *testing.T) {
	c := testController(t)
	rng := rand.New(rand.NewSource(1))
	w := testGeom().WordsPerRow()
	di, dj := randRow(rng, w), randRow(rng, w)
	pokeRow(t, c, 0, 0, dram.D(0), di)
	pokeRow(t, c, 0, 0, dram.D(1), dj)

	rr, err := c.ExecuteOpReliable(OpAnd, 0, 0, dram.D(2), dram.D(0), dram.D(1),
		dram.D(10), dram.D(11), Reliability{ECC: true, MaxRetries: 2}, majorityVote)
	if err != nil {
		t.Fatal(err)
	}
	got := peekRow(t, c, 0, 0, dram.D(2))
	for i := range got {
		if got[i] != di[i]&dj[i] {
			t.Fatalf("word %d = %x, want %x", i, got[i], di[i]&dj[i])
		}
	}
	if rr.CorrectedBits != 0 || rr.Retries != 0 || rr.Detected != 0 {
		t.Fatalf("fault-free RowResult = %+v, want no reliability activity", rr)
	}
	want := 3*c.OpLatencyNS(OpAnd) + 3*c.rowAccessNS()
	if rr.LatencyNS != want {
		t.Fatalf("LatencyNS = %v, want 3 trains + 3 reads = %v", rr.LatencyNS, want)
	}
}

// flakyInjector corrupts the TRA result for the first n consultations, then
// behaves; it drives the retry loop deterministically.
type flakyInjector struct {
	remaining int
	mask      []uint64
}

func (f *flakyInjector) TRAFaultMask(ctx dram.FaultContext, words int) []uint64 {
	if f.remaining <= 0 {
		return nil
	}
	f.remaining--
	return f.mask
}

func (f *flakyInjector) DCCFaultMask(ctx dram.FaultContext, words int) []uint64 { return nil }

// grossMask returns a mask wide enough to exceed the default threshold.
func grossMask(words int) []uint64 {
	m := make([]uint64, words)
	for i := range m {
		m[i] = 0xaaaaaaaaaaaaaaaa
	}
	return m
}

// TestReliableRetriesThenSucceeds: a gross fault hitting the first attempt's
// replicas triggers a retry; the second attempt is clean and the result is
// correct, with the retry and detection counted.
func TestReliableRetriesThenSucceeds(t *testing.T) {
	c := testController(t)
	rng := rand.New(rand.NewSource(2))
	w := testGeom().WordsPerRow()
	di, dj := randRow(rng, w), randRow(rng, w)
	pokeRow(t, c, 0, 0, dram.D(0), di)
	pokeRow(t, c, 0, 0, dram.D(1), dj)
	// OpAnd executes one TRA per replica train; corrupt the first two
	// replicas of attempt 0 so the vote sees broad disagreement.
	c.Device().SetFaultInjector(&flakyInjector{remaining: 2, mask: grossMask(w)})

	rr, err := c.ExecuteOpReliable(OpAnd, 0, 0, dram.D(2), dram.D(0), dram.D(1),
		dram.D(10), dram.D(11), Reliability{ECC: true, MaxRetries: 3}, majorityVote)
	if err != nil {
		t.Fatal(err)
	}
	got := peekRow(t, c, 0, 0, dram.D(2))
	for i := range got {
		if got[i] != di[i]&dj[i] {
			t.Fatalf("word %d = %x, want %x after retry", i, got[i], di[i]&dj[i])
		}
	}
	if rr.Retries != 1 || rr.Detected != 1 {
		t.Fatalf("RowResult = %+v, want exactly 1 retry and 1 detection", rr)
	}
	wantLat := 6*c.OpLatencyNS(OpAnd) + 6*c.rowAccessNS()
	if rr.LatencyNS != wantLat {
		t.Fatalf("LatencyNS = %v, want two full attempts = %v", rr.LatencyNS, wantLat)
	}
}

// TestReliableCorrectsSmallFault: a single-replica fault below the threshold
// is majority-corrected and written back, not retried.
func TestReliableCorrectsSmallFault(t *testing.T) {
	c := testController(t)
	rng := rand.New(rand.NewSource(3))
	w := testGeom().WordsPerRow()
	di, dj := randRow(rng, w), randRow(rng, w)
	pokeRow(t, c, 0, 0, dram.D(0), di)
	pokeRow(t, c, 0, 0, dram.D(1), dj)
	small := make([]uint64, w)
	small[0] = 0b101 // 2 flipped bits in one replica
	c.Device().SetFaultInjector(&flakyInjector{remaining: 1, mask: small})

	rr, err := c.ExecuteOpReliable(OpAnd, 0, 0, dram.D(2), dram.D(0), dram.D(1),
		dram.D(10), dram.D(11), Reliability{ECC: true, MaxRetries: 3}, majorityVote)
	if err != nil {
		t.Fatal(err)
	}
	got := peekRow(t, c, 0, 0, dram.D(2))
	for i := range got {
		if got[i] != di[i]&dj[i] {
			t.Fatalf("word %d = %x, want corrected %x", i, got[i], di[i]&dj[i])
		}
	}
	if rr.CorrectedBits != 2 || rr.Retries != 0 || rr.Detected != 1 {
		t.Fatalf("RowResult = %+v, want 2 corrected bits, no retries, 1 detection", rr)
	}
	// One attempt (3 trains + 3 reads) plus the correction write-back.
	wantLat := 3*c.OpLatencyNS(OpAnd) + 4*c.rowAccessNS()
	if rr.LatencyNS != wantLat {
		t.Fatalf("LatencyNS = %v, want attempt + write-back = %v", rr.LatencyNS, wantLat)
	}
}

// alwaysGross corrupts every TRA with a different broad mask per call, so the
// replicas of every attempt disagree widely (identical corruption across all
// three replicas would fool the vote — the fundamental TMR limit).
type alwaysGross struct{ n int }

func (a *alwaysGross) TRAFaultMask(ctx dram.FaultContext, words int) []uint64 {
	patterns := [3]uint64{0xaaaaaaaaaaaaaaaa, 0x5555555555555555, ^uint64(0)}
	m := make([]uint64, words)
	for i := range m {
		m[i] = patterns[a.n%3]
	}
	a.n++
	return m
}

func (a *alwaysGross) DCCFaultMask(ctx dram.FaultContext, words int) []uint64 { return nil }

// TestReliableUncorrectable: persistent gross faults exhaust the retry budget
// and surface a wrapped ErrUncorrectable with the full multi-attempt cost.
func TestReliableUncorrectable(t *testing.T) {
	c := testController(t)
	w := testGeom().WordsPerRow()
	pokeRow(t, c, 0, 0, dram.D(0), make([]uint64, w))
	pokeRow(t, c, 0, 0, dram.D(1), make([]uint64, w))
	c.Device().SetFaultInjector(&alwaysGross{})

	rr, err := c.ExecuteOpReliable(OpAnd, 0, 0, dram.D(2), dram.D(0), dram.D(1),
		dram.D(10), dram.D(11), Reliability{ECC: true, MaxRetries: 2}, majorityVote)
	if !errors.Is(err, ErrUncorrectable) {
		t.Fatalf("err = %v, want ErrUncorrectable", err)
	}
	if rr.Retries != 2 {
		t.Fatalf("Retries = %d, want the full budget of 2", rr.Retries)
	}
	// 3 attempts, each 3 trains + 3 verification reads.
	wantLat := 9*c.OpLatencyNS(OpAnd) + 9*c.rowAccessNS()
	if rr.LatencyNS != wantLat {
		t.Fatalf("LatencyNS = %v, want 3 full attempts = %v", rr.LatencyNS, wantLat)
	}
}

// TestReliableInPlaceFaultFree: dk aliasing a source must work on a fault-free
// device — the scratch replica trains run before dk's train overwrites the
// source, so all three replicas agree and the result is exact.
func TestReliableInPlaceFaultFree(t *testing.T) {
	c := testController(t)
	rng := rand.New(rand.NewSource(4))
	w := testGeom().WordsPerRow()
	di, dj := randRow(rng, w), randRow(rng, w)
	pokeRow(t, c, 0, 0, dram.D(0), di)
	pokeRow(t, c, 0, 0, dram.D(1), dj)

	// dk == di: Xor in place.
	rr, err := c.ExecuteOpReliable(OpXor, 0, 0, dram.D(0), dram.D(0), dram.D(1),
		dram.D(10), dram.D(11), Reliability{ECC: true, MaxRetries: 2}, majorityVote)
	if err != nil {
		t.Fatal(err)
	}
	got := peekRow(t, c, 0, 0, dram.D(0))
	for i := range got {
		if got[i] != di[i]^dj[i] {
			t.Fatalf("word %d = %x, want in-place xor %x", i, got[i], di[i]^dj[i])
		}
	}
	if rr.CorrectedBits != 0 || rr.Retries != 0 || rr.Detected != 0 {
		t.Fatalf("fault-free in-place RowResult = %+v, want no reliability activity", rr)
	}
	// 3 trains + 3 verification reads + 1 source-preservation read.
	want := 3*c.OpLatencyNS(OpXor) + 4*c.rowAccessNS()
	if rr.LatencyNS != want {
		t.Fatalf("LatencyNS = %v, want 3 trains + 3 reads + preserve = %v", rr.LatencyNS, want)
	}

	// Unary in place: dk == di with Not must be exact too (dj is ignored and
	// must not participate in alias detection).
	pokeRow(t, c, 0, 0, dram.D(0), di)
	if _, err := c.ExecuteOpReliable(OpNot, 0, 0, dram.D(0), dram.D(0), dram.RowAddr{},
		dram.D(10), dram.D(11), Reliability{ECC: true, MaxRetries: 2}, majorityVote); err != nil {
		t.Fatal(err)
	}
	got = peekRow(t, c, 0, 0, dram.D(0))
	for i := range got {
		if got[i] != ^di[i] {
			t.Fatalf("word %d = %x, want in-place not %x", i, got[i], ^di[i])
		}
	}
}

// dkGross corrupts, with a broad mask, every TRA of trains whose destination
// is the given data row, for a bounded number of events — so attempt 0's dk
// replica is grossly wrong (forcing a retry after dk, aliasing a source, has
// been overwritten) while later attempts are clean.
type dkGross struct {
	row       int
	remaining int
}

func (g *dkGross) TRAFaultMask(ctx dram.FaultContext, words int) []uint64 {
	if g.remaining <= 0 || ctx.Row != g.row {
		return nil
	}
	g.remaining--
	return grossMask(words)
}

func (g *dkGross) DCCFaultMask(ctx dram.FaultContext, words int) []uint64 { return nil }

// TestReliableInPlaceRetry: a retry of an in-place operation must recompute
// from the preserved source, not from the destination replica the previous
// attempt left behind.  Xor is the sharp probe: without restoration a retry
// computes xor(xor(a,b), b) = a instead of xor(a,b) — silently, because all
// three retry replicas would then agree on the wrong value.
func TestReliableInPlaceRetry(t *testing.T) {
	c := testController(t)
	rng := rand.New(rand.NewSource(5))
	w := testGeom().WordsPerRow()
	di, dj := randRow(rng, w), randRow(rng, w)
	pokeRow(t, c, 0, 0, dram.D(0), di)
	pokeRow(t, c, 0, 0, dram.D(1), dj)
	// Corrupt one TRA of the train destined for row 0 (= dk): the scratch
	// trains carry other row contexts, so the hit lands in attempt 0's dk
	// replica and the broad disagreement forces a retry.
	c.Device().SetFaultInjector(&dkGross{row: 0, remaining: 1})

	rr, err := c.ExecuteOpReliable(OpXor, 0, 0, dram.D(0), dram.D(0), dram.D(1),
		dram.D(10), dram.D(11), Reliability{ECC: true, MaxRetries: 3}, majorityVote)
	if err != nil {
		t.Fatal(err)
	}
	got := peekRow(t, c, 0, 0, dram.D(0))
	for i := range got {
		if got[i] != di[i]^dj[i] {
			t.Fatalf("word %d = %x, want %x (retry must recompute from the preserved source)", i, got[i], di[i]^dj[i])
		}
	}
	if rr.Retries != 1 || rr.Detected != 1 {
		t.Fatalf("RowResult = %+v, want exactly 1 retry and 1 detection", rr)
	}
	// Preserve read + two attempts (each 3 trains + 3 reads) + source restore.
	wantLat := 6*c.OpLatencyNS(OpXor) + 8*c.rowAccessNS()
	if rr.LatencyNS != wantLat {
		t.Fatalf("LatencyNS = %v, want preserve + 2 attempts + restore = %v", rr.LatencyNS, wantLat)
	}
}

func TestReliableNilVote(t *testing.T) {
	c := testController(t)
	if _, err := c.ExecuteOpReliable(OpAnd, 0, 0, dram.D(2), dram.D(0), dram.D(1),
		dram.D(10), dram.D(11), Reliability{ECC: true}, nil); err == nil {
		t.Fatal("nil vote function accepted")
	}
}
