package ambit

import (
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"reflect"
	"testing"

	"ambit/internal/dram"
	"ambit/internal/energy"
	"ambit/internal/fault"
)

// faultyGeom is the acceptance-test module: 4 banks x 2 subarrays x 512 rows
// of 1 KB, so a 1 Mib vector spans 128 rows spread over all 8 slots.
func faultyGeom() dram.Geometry {
	return dram.Geometry{Banks: 4, SubarraysPerBank: 2, RowsPerSubarray: 512, RowSizeBytes: 1024}
}

// acceptanceSeed pins the deterministic fault universe of the acceptance
// test.  TMR miscorrects matching faults in two replicas silently, so a
// random universe has some chance of a few wrong bits; this seed was chosen
// (and is locked by determinism) to exercise corrections and retries while
// producing bit-exact results.
const acceptanceSeed = 4

// runFaultyWorkload executes the ISSUE acceptance workload — a 1 Mib AND and
// a 1 Mib XOR under fault injection with ECC + retry — and returns the number
// of result bits that differ from ground truth plus the final stats.
func runFaultyWorkload(t *testing.T, seed int64) (mismatches int64, st Stats) {
	t.Helper()
	sys, err := New(
		WithDRAM(dram.Config{Geometry: faultyGeom(), Timing: dram.DDR3_1600()}),
		WithFaultModel(fault.Config{
			TRABitRate:   1e-4,
			TRARowRate:   5e-3,
			DCCBitRate:   1e-4,
			RowVariation: 1,
			Seed:         seed,
		}),
		WithReliability(Reliability{ECC: true, MaxRetries: 4}),
	)
	if err != nil {
		t.Fatal(err)
	}
	const bits = 1 << 20
	a, b := sys.MustAlloc(bits), sys.MustAlloc(bits)
	andDst, xorDst := sys.MustAlloc(bits), sys.MustAlloc(bits)
	rng := rand.New(rand.NewSource(99))
	words := bits / 64
	wa, wb := make([]uint64, words), make([]uint64, words)
	for i := range wa {
		wa[i], wb[i] = rng.Uint64(), rng.Uint64()
	}
	if err := a.Write(wa, Backdoor()); err != nil {
		t.Fatal(err)
	}
	if err := b.Write(wb, Backdoor()); err != nil {
		t.Fatal(err)
	}
	if err := sys.And(andDst, a, b); err != nil {
		t.Fatal(err)
	}
	if err := sys.Xor(xorDst, a, b); err != nil {
		t.Fatal(err)
	}
	ga, err := andDst.Read(Backdoor())
	if err != nil {
		t.Fatal(err)
	}
	gx, err := xorDst.Read(Backdoor())
	if err != nil {
		t.Fatal(err)
	}
	for i := range wa {
		mismatches += int64(popcount64(ga[i] ^ (wa[i] & wb[i])))
		mismatches += int64(popcount64(gx[i] ^ (wa[i] ^ wb[i])))
	}
	return mismatches, sys.Stats()
}

func popcount64(x uint64) int {
	n := 0
	for ; x != 0; x &= x - 1 {
		n++
	}
	return n
}

// TestFaultyWorkloadCorrectedByECC is the ISSUE acceptance criterion: with a
// TRA failure rate >= 1e-4 and ECC + retry enabled, a 1 Mib AND/XOR workload
// returns functionally correct results with nonzero corrected-bit and retry
// counts, deterministically for the fault-model seed.
func TestFaultyWorkloadCorrectedByECC(t *testing.T) {
	mism, st := runFaultyWorkload(t, acceptanceSeed)
	if mism != 0 {
		t.Fatalf("%d result bits wrong despite ECC+retry (seed %d)", mism, acceptanceSeed)
	}
	if st.InjectedFaults == 0 || st.InjectedFaultBits == 0 {
		t.Fatalf("no faults injected (stats %+v); the workload exercised nothing", st)
	}
	if st.CorrectedBits == 0 {
		t.Fatal("ECC corrected no bits; fault rate too low for the acceptance criterion")
	}
	if st.Retries == 0 {
		t.Fatal("no retries; gross-failure path not exercised")
	}
	if st.UncorrectableRows != 0 {
		t.Fatalf("%d uncorrectable rows; retry budget should absorb this universe", st.UncorrectableRows)
	}
}

// TestFaultyWorkloadDeterministic: the same seed must reproduce the identical
// fault universe — same injected/corrected/retry counters on a fresh system.
func TestFaultyWorkloadDeterministic(t *testing.T) {
	m1, st1 := runFaultyWorkload(t, acceptanceSeed)
	m2, st2 := runFaultyWorkload(t, acceptanceSeed)
	if m1 != m2 {
		t.Fatalf("mismatch counts differ across runs: %d vs %d", m1, m2)
	}
	if st1.InjectedFaults != st2.InjectedFaults || st1.InjectedFaultBits != st2.InjectedFaultBits ||
		st1.CorrectedBits != st2.CorrectedBits || st1.Retries != st2.Retries {
		t.Fatalf("reliability counters differ across runs:\n%+v\n%+v", st1, st2)
	}
	if st1.ElapsedNS != st2.ElapsedNS {
		t.Fatalf("elapsed differs across runs: %v vs %v", st1.ElapsedNS, st2.ElapsedNS)
	}
}

// TestRawFaultsCorruptWithoutECC: the same fault universe without the
// reliability policy corrupts results — the contrast that motivates ECC.
func TestRawFaultsCorruptWithoutECC(t *testing.T) {
	sys, err := New(
		WithDRAM(dram.Config{Geometry: faultyGeom(), Timing: dram.DDR3_1600()}),
		WithFaultModel(fault.Config{TRABitRate: 1e-4, TRARowRate: 5e-3, DCCBitRate: 1e-4, RowVariation: 1, Seed: acceptanceSeed}),
	)
	if err != nil {
		t.Fatal(err)
	}
	const bits = 1 << 20
	a, b, dst := sys.MustAlloc(bits), sys.MustAlloc(bits), sys.MustAlloc(bits)
	rng := rand.New(rand.NewSource(99))
	words := bits / 64
	wa, wb := make([]uint64, words), make([]uint64, words)
	for i := range wa {
		wa[i], wb[i] = rng.Uint64(), rng.Uint64()
	}
	if err := a.Write(wa, Backdoor()); err != nil {
		t.Fatal(err)
	}
	if err := b.Write(wb, Backdoor()); err != nil {
		t.Fatal(err)
	}
	if err := sys.Xor(dst, a, b); err != nil {
		t.Fatal(err)
	}
	got, err := dst.Read(Backdoor())
	if err != nil {
		t.Fatal(err)
	}
	var bad int64
	for i := range wa {
		bad += int64(popcount64(got[i] ^ (wa[i] ^ wb[i])))
	}
	if bad == 0 {
		t.Fatal("unprotected run produced a clean result; fault injection not reaching the data path")
	}
	st := sys.Stats()
	if st.CorrectedBits != 0 || st.Retries != 0 {
		t.Fatalf("reliability counters active without ECC: %+v", st)
	}
}

// TestUncorrectableSurfaces: a universe where every TRA collapses exhausts the
// retry budget; the error matches ErrUncorrectable and is counted.
func TestUncorrectableSurfaces(t *testing.T) {
	sys, err := New(
		WithDRAM(dram.Config{Geometry: smallGeomForReliability(), Timing: dram.DDR3_1600()}),
		WithFaultModel(fault.Config{TRARowRate: 1, Seed: 4}),
		WithReliability(Reliability{ECC: true, MaxRetries: 1}),
	)
	if err != nil {
		t.Fatal(err)
	}
	bits := int64(sys.RowSizeBits())
	a, b, dst := sys.MustAlloc(bits), sys.MustAlloc(bits), sys.MustAlloc(bits)
	err = sys.And(dst, a, b)
	if !errors.Is(err, ErrUncorrectable) {
		t.Fatalf("err = %v, want ErrUncorrectable", err)
	}
	if st := sys.Stats(); st.UncorrectableRows != 1 {
		t.Fatalf("UncorrectableRows = %d, want 1", st.UncorrectableRows)
	}
}

func smallGeomForReliability() dram.Geometry {
	return dram.Geometry{Banks: 2, SubarraysPerBank: 2, RowsPerSubarray: 64, RowSizeBytes: 128}
}

// TestQuarantineRetiresFaultyRows: rows accumulating detected faults are
// quarantined; Free retires them and the allocator never hands them out
// again.
func TestQuarantineRetiresFaultyRows(t *testing.T) {
	sys, err := New(
		WithDRAM(dram.Config{Geometry: smallGeomForReliability(), Timing: dram.DDR3_1600()}),
		// A bit rate this high makes every verification round detect flips,
		// while the raised threshold keeps every round correctable.
		WithFaultModel(fault.Config{TRABitRate: 1e-2, Seed: 5}),
		WithReliability(Reliability{ECC: true, MaxRetries: 2, RetryThresholdBits: 256}),
		WithQuarantine(1),
	)
	if err != nil {
		t.Fatal(err)
	}
	bits := int64(sys.RowSizeBits())
	a, b, dst := sys.MustAlloc(bits), sys.MustAlloc(bits), sys.MustAlloc(bits)
	if err := sys.And(dst, a, b); err != nil {
		t.Fatal(err)
	}
	quar := sys.Quarantined()
	if len(quar) != 1 {
		t.Fatalf("Quarantined() = %v, want exactly the And destination row", quar)
	}
	badAddr := dst.Row(0)
	if quar[0] != badAddr {
		t.Fatalf("quarantined %v, want destination row %v", quar[0], badAddr)
	}
	if st := sys.Stats(); st.QuarantinedRows != 1 {
		t.Fatalf("Stats().QuarantinedRows = %d, want 1", st.QuarantinedRows)
	}

	before := sys.FreeRows()
	if err := sys.Free(dst); err != nil {
		t.Fatal(err)
	}
	// The quarantined row is retired, not recycled: Free returns 0 rows.
	if got := sys.FreeRows(); got != before {
		t.Fatalf("FreeRows after freeing a fully quarantined vector = %d, want unchanged %d", got, before)
	}
	// Reallocation must avoid the quarantined row.
	for i := 0; i < 8; i++ {
		v, err := sys.Alloc(bits)
		if err != nil {
			t.Fatal(err)
		}
		if v.Row(0) == badAddr {
			t.Fatalf("allocation %d handed out quarantined row %v", i, badAddr)
		}
	}
}

// TestReliableInPlaceOps: operations whose destination aliases a source must
// stay exact under the reliability policy — with a zero fault config they are
// byte-identical to the unprotected path, and with injected faults plus
// retries the recomputation must use the preserved source, not the replica a
// failed attempt left in the destination.
func TestReliableInPlaceOps(t *testing.T) {
	newSys := func(extra ...Option) *System {
		opts := append([]Option{
			WithDRAM(DRAMConfig{Geometry: smallGeomForReliability(), Timing: dram.DDR3_1600()}),
			WithReliability(Reliability{ECC: true, MaxRetries: 4}),
		}, extra...)
		sys, err := New(opts...)
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	load := func(sys *System, bits int64) (*Bitvector, *Bitvector, []uint64, []uint64) {
		a, b := sys.MustAlloc(bits), sys.MustAlloc(bits)
		rng := rand.New(rand.NewSource(11))
		wa, wb := make([]uint64, bits/64), make([]uint64, bits/64)
		for i := range wa {
			wa[i], wb[i] = rng.Uint64(), rng.Uint64()
		}
		if err := a.Write(wa, Backdoor()); err != nil {
			t.Fatal(err)
		}
		if err := b.Write(wb, Backdoor()); err != nil {
			t.Fatal(err)
		}
		return a, b, wa, wb
	}

	// Zero fault config: Not(v, v) and Xor(a, a, b) must be exact (this is
	// the review regression: replica ordering once destroyed the aliased
	// source and surfaced ErrUncorrectable on a fault-free system).
	sys := newSys()
	bits := int64(sys.RowSizeBits())
	a, b, wa, wb := load(sys, bits)
	if err := sys.Not(a, a); err != nil {
		t.Fatalf("fault-free in-place Not: %v", err)
	}
	got, err := a.Read(Backdoor())
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != ^wa[i] {
			t.Fatalf("word %d = %x, want in-place not %x", i, got[i], ^wa[i])
		}
	}
	if err := sys.Xor(b, a, b); err != nil {
		t.Fatalf("fault-free in-place Xor: %v", err)
	}
	if got, err = b.Read(Backdoor()); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if want := ^wa[i] ^ wb[i]; got[i] != want {
			t.Fatalf("word %d = %x, want in-place xor %x", i, got[i], want)
		}
	}

	// Faulty substrate: gross TRA failures force retries; in-place results
	// must still be exact because retries restore the aliased source.
	sys = newSys(WithFaultModel(fault.Config{TRARowRate: 0.03, Seed: 3}))
	a, b, wa, wb = load(sys, 16*bits)
	if err := sys.Xor(a, a, b); err != nil {
		t.Fatalf("faulty in-place Xor: %v", err)
	}
	if got, err = a.Read(Backdoor()); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if want := wa[i] ^ wb[i]; got[i] != want {
			t.Fatalf("word %d = %x, want in-place xor %x under faults", i, got[i], want)
		}
	}
	if st := sys.Stats(); st.Retries == 0 {
		t.Fatalf("Stats = %+v; the fault rate should have forced at least one retry", st)
	}
}

// TestZeroFaultConfigIdentical: installing a zero-valued fault model and no
// reliability policy leaves the system byte- and stat-identical to a plain
// one — the ISSUE's compatibility criterion.
func TestZeroFaultConfigIdentical(t *testing.T) {
	run := func(opts ...Option) (words []uint64, st Stats, energyNJ float64) {
		sys, err := New(opts...)
		if err != nil {
			t.Fatal(err)
		}
		a, b, dst := sys.MustAlloc(1<<16), sys.MustAlloc(1<<16), sys.MustAlloc(1<<16)
		rng := rand.New(rand.NewSource(7))
		wa := make([]uint64, 1<<10)
		for i := range wa {
			wa[i] = rng.Uint64()
		}
		if err := a.Write(wa, Backdoor()); err != nil {
			t.Fatal(err)
		}
		if err := b.Write(wa[:512], Backdoor()); err != nil {
			t.Fatal(err)
		}
		if err := sys.Xor(dst, a, b); err != nil {
			t.Fatal(err)
		}
		if err := sys.Nand(dst, dst, a); err != nil {
			t.Fatal(err)
		}
		got, err := dst.Read(Backdoor())
		if err != nil {
			t.Fatal(err)
		}
		return got, sys.Stats(), sys.EnergyNJ()
	}
	w1, st1, e1 := run()
	w2, st2, e2 := run(WithFaultModel(fault.Config{}), WithQuarantine(0))
	for i := range w1 {
		if w1[i] != w2[i] {
			t.Fatalf("word %d differs: %x vs %x", i, w1[i], w2[i])
		}
	}
	st1.BankBusyNS, st2.BankBusyNS = nil, nil
	if !reflect.DeepEqual(st1, st2) {
		t.Fatalf("stats differ:\n%+v\n%+v", st1, st2)
	}
	if e1 != e2 {
		t.Fatalf("energy differs: %v vs %v", e1, e2)
	}
}

// TestFunctionalOptions: every option is a transparent setter over Config.
func TestFunctionalOptions(t *testing.T) {
	dcfg := dram.Config{Geometry: smallGeomForReliability(), Timing: dram.DDR3_1600()}
	fcfg := fault.Config{TRABitRate: 1e-3, Seed: 17}
	rel := Reliability{ECC: true, MaxRetries: 3, RetryThresholdBits: 9}
	sys, err := New(
		WithDRAM(dcfg),
		WithEnergyModel(energy.DefaultModel()),
		WithSplitDecoder(false),
		WithCoherenceNSPerRow(2.5),
		WithFaultModel(fcfg),
		WithReliability(rel),
		WithQuarantine(4),
	)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sys.Config()
	if cfg.DRAM.Geometry != dcfg.Geometry || cfg.SplitDecoder || cfg.CoherenceNSPerRow != 2.5 {
		t.Fatalf("base options not applied: %+v", cfg)
	}
	if cfg.Fault != fcfg || cfg.Reliability != rel || cfg.QuarantineAfter != 4 {
		t.Fatalf("reliability options not applied: %+v", cfg)
	}
}

// TestNewSystemValidatesReliability: bad fault/reliability/quarantine configs
// are rejected at construction.
func TestNewSystemValidatesReliability(t *testing.T) {
	if _, err := New(WithFaultModel(fault.Config{TRABitRate: -1})); err == nil {
		t.Fatal("negative fault rate accepted")
	}
	if _, err := New(WithReliability(Reliability{MaxRetries: -1})); err == nil {
		t.Fatal("negative MaxRetries accepted")
	}
	if _, err := New(WithQuarantine(-1)); err == nil {
		t.Fatal("negative QuarantineAfter accepted")
	}
	tiny := dram.Config{Geometry: dram.Geometry{Banks: 1, SubarraysPerBank: 1, RowsPerSubarray: 20, RowSizeBytes: 64}, Timing: dram.DDR3_1600()}
	if tiny.Geometry.DataRows() > 2 {
		t.Fatalf("test geometry has %d data rows; want <= 2 to exercise the scratch check", tiny.Geometry.DataRows())
	}
	if _, err := New(WithDRAM(tiny), WithReliability(Reliability{ECC: true})); err == nil {
		t.Fatal("ECC accepted on a geometry with no room for scratch rows")
	}
}

// TestScratchRowsWithheld: enabling ECC shrinks the allocatable rows by the
// two per-subarray replica scratch rows.
func TestScratchRowsWithheld(t *testing.T) {
	cfg := dram.Config{Geometry: smallGeomForReliability(), Timing: dram.DDR3_1600()}
	plain, err := New(WithDRAM(cfg))
	if err != nil {
		t.Fatal(err)
	}
	ecc, err := New(WithDRAM(cfg), WithReliability(Reliability{ECC: true, MaxRetries: 1}))
	if err != nil {
		t.Fatal(err)
	}
	slots := cfg.Geometry.Banks * cfg.Geometry.SubarraysPerBank
	if want := plain.FreeRows() - 2*slots; ecc.FreeRows() != want {
		t.Fatalf("FreeRows with ECC = %d, want %d (2 scratch rows per slot withheld)", ecc.FreeRows(), want)
	}
}

// faultedECCSystem builds perfbench's faulted-ecc configuration: the
// vendorB-25C profile at 1/1000 of its rates, drawing its fault universe from
// seed, with TMR ECC, up to 3 retries and MAJ-5.
func faultedECCSystem(tb testing.TB, seed int64) *System {
	tb.Helper()
	profile, ok := FaultProfileByName("vendorB-25C")
	if !ok {
		tb.Fatal("builtin vendorB-25C missing")
	}
	profile.Base.Seed = seed
	profile.Base.TRABitRate *= 1e-3
	profile.Base.TRARowRate *= 1e-3
	profile.Base.DCCBitRate *= 1e-3
	sys, err := New(WithFaultProfile(profile), WithReliability(Reliability{ECC: true, MaxRetries: 3}), WithManyRowMaj(5))
	if err != nil {
		tb.Fatal(err)
	}
	return sys
}

// TestFaultedECCQueryAnswers runs perfbench's faulted-ecc query at that
// workload's configuration on 8-row vectors: And, an in-place Xor, a 3-input
// Maj and two popcounts over a pool of 6 random inputs.  And and Xor run
// under TMR, so every op must return nil and every popcount of their result
// must equal the word-level reference; Maj runs outside TMR, so its count is
// not checked.  At 1/1000 of the profile's rates a silent miscorrection is
// expected about once in 10^7 queries.  The test says nothing about the
// shipped rates.
func TestFaultedECCQueryAnswers(t *testing.T) {
	queries := 2048
	if raceEnabled {
		queries = 256
	}
	const inputs = 6
	for _, seed := range []int64{303, 1} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			sys := faultedECCSystem(t, seed)
			n := 8 * int64(sys.RowSizeBits())
			rng := rand.New(rand.NewSource(seed))
			var in [inputs]*Bitvector
			var words [inputs][]uint64
			for i := range in {
				in[i] = sys.MustAlloc(n)
				words[i] = make([]uint64, in[i].WordCount())
				for j := range words[i] {
					words[i][j] = rng.Uint64()
				}
				if err := in[i].Write(words[i], Backdoor()); err != nil {
					t.Fatal(err)
				}
			}
			res, m := sys.MustAlloc(n), sys.MustAlloc(n)
			for q := 0; q < queries; q++ {
				a, b, c, x := rng.Intn(inputs), rng.Intn(inputs), rng.Intn(inputs), rng.Intn(inputs)
				y := (x + 1 + rng.Intn(inputs-1)) % inputs // Maj sources are distinct
				var want int64
				for j := range words[a] {
					want += int64(bits.OnesCount64(words[a][j]&words[b][j] ^ words[c][j]))
				}
				if err := sys.And(res, in[a], in[b]); err != nil {
					t.Fatalf("query %d: And: %v", q, err)
				}
				if err := sys.Xor(res, res, in[c]); err != nil {
					t.Fatalf("query %d: Xor: %v", q, err)
				}
				if err := sys.Maj(m, res, in[x], in[y]); err != nil {
					t.Fatalf("query %d: Maj: %v", q, err)
				}
				got, err := sys.Popcount(res)
				if err != nil || got != want {
					t.Fatalf("query %d: Popcount(a&b^c) = %d, %v; want %d, nil", q, got, err, want)
				}
				if _, err := sys.Popcount(m); err != nil {
					t.Fatalf("query %d: Popcount(maj): %v", q, err)
				}
			}
			if st := sys.Stats(); st.InjectedFaults == 0 || st.CorrectedBits == 0 {
				t.Errorf("InjectedFaults = %d, CorrectedBits = %d over %d queries; want both nonzero", st.InjectedFaults, st.CorrectedBits, queries)
			}
		})
	}
}
