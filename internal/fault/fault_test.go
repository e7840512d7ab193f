package fault

import (
	"testing"

	"ambit/internal/dram"
)

func ctxAt(bank, sub, row int) dram.FaultContext {
	return dram.FaultContext{Bank: bank, Subarray: sub, Row: row}
}

func maskEqual(a, b []uint64) bool {
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

func maskBits(m []uint64) int64 { return popcount(m) }

func TestZeroConfigInjectsNothing(t *testing.T) {
	var cfg Config
	if cfg.Enabled() {
		t.Fatal("zero Config reports Enabled")
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if got := m.TRAFaultMask(ctxAt(0, 0, i), 16); got != nil {
			t.Fatalf("zero config TRA mask = %v, want nil", got)
		}
		if got := m.DCCFaultMask(ctxAt(0, 0, i), 16); got != nil {
			t.Fatalf("zero config DCC mask = %v, want nil", got)
		}
	}
	if c := m.Counters(); c != (Counters{}) {
		t.Fatalf("zero config counters = %+v, want zero", c)
	}
}

func TestConfigValidate(t *testing.T) {
	good := Config{TRABitRate: 0.1, TRARowRate: 0.01, DCCBitRate: 0.1, RowVariation: 1, WeakColumnFraction: 0.1}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []Config{
		{TRABitRate: -1},
		{TRABitRate: 1.5},
		{TRARowRate: -0.1},
		{DCCBitRate: 2},
		{RowVariation: -0.5},
		{WeakColumnFraction: -0.1},
		{WeakColumnFraction: 1},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d (%+v) accepted", i, cfg)
		}
		if _, err := New(cfg); err == nil {
			t.Errorf("New accepted bad config %d (%+v)", i, cfg)
		}
	}
}

// TestDeterminism: the same seed and the same event sequence must produce
// bit-identical masks and counters across independent models.
func TestDeterminism(t *testing.T) {
	cfg := Config{TRABitRate: 1e-3, TRARowRate: 5e-3, DCCBitRate: 1e-3, RowVariation: 1, WeakColumnFraction: 0.05, Seed: 42}
	m1, _ := New(cfg)
	m2, _ := New(cfg)
	for i := 0; i < 500; i++ {
		ctx := ctxAt(i%4, i%2, i%64)
		a := m1.TRAFaultMask(ctx, 16)
		b := m2.TRAFaultMask(ctx, 16)
		if !maskEqual(a, b) {
			t.Fatalf("event %d: TRA masks diverge:\n%v\n%v", i, a, b)
		}
		a = m1.DCCFaultMask(ctx, 16)
		b = m2.DCCFaultMask(ctx, 16)
		if !maskEqual(a, b) {
			t.Fatalf("event %d: DCC masks diverge:\n%v\n%v", i, a, b)
		}
	}
	if c1, c2 := m1.Counters(), m2.Counters(); c1 != c2 {
		t.Fatalf("counters diverge: %+v vs %+v", c1, c2)
	}
}

// TestSubarrayStreamsIndependent: events on one subarray must not perturb the
// fault sequence of another (each (bank, subarray) has its own stream).
func TestSubarrayStreamsIndependent(t *testing.T) {
	cfg := Config{TRABitRate: 1e-2, Seed: 7}
	alone, _ := New(cfg)
	mixed, _ := New(cfg)
	var aloneMasks, mixedMasks [][]uint64
	for i := 0; i < 200; i++ {
		aloneMasks = append(aloneMasks, alone.TRAFaultMask(ctxAt(0, 0, i%32), 16))
		// Interleave traffic on a different subarray in the mixed model.
		mixed.TRAFaultMask(ctxAt(3, 1, i%32), 16)
		mixedMasks = append(mixedMasks, mixed.TRAFaultMask(ctxAt(0, 0, i%32), 16))
	}
	for i := range aloneMasks {
		if !maskEqual(aloneMasks[i], mixedMasks[i]) {
			t.Fatalf("event %d on (0,0) perturbed by traffic on (3,1)", i)
		}
	}
}

func TestSeedSelectsDifferentUniverse(t *testing.T) {
	mk := func(seed int64) int64 {
		m, _ := New(Config{TRABitRate: 1e-2, Seed: seed})
		var bits int64
		for i := 0; i < 200; i++ {
			bits ^= maskBits(m.TRAFaultMask(ctxAt(0, 0, i%32), 16)) << uint(i%48)
		}
		return bits
	}
	if mk(1) == mk(2) {
		t.Fatal("seeds 1 and 2 produced the same fault fingerprint")
	}
}

// TestBitRateMagnitude: over many events the injected flip count must track
// bits*rate*events (within a loose statistical factor).
func TestBitRateMagnitude(t *testing.T) {
	const (
		words  = 16
		events = 2000
		rate   = 1e-3
	)
	m, _ := New(Config{TRABitRate: rate, Seed: 3})
	var flips int64
	for i := 0; i < events; i++ {
		flips += maskBits(m.TRAFaultMask(ctxAt(0, 0, -1), words))
	}
	want := float64(words*64) * rate * events // ~2048
	if got := float64(flips); got < want/2 || got > want*2 {
		t.Fatalf("injected %v bits, want within [%v, %v]", got, want/2, want*2)
	}
	c := m.Counters()
	if c.FlippedBits != flips {
		t.Fatalf("FlippedBits = %d, want %d", c.FlippedBits, flips)
	}
	if c.TRAEvents == 0 || c.TRAEvents > events {
		t.Fatalf("TRAEvents = %d out of range (0, %d]", c.TRAEvents, events)
	}
	if c.DCCEvents != 0 || c.GrossRows != 0 {
		t.Fatalf("unexpected DCC/gross counters: %+v", c)
	}
}

// TestGrossRowFailure: TRARowRate 1 must corrupt a large fraction of the row
// on every event and count a gross failure.
func TestGrossRowFailure(t *testing.T) {
	const words = 16
	m, _ := New(Config{TRARowRate: 1, Seed: 9})
	mask := m.TRAFaultMask(ctxAt(0, 0, -1), words)
	if mask == nil {
		t.Fatal("TRARowRate 1 produced no mask")
	}
	bits := maskBits(mask)
	// AND of two uniform draws flips ~25% of the row.
	if bits < words*64/8 || bits > words*64/2 {
		t.Fatalf("gross failure flipped %d/%d bits, want roughly a quarter", bits, words*64)
	}
	c := m.Counters()
	if c.GrossRows != 1 || c.TRAEvents != 1 {
		t.Fatalf("counters = %+v, want 1 gross row in 1 TRA event", c)
	}
}

func TestDCCMaskAndCounters(t *testing.T) {
	m, _ := New(Config{DCCBitRate: 5e-2, Seed: 11})
	var flips int64
	for i := 0; i < 200; i++ {
		flips += maskBits(m.DCCFaultMask(ctxAt(1, 0, i%16), 4))
	}
	if flips == 0 {
		t.Fatal("DCCBitRate 5e-2 injected nothing over 200 events")
	}
	c := m.Counters()
	if c.DCCEvents == 0 || c.FlippedBits != flips || c.TRAEvents != 0 {
		t.Fatalf("counters = %+v, want only DCC activity with %d bits", c, flips)
	}
	m.ResetCounters()
	if c := m.Counters(); c != (Counters{}) {
		t.Fatalf("counters after reset = %+v, want zero", c)
	}
}

// TestRowVariation: with a nonzero sigma, per-row multipliers differ between
// rows, stay inside the clamp, and are pure functions of the coordinates.
func TestRowVariation(t *testing.T) {
	m, _ := New(Config{TRABitRate: 1e-3, RowVariation: 1.5, Seed: 21})
	seen := map[float64]bool{}
	for row := 0; row < 64; row++ {
		s := m.RowScale(0, 0, row)
		if s < 1.0/32 || s > 32 {
			t.Fatalf("row %d scale %v outside clamp [1/32, 32]", row, s)
		}
		if s2 := m.RowScale(0, 0, row); s2 != s {
			t.Fatalf("row %d scale not deterministic: %v then %v", row, s, s2)
		}
		seen[s] = true
	}
	if len(seen) < 32 {
		t.Fatalf("only %d distinct scales across 64 rows; variation not applied", len(seen))
	}
	flat, _ := New(Config{TRABitRate: 1e-3, Seed: 21})
	for row := 0; row < 8; row++ {
		if s := flat.RowScale(0, 0, row); s != 1 {
			t.Fatalf("sigma 0 row scale = %v, want 1", s)
		}
	}
}

// TestWeakColumns: with a weak-column set configured, flips concentrate far
// beyond the uniform share of those positions.
func TestWeakColumns(t *testing.T) {
	const words = 16
	m, _ := New(Config{TRABitRate: 2e-3, WeakColumnFraction: 0.02, Seed: 31})
	counts := make([]int64, words*64)
	for i := 0; i < 3000; i++ {
		mask := m.TRAFaultMask(ctxAt(0, 0, -1), words)
		for w, v := range mask {
			for b := 0; b < 64; b++ {
				if v&(1<<uint(b)) != 0 {
					counts[w*64+b]++
				}
			}
		}
	}
	var total, hot int64
	// "Hot" columns: positions hit 3+ times.  Under a uniform spread at this
	// rate, repeat hits are rare; the weak 2% should absorb ~half the flips.
	for _, c := range counts {
		total += c
		if c >= 3 {
			hot += c
		}
	}
	if total == 0 {
		t.Fatal("no flips injected")
	}
	if float64(hot) < 0.25*float64(total) {
		t.Fatalf("hot columns absorbed %d/%d flips; weak-column bias not visible", hot, total)
	}
}

// TestRecycledMasksDrawIdentically: handing applied masks back to the model
// changes where fired masks live, never what they hold: a model whose every
// mask is recycled draws the same masks and counters as one whose masks are
// all kept, over TRA, MAJ-X and DCC draws on two subarrays whose row
// contexts change between draws, and its fired draws reuse recycled storage.
func TestRecycledMasksDrawIdentically(t *testing.T) {
	p, ok := ProfileByName("vendorA-85C")
	if !ok {
		t.Fatal("builtin vendorA-85C missing")
	}
	p.Base.TRABitRate *= 30
	p.Base.TRARowRate *= 30
	p.Base.DCCBitRate *= 30
	const words = 64
	var models [2]*Model
	for i := range models {
		m, err := NewFromProfile(p)
		if err != nil {
			t.Fatal(err)
		}
		models[i] = m
	}
	recycling, keeping := models[0], models[1]
	weak := make([]uint64, words)
	for i := range weak {
		weak[i] = 0x00FF00FF00FF00FF
	}
	draw := func(m *Model, i int) []uint64 {
		ctx := ctxAt(i%2, 0, i/3%7-1)
		switch i % 3 {
		case 0:
			return m.TRAFaultMask(ctx, words)
		case 1:
			ctx.K = 16
			return m.MajFaultMask(ctx, words, weak)
		}
		return m.DCCFaultMask(ctx, words)
	}
	recycled := map[*uint64]bool{}
	fired, reused := 0, 0
	for i := 0; i < 3000; i++ {
		got, want := draw(recycling, i), draw(keeping, i)
		if (got == nil) != (want == nil) || !maskEqual(got, want) {
			t.Fatalf("draw %d: recycling model drew %x, keeping model %x", i, got, want)
		}
		if got == nil {
			continue
		}
		fired++
		if recycled[&got[0]] {
			reused++
		}
		recycled[&got[0]] = true
		recycling.RecycleFaultMask(ctxAt(i%2, 0, -1), got)
	}
	if recycling.Counters() != keeping.Counters() {
		t.Fatalf("counters: recycling %+v, keeping %+v", recycling.Counters(), keeping.Counters())
	}
	if fired < 100 || reused < fired-2 {
		t.Fatalf("%d masks fired, %d reused recycled storage", fired, reused)
	}
}

// TestPatternBiasSteersEveryFlip: at PatternBias 1 every flip of a many-row
// draw lands on a minimum-margin bit, single-flip draws included (the weak
// bits are counted whenever a flip is drawn).
func TestPatternBiasSteersEveryFlip(t *testing.T) {
	m, err := NewFromProfile(&Profile{Name: "bias", Base: Config{TRABitRate: 1e-3, Seed: 5}, PatternBias: 1})
	if err != nil {
		t.Fatal(err)
	}
	const words = 16
	weak := make([]uint64, words)
	for i := range weak {
		weak[i] = 0x8000_0000_0000_0101
	}
	single := 0
	for i := 0; i < 500; i++ {
		mask := m.MajFaultMask(dram.FaultContext{Row: -1, K: 16}, words, weak)
		for j, v := range mask {
			if v&^weak[j] != 0 {
				t.Fatalf("draw %d: flip off the weak bits in word %d: %016x", i, j, v)
			}
		}
		if maskBits(mask) == 1 {
			single++
		}
	}
	if single == 0 {
		t.Fatal("no single-flip draw")
	}
}
