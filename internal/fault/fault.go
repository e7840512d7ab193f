// Package fault models probabilistic failures of Ambit's analog in-DRAM
// primitives: triple-row activation (TRA), many-row simultaneous activation
// (MAJ-X), and dual-contact-cell (DCC) negation.
//
// The Ambit paper assumes these mechanisms are reliable after manufacturer
// testing (Section 6), but measurements on real chips ("Functionally-Complete
// Boolean Logic in Real DRAM Chips" and "Simultaneous Many-Row Activation in
// Off-the-Shelf DRAM Chips", PAPERS.md) show multi-row activation fails
// probabilistically, with strong per-cell, per-row, per-chip, data-pattern,
// and temperature variation.  This package reproduces that failure structure
// as a deterministic, seeded dram.FaultInjector:
//
//   - a per-bit transient flip rate for each TRA/MAJ-X and each DCC capture
//     (TRABitRate, DCCBitRate) — the common case, corrected by TMR ECC,
//   - a per-event gross row failure rate (TRARowRate) modelling an activation
//     whose charge sharing collapses entirely, corrupting a large fraction of
//     the row — detected by the verifier and retried,
//   - per-row weakness (RowVariation): each physical destination row gets a
//     deterministic log-normal rate multiplier, so some rows fail
//     consistently more often — the rows graceful degradation quarantines,
//   - optional weak columns (WeakColumnFraction): a deterministic subset of
//     bit positions per subarray that attracts half of all flips, modelling
//     per-cell variation,
//   - an optional chip-to-chip variation Profile (profile.go) layering
//     temperature scaling, an activation-width failure curve, data-pattern
//     bias toward minimum-margin bits, and named weak subarrays on top.
//
// Determinism and concurrency: every random decision is drawn from a
// per-subarray splitmix64 stream keyed by (Seed, bank, subarray), and the
// per-row/per-column weights are pure hashes of (Seed, coordinates).  A given
// sequence of events on one subarray therefore produces identical faults
// across runs — regardless of what happens on other subarrays, and regardless
// of how many goroutines drive other banks.  Draws for the *same* (bank,
// subarray) pair must be serialized by the caller; the DRAM device guarantees
// this (a bank executes one command train at a time, and the parallel engine
// holds one lock per bank), which is what lets faulted parallel execution
// stay bit-identical to faulted serial execution: each stream sees the same
// draw sequence, and the counters are order-independent atomic sums, merged
// exactly like the tracer's per-bank shards.  After Prepare the per-pair
// streams are reached without any lock.
package fault

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"

	"ambit/internal/dram"
)

// Config parameterizes a Model.  The zero value disables injection entirely.
type Config struct {
	// TRABitRate is the probability that any given result bit of a
	// triple-row (or many-row) activation flips (before per-row scaling).
	TRABitRate float64
	// TRARowRate is the probability that a multi-row activation suffers a
	// gross failure corrupting roughly a quarter of the row's bits.
	TRARowRate float64
	// DCCBitRate is the probability that any given bit written through a
	// DCC negation wordline flips.
	DCCBitRate float64
	// RowVariation is the sigma of the log-normal per-row rate multiplier
	// (0 = all rows identical).  A row's multiplier is exp(sigma·z) with z
	// a standard normal hashed from the row's physical address, clamped to
	// [1/32, 32].
	RowVariation float64
	// WeakColumnFraction is the fraction of each subarray's bit positions
	// designated "weak"; when positive, half of all injected flips land on
	// weak positions.  0 spreads flips uniformly.
	WeakColumnFraction float64
	// Seed selects the deterministic fault universe.
	Seed int64
}

// Enabled reports whether the configuration injects any faults at all.
func (c Config) Enabled() bool {
	return c.TRABitRate > 0 || c.TRARowRate > 0 || c.DCCBitRate > 0
}

// Validate checks the configuration.
func (c Config) Validate() error {
	for _, r := range []struct {
		name string
		v    float64
	}{
		{"TRABitRate", c.TRABitRate},
		{"TRARowRate", c.TRARowRate},
		{"DCCBitRate", c.DCCBitRate},
	} {
		if math.IsNaN(r.v) {
			return fmt.Errorf("fault: %s must not be NaN", r.name)
		}
		if r.v < 0 || r.v > 1 {
			return fmt.Errorf("fault: %s must be in [0,1], got %g", r.name, r.v)
		}
	}
	if math.IsNaN(c.RowVariation) || c.RowVariation < 0 {
		return fmt.Errorf("fault: RowVariation must be non-negative, got %g", c.RowVariation)
	}
	if math.IsInf(c.RowVariation, 1) {
		return fmt.Errorf("fault: RowVariation must be finite, got %g", c.RowVariation)
	}
	if math.IsNaN(c.WeakColumnFraction) || c.WeakColumnFraction < 0 || c.WeakColumnFraction >= 1 {
		return fmt.Errorf("fault: WeakColumnFraction must be in [0,1), got %g", c.WeakColumnFraction)
	}
	return nil
}

// Counters accumulates what a Model has injected.
type Counters struct {
	// TRAEvents counts triple-row activations that had at least one bit
	// flipped (gross failures included).
	TRAEvents int64
	// MajEvents counts many-row (MAJ-X) activations that had at least one
	// bit flipped (gross failures included).
	MajEvents int64
	// DCCEvents counts DCC negation writes that had at least one bit
	// flipped.
	DCCEvents int64
	// GrossRows counts gross row-level activation failures (a subset of
	// TRAEvents + MajEvents).
	GrossRows int64
	// FlippedBits counts the total number of bits flipped.
	FlippedBits int64
}

// Model is a deterministic seeded fault injector implementing
// dram.ManyRowFaultInjector.
//
// Concurrency: draws on distinct (bank, subarray) pairs may proceed from
// different goroutines; draws on the same pair must be externally serialized
// (the DRAM device's one-train-per-bank discipline provides this).  Counters
// are atomic and may be read at any time.
type Model struct {
	cfg  Config
	prof *Profile // nil when built from a plain Config

	tempScale float64 // profile temperature multiplier (1 when unset)

	mu      sync.Mutex         // guards streams (the un-Prepared fallback map)
	streams map[[2]int]*stream // lazily keyed by (bank, subarray)
	dense   [][]*stream        // [bank][subarray], non-nil after Prepare

	tra     atomic.Int64
	maj     atomic.Int64
	dcc     atomic.Int64
	gross   atomic.Int64
	flipped atomic.Int64
}

var (
	_ dram.ManyRowFaultInjector = (*Model)(nil)
	_ dram.FaultMaskRecycler    = (*Model)(nil)
)

// New creates a Model from cfg.
func New(cfg Config) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Model{cfg: cfg, tempScale: 1, streams: make(map[[2]int]*stream)}, nil
}

// NewFromProfile creates a Model from a chip-to-chip variation profile: the
// profile's base rates, scaled by its temperature point, with its
// activation-width curve, data-pattern bias, and weak-subarray multipliers
// applied per draw.
func NewFromProfile(p *Profile) (*Model, error) {
	if p == nil {
		return nil, fmt.Errorf("fault: nil profile")
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	cp := p.clone()
	return &Model{
		cfg:       cp.Base,
		prof:      cp,
		tempScale: cp.TempScale(),
		streams:   make(map[[2]int]*stream),
	}, nil
}

// Config returns the model configuration (a profile model's base rates).
func (m *Model) Config() Config { return m.cfg }

// Profile returns the variation profile the model was built from, or nil.
func (m *Model) Profile() *Profile { return m.prof }

// Prepare eagerly creates the per-(bank, subarray) streams for a device of
// the given geometry, so subsequent draws never touch a lock or a map: the
// parallel engine can then drive different banks' fault streams concurrently
// with zero coordination.  Streams created by Prepare are seeded identically
// to lazily created ones, so prepared and unprepared models produce the same
// fault universe.
func (m *Model) Prepare(banks, subarrays int) {
	if banks <= 0 || subarrays <= 0 {
		return
	}
	dense := make([][]*stream, banks)
	for b := range dense {
		dense[b] = make([]*stream, subarrays)
		for s := range dense[b] {
			dense[b][s] = m.newStream(b, s)
		}
	}
	m.dense = dense
}

// Counters returns a snapshot of the injection counters.
func (m *Model) Counters() Counters {
	return Counters{
		TRAEvents:   m.tra.Load(),
		MajEvents:   m.maj.Load(),
		DCCEvents:   m.dcc.Load(),
		GrossRows:   m.gross.Load(),
		FlippedBits: m.flipped.Load(),
	}
}

// ResetCounters zeroes the injection counters.  The random streams keep their
// positions: resetting counters does not replay the fault universe.
func (m *Model) ResetCounters() {
	m.tra.Store(0)
	m.maj.Store(0)
	m.dcc.Store(0)
	m.gross.Store(0)
	m.flipped.Store(0)
}

// activationMask draws the bit-flip + gross-failure mask shared by the TRA
// and MAJ-X paths.  weak and bias configure the data-pattern draw (nil/0 for
// TRA).  Returns the mask and whether the event was a gross failure.
func (m *Model) activationMask(st *stream, words int, bitRate, rowRate float64, weak []uint64, bias float64) ([]uint64, bool) {
	mask := st.bitFlips(nil, words, bitRate, weak, bias)
	gross := false
	if rowRate > 0 && st.rng.float64() < math.Min(rowRate, 1) {
		gross = true
		if mask == nil {
			mask = st.newMask(words)
		}
		// A collapsed activation leaves each bitline at an essentially
		// random level; ANDing two draws flips ~25% of the row.
		for i := range mask {
			mask[i] |= st.rng.next() & st.rng.next()
		}
	}
	return mask, gross
}

// TRAFaultMask implements dram.FaultInjector: bit flips plus possible gross
// failure for one triple-row activation.
func (m *Model) TRAFaultMask(ctx dram.FaultContext, words int) []uint64 {
	if m.cfg.TRABitRate == 0 && m.cfg.TRARowRate == 0 {
		return nil
	}
	st := m.stream(ctx)
	scale := st.rowScale(m, ctx) * m.tempScale * st.mult
	mask, gross := m.activationMask(st, words, m.cfg.TRABitRate*scale, m.cfg.TRARowRate*scale, nil, 0)
	if mask == nil {
		return nil
	}
	m.tra.Add(1)
	if gross {
		m.gross.Add(1)
	}
	m.flipped.Add(popcount(mask))
	return mask
}

// MajFaultMask implements dram.ManyRowFaultInjector: bit flips plus possible
// gross failure for one many-row simultaneous activation of ctx.K wordlines.
// The base rates are additionally scaled by the profile's activation-width
// curve, and — when the profile sets PatternBias — flips are steered toward
// the minimum-charge-margin bits in weak, reproducing the data-pattern
// dependence of the real-chip measurements.
func (m *Model) MajFaultMask(ctx dram.FaultContext, words int, weak []uint64) []uint64 {
	if m.cfg.TRABitRate == 0 && m.cfg.TRARowRate == 0 {
		return nil
	}
	st := m.stream(ctx)
	scale := st.rowScale(m, ctx) * m.tempScale * st.mult * m.kMult(ctx.K)
	var bias float64
	if m.prof != nil {
		bias = m.prof.PatternBias
	}
	mask, gross := m.activationMask(st, words, m.cfg.TRABitRate*scale, m.cfg.TRARowRate*scale, weak, bias)
	if mask == nil {
		return nil
	}
	m.maj.Add(1)
	if gross {
		m.gross.Add(1)
	}
	m.flipped.Add(popcount(mask))
	return mask
}

// DCCFaultMask implements dram.FaultInjector: bit flips for one write through
// a DCC negation wordline.
func (m *Model) DCCFaultMask(ctx dram.FaultContext, words int) []uint64 {
	if m.cfg.DCCBitRate == 0 {
		return nil
	}
	st := m.stream(ctx)
	mask := st.bitFlips(nil, words, m.cfg.DCCBitRate*st.rowScale(m, ctx)*m.tempScale*st.mult, nil, 0)
	if mask == nil {
		return nil
	}
	m.dcc.Add(1)
	m.flipped.Add(popcount(mask))
	return mask
}

// RecycleFaultMask implements dram.FaultMaskRecycler: the storage of an
// applied mask goes back to its (bank, subarray) stream, whose next fired
// draw clears and reuses it instead of allocating.
func (m *Model) RecycleFaultMask(ctx dram.FaultContext, mask []uint64) {
	st := m.stream(ctx)
	st.spare = append(st.spare, mask)
}

// kMult returns the profile's activation-width rate multiplier for a k-row
// simultaneous activation (1 with no profile or an empty curve).  The curve
// is piecewise linear between its points and clamped at the ends.
func (m *Model) kMult(k int) float64 {
	if m.prof == nil || len(m.prof.KCurve) == 0 || k <= 0 {
		return 1
	}
	curve := m.prof.KCurve
	if k <= curve[0].K {
		return curve[0].Mult
	}
	for i := 1; i < len(curve); i++ {
		if k <= curve[i].K {
			lo, hi := curve[i-1], curve[i]
			f := float64(k-lo.K) / float64(hi.K-lo.K)
			return lo.Mult + f*(hi.Mult-lo.Mult)
		}
	}
	return curve[len(curve)-1].Mult
}

// RowScale returns the deterministic per-row rate multiplier for the data row
// at the given physical address (1 when RowVariation is 0).
func (m *Model) RowScale(bank, sub, row int) float64 {
	return m.rowScale(dram.FaultContext{Bank: bank, Subarray: sub, Row: row})
}

// rowScale computes the log-normal per-row multiplier from a pure hash of the
// row coordinates; events with no row context (ctx.Row < 0) scale by 1.
func (m *Model) rowScale(ctx dram.FaultContext) float64 {
	if m.cfg.RowVariation == 0 || ctx.Row < 0 {
		return 1
	}
	h := hash4(uint64(m.cfg.Seed), uint64(ctx.Bank)+1, uint64(ctx.Subarray)+1, uint64(ctx.Row)+1)
	u1 := toFloat(h)
	u2 := toFloat(splitmix(h))
	if u1 < 1e-12 {
		u1 = 1e-12
	}
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	s := math.Exp(m.cfg.RowVariation * z)
	return math.Min(32, math.Max(1.0/32, s))
}

// newStream deterministically constructs the (bank, subarray) random stream
// and its weak-column seed; the seeding is a pure function of the model
// configuration and the coordinates, never of creation order.
func (m *Model) newStream(bank, sub int) *stream {
	st := &stream{rng: rng{s: hash4(uint64(m.cfg.Seed), 0x5f4175, uint64(bank)+1, uint64(sub)+1)}, scaleRow: -1, scale: 1}
	st.weakFrac = m.cfg.WeakColumnFraction
	st.weakSeed = hash4(uint64(m.cfg.Seed), 0xc01, uint64(bank)+1, uint64(sub)+1)
	st.mult = 1
	if m.prof != nil {
		st.mult = m.prof.MultFor(bank, sub)
	}
	return st
}

// stream returns the (bank, subarray) random stream: lock-free from the dense
// table after Prepare, otherwise created on first use under the map lock.
func (m *Model) stream(ctx dram.FaultContext) *stream {
	if m.dense != nil && ctx.Bank >= 0 && ctx.Bank < len(m.dense) &&
		ctx.Subarray >= 0 && ctx.Subarray < len(m.dense[ctx.Bank]) {
		return m.dense[ctx.Bank][ctx.Subarray]
	}
	key := [2]int{ctx.Bank, ctx.Subarray}
	m.mu.Lock()
	st, ok := m.streams[key]
	if !ok {
		st = m.newStream(ctx.Bank, ctx.Subarray)
		m.streams[key] = st
	}
	m.mu.Unlock()
	return st
}

// stream is the per-subarray random state.
type stream struct {
	rng      rng
	mult     float64 // profile weak-subarray rate multiplier (1 = nominal)
	weakFrac float64
	weakSeed uint64
	weakCols []int // lazily built per observed row width
	weakBits int   // row width (bits) the weak set was built for

	scaleRow int     // the row whose rowScale is scale (-1: no row)
	scale    float64 // rowScale of scaleRow

	spare [][]uint64 // applied masks handed back by RecycleFaultMask
}

// rowScale is m.rowScale(ctx) for a context on this stream's subarray,
// keeping the last row's multiplier: a train's draws share its row.
func (s *stream) rowScale(m *Model, ctx dram.FaultContext) float64 {
	if ctx.Row != s.scaleRow {
		s.scaleRow, s.scale = ctx.Row, m.rowScale(ctx)
	}
	return s.scale
}

// newMask returns a zeroed mask of the given width, reusing a recycled one
// when it fits.
func (s *stream) newMask(words int) []uint64 {
	if n := len(s.spare); n > 0 {
		m := s.spare[n-1]
		s.spare = s.spare[:n-1]
		if len(m) == words {
			clear(m)
			return m
		}
	}
	return make([]uint64, words)
}

// bitFlips draws a Poisson number of flipped bits at the given per-bit rate
// and ORs them into mask (taking a zeroed one on the first flip); returns
// the mask (nil if no flips).  When bias > 0 and weak is non-empty, each
// flip lands on a set bit of weak with probability bias (the
// data-pattern-dependent draw); otherwise positions follow the weak-column
// bias, then uniform.
func (s *stream) bitFlips(mask []uint64, words int, rate float64, weak []uint64, bias float64) []uint64 {
	if rate <= 0 {
		return mask
	}
	bits := words * 64
	n := s.rng.poisson(float64(bits) * rate)
	if n > bits {
		n = bits
	}
	weakTotal := int64(0)
	if bias > 0 && n > 0 {
		weakTotal = popcount(weak) // draws nothing
	}
	for i := 0; i < n; i++ {
		if mask == nil {
			mask = s.newMask(words)
		}
		pos := -1
		if weakTotal > 0 && s.rng.float64() < bias {
			pos = nthSetBit(weak, int(s.rng.next()%uint64(weakTotal)))
		}
		if pos < 0 {
			pos = s.pickBit(bits)
		}
		mask[pos/64] |= 1 << uint(pos%64)
	}
	return mask
}

// nthSetBit returns the position of the n-th (0-based) set bit of mask, or -1.
func nthSetBit(mask []uint64, n int) int {
	for w, v := range mask {
		if c := bits.OnesCount64(v); n >= c {
			n -= c
			continue
		}
		for ; n > 0; n-- {
			v &= v - 1
		}
		return w*64 + bits.TrailingZeros64(v)
	}
	return -1
}

// pickBit selects a bit position, biased toward the weak-column set when one
// is configured.
func (s *stream) pickBit(bits int) int {
	if s.weakFrac > 0 {
		if s.weakBits != bits {
			s.buildWeakCols(bits)
		}
		if len(s.weakCols) > 0 && s.rng.float64() < 0.5 {
			return s.weakCols[int(s.rng.next()%uint64(len(s.weakCols)))]
		}
	}
	return int(s.rng.next() % uint64(bits))
}

// buildWeakCols derives the subarray's deterministic weak-column set for the
// given row width.
func (s *stream) buildWeakCols(bits int) {
	n := int(s.weakFrac * float64(bits))
	if n < 1 {
		n = 1
	}
	cols := make([]int, 0, n)
	seen := make(map[int]bool, n)
	h := s.weakSeed
	for len(cols) < n {
		h = splitmix(h)
		c := int(h % uint64(bits))
		if !seen[c] {
			seen[c] = true
			cols = append(cols, c)
		}
	}
	s.weakCols, s.weakBits = cols, bits
}

// rng is a splitmix64 generator: tiny, fast, and deterministic — exactly what
// seeded fault reproduction needs (math/rand's global state would couple
// subarrays together).
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	return splitmix(r.s)
}

func (r *rng) float64() float64 { return toFloat(r.next()) }

// normal draws a standard normal via Box-Muller.
func (r *rng) normal() float64 {
	u1 := r.float64()
	if u1 < 1e-12 {
		u1 = 1e-12
	}
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*r.float64())
}

// poisson draws Poisson(lambda): Knuth's product method for small lambda, a
// rounded normal approximation beyond.
func (r *rng) poisson(lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda > 64 {
		n := int(math.Round(lambda + math.Sqrt(lambda)*r.normal()))
		if n < 0 {
			n = 0
		}
		return n
	}
	limit := math.Exp(-lambda)
	k, p := 0, 1.0
	for {
		p *= r.float64()
		if p <= limit {
			return k
		}
		k++
	}
}

// splitmix is the splitmix64 finalizer.
func splitmix(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// hash4 mixes four words into one (for keying streams and per-row weights).
func hash4(a, b, c, d uint64) uint64 {
	h := splitmix(a ^ 0x9e3779b97f4a7c15)
	h = splitmix(h ^ b)
	h = splitmix(h ^ c)
	h = splitmix(h ^ d)
	return h
}

// toFloat maps a uint64 to [0, 1).
func toFloat(x uint64) float64 { return float64(x>>11) / (1 << 53) }

// popcount counts the set bits of a mask.
func popcount(mask []uint64) int64 {
	var n int64
	for _, w := range mask {
		n += int64(bits.OnesCount64(w))
	}
	return n
}
