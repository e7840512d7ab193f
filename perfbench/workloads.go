package main

import (
	"fmt"
	"math/bits"
	"math/rand"
	"strings"

	"ambit"
)

// workload is one benchmark workload: a seeded input set and the traffic the
// run sends through the system.
type workload struct {
	name string
	why  string
	seed int64 // the default seed
	run  func(options) (*result, error)
}

// workloads are the benchmark's workloads, in the order -workloads all runs
// them.  Each stresses a different layer; README.md gives the rationale.
var workloads = []workload{
	{
		name: "bitmap-direct",
		why:  "Figure 10 bitmap-index query at 8M users through direct calls on 128-row vectors: kernels and the direct exec path do the work",
		seed: 101,
		run:  func(o options) (*result, error) { return runLibrary(&bitmapBench{}, o) },
	},
	{
		name: "bitweave-batch",
		why:  "Figure 11 BitWeaving range scan, one ~70-op Batch per query on a cache-sized column: recording, graph, fusion and scheduling dominate",
		seed: 202,
		run:  func(o options) (*result, error) { return runLibrary(&bitweaveBench{}, o) },
	},
	{
		name: "faulted-ecc",
		why:  "the direct op API under the vendorB-25C fault profile with TMR ECC and MAJ-5: fault streams, verify/retry and the unfused fallback",
		seed: 303,
		run:  func(o options) (*result, error) { return runLibrary(&faultedBench{}, o) },
	},
	{
		name: "service-mixed",
		why:  "two tenants on two connections in a closed loop of ops, popcounts, GETs and PUTs: HTTP decode, admission, encode and metrics dominate",
		seed: 404,
		run:  runService,
	},
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Geometry of the default device: 8 KB rows.
const (
	wordsPerRow = 1024
	rowBits     = 64 * wordsPerRow
)

// allocAll allocates n co-located vectors of the given length.
func allocAll(sys *ambit.System, n int, length int64) ([]*ambit.Bitvector, error) {
	vs := make([]*ambit.Bitvector, n)
	for i := range vs {
		v, err := sys.Alloc(length)
		if err != nil {
			return nil, err
		}
		vs[i] = v
	}
	return vs, nil
}

// install writes each word slice into its vector through the cost-free
// backdoor, so installing inputs moves no simulated statistic.
func install(vs []*ambit.Bitvector, data [][]uint64) error {
	for i, v := range vs {
		if err := v.Write(data[i], ambit.Backdoor()); err != nil {
			return err
		}
	}
	return nil
}

// ---- bitmap-direct ----

// bitmapBench is the Figure 10 query at 8M users (Section 8.1): how many
// users were active in each of the last two weeks, and how many of those are
// male.  This week's activity is the OR of seven daily bitmaps; last week's
// is installed precomputed.
type bitmapBench struct {
	length              int64
	days                [7][]uint64
	prev, gender        []uint64
	wantEvery, wantMale int64
	warmup, exact       int
	live                *bitmapSystem
}

// bitmapSystem is one set-up of the bitmap workload.
type bitmapSystem struct {
	sys                 *ambit.System
	days                [7]*ambit.Bitvector
	prev, gender        *ambit.Bitvector
	acc, out            *ambit.Bitvector
	maleActiveEveryWeek *ambit.Func
}

func (b *bitmapBench) generate(seed int64, scale float64) digest {
	rows := scaled(128, scale, 1)
	b.length = int64(rows) * rowBits
	b.warmup, b.exact = scaled(250, scale, 1), scaled(50, scale, 1)
	n := rows * wordsPerRow
	rng := rand.New(rand.NewSource(seed))
	d := newDigest()
	acc := make([]uint64, n)
	for i := range b.days {
		b.days[i] = randomWords(rng, n, 77) // 30% of users active on a day
		d.add(b.days[i]...)
		for j, w := range b.days[i] {
			acc[j] |= w
		}
	}
	b.prev = randomWords(rng, n, 236) // a week of 30% days: ~92% active
	b.gender = randomWords(rng, n, 128)
	d.add(b.prev...)
	d.add(b.gender...)
	for j, w := range acc {
		every := w & b.prev[j]
		b.wantEvery += int64(bits.OnesCount64(every))
		b.wantMale += int64(bits.OnesCount64(every & b.gender[j]))
	}
	return d
}

func (b *bitmapBench) setup(st *setupTimes) error {
	l := &bitmapSystem{}
	var vs []*ambit.Bitvector
	err := timePhase(&st.new, func() (err error) { l.sys, err = ambit.New(); return err })
	if err == nil {
		err = timePhase(&st.alloc, func() (err error) { vs, err = allocAll(l.sys, 11, b.length); return err })
	}
	if err == nil {
		data := append(b.days[:], b.prev, b.gender)
		err = timePhase(&st.write, func() error { return install(vs[:9], data) })
	}
	if err == nil {
		err = timePhase(&st.compile, func() (err error) {
			l.maleActiveEveryWeek, err = l.sys.Compile("male_active_every_week",
				ambit.And(ambit.Var(0), ambit.Var(1), ambit.Var(2)))
			return err
		})
	}
	if err != nil {
		return err
	}
	copy(l.days[:], vs)
	l.prev, l.gender, l.acc, l.out = vs[7], vs[8], vs[9], vs[10]
	b.live = l
	return nil
}

func (b *bitmapBench) release()              { b.live = nil }
func (b *bitmapBench) system() *ambit.System { return b.live.sys }
func (b *bitmapBench) plan() (int, int, int) { return 1, b.warmup, b.exact }

// query: Copy + 6×Or build this week's activity and And intersects it with
// last week's; the compiled predicate then keeps the male users.  Each
// result is counted.
func (b *bitmapBench) query(_ int, r *recorder) outcome {
	var o outcome
	l := b.live
	s := l.sys
	t := r.begin()
	err := s.Copy(l.acc, l.days[0])
	r.end(layerCopy, t)
	o.check(err)
	for d := 1; d < len(l.days); d++ {
		t = r.begin()
		err = s.Or(l.acc, l.acc, l.days[d])
		r.end(layerApply, t)
		o.check(err)
	}
	t = r.begin()
	err = s.And(l.out, l.acc, l.prev)
	r.end(layerApply, t)
	o.check(err)
	t = r.begin()
	n, err := s.Popcount(l.out)
	r.end(layerPopcount, t)
	o.expect(n, err, b.wantEvery)
	t = r.begin()
	err = l.maleActiveEveryWeek.Run(l.out, l.gender, l.acc, l.prev)
	r.end(layerFuncRun, t)
	o.check(err)
	t = r.begin()
	n, err = s.Popcount(l.out)
	r.end(layerPopcount, t)
	o.expect(n, err, b.wantMale)
	return o
}

// ---- bitweave-batch ----

// weaveBits is the column width of the BitWeaving-V scan.
const weaveBits = 12

// bitweaveBench is the Figure 11 range predicate c1 <= v <= c2 over a
// vertical bit-sliced 12-bit column (Section 8.2), restricted to valid rows of
// a selected partition.  Each query records one Batch: MSB-first lt and gt
// chains over the bit planes, then a compiled 4-input predicate, then a
// popcount.
type bitweaveBench struct {
	length        int64
	planes        [weaveBits][]uint64 // plane p holds bit weaveBits-1-p of each value
	valid, sel    []uint64
	bounds        [][2]uint64
	want          []int64
	warmup, exact int
	live          *bitweaveSystem
}

// bitweaveSystem is one set-up of the bitweave workload.
type bitweaveSystem struct {
	sys                 *ambit.System
	planes              [weaveBits]*ambit.Bitvector
	valid, sel, match   *ambit.Bitvector
	lt, eqL, tmpL, notL *ambit.Bitvector // value < c1 chain
	gt, eqG, tmpG, notG *ambit.Bitvector // value > c2 chain
	inRange             *ambit.Func
}

func (b *bitweaveBench) generate(seed int64, scale float64) digest {
	values := scaled(1<<20, scale, 1)
	rows := (values + rowBits - 1) / rowBits
	b.length = int64(rows) * rowBits
	queries := scaled(256, scale, 4)
	b.warmup, b.exact = queries, queries
	rng := rand.New(rand.NewSource(seed))
	n := rows * wordsPerRow
	for p := range b.planes {
		b.planes[p] = make([]uint64, n)
	}
	vals := make([]uint16, values)
	for i := range vals {
		v := uint16(rng.Intn(1 << weaveBits))
		vals[i] = v
		for p := range b.planes {
			b.planes[p][i/64] |= uint64(v>>(weaveBits-1-p)&1) << (i % 64)
		}
	}
	b.valid = randomWords(rng, n, 230) // ~90% of rows are not null
	b.sel = randomWords(rng, n, 128)   // the partition a query selects
	for i := values; i < n*64; i++ {
		b.valid[i/64] &^= 1 << (i % 64) // padding rows never match
	}
	// Reference: a histogram of the selected values, so each query's answer
	// is a difference of prefix sums.
	var prefix [1<<weaveBits + 1]int64
	for i, v := range vals {
		if (b.valid[i/64]&b.sel[i/64])>>(i%64)&1 == 1 {
			prefix[v+1]++
		}
	}
	for v := 1; v < len(prefix); v++ {
		prefix[v] += prefix[v-1]
	}
	d := newDigest()
	b.bounds = make([][2]uint64, queries)
	b.want = make([]int64, queries)
	for q := range b.bounds {
		c1, c2 := uint64(rng.Intn(1<<weaveBits)), uint64(rng.Intn(1<<weaveBits))
		if c1 > c2 {
			c1, c2 = c2, c1
		}
		b.bounds[q] = [2]uint64{c1, c2}
		b.want[q] = prefix[c2+1] - prefix[c1]
		d.add(c1, c2)
	}
	for _, p := range b.planes {
		d.add(p...)
	}
	d.add(b.valid...)
	d.add(b.sel...)
	return d
}

func (b *bitweaveBench) setup(st *setupTimes) error {
	l := &bitweaveSystem{}
	var vs []*ambit.Bitvector
	err := timePhase(&st.new, func() (err error) { l.sys, err = ambit.New(); return err })
	if err == nil {
		err = timePhase(&st.alloc, func() (err error) { vs, err = allocAll(l.sys, weaveBits+11, b.length); return err })
	}
	if err == nil {
		data := append(b.planes[:], b.valid, b.sel)
		err = timePhase(&st.write, func() error { return install(vs[:weaveBits+2], data) })
	}
	if err == nil {
		err = timePhase(&st.compile, func() (err error) {
			v := ambit.Var
			l.inRange, err = l.sys.Compile("in_range", ambit.And(ambit.Not(v(0)), ambit.Not(v(1)), v(2), v(3)))
			return err
		})
	}
	if err != nil {
		return err
	}
	copy(l.planes[:], vs)
	rest := vs[weaveBits:]
	l.valid, l.sel, l.match = rest[0], rest[1], rest[2]
	l.lt, l.eqL, l.tmpL, l.notL = rest[3], rest[4], rest[5], rest[6]
	l.gt, l.eqG, l.tmpG, l.notG = rest[7], rest[8], rest[9], rest[10]
	b.live = l
	return nil
}

func (b *bitweaveBench) release()              { b.live = nil }
func (b *bitweaveBench) system() *ambit.System { return b.live.sys }
func (b *bitweaveBench) plan() (int, int, int) { return len(b.bounds), b.warmup, b.exact }

func (b *bitweaveBench) query(i int, r *recorder) outcome {
	var o outcome
	l := b.live
	c1, c2 := b.bounds[i][0], b.bounds[i][1]
	t := r.begin()
	bt := l.sys.NewBatch()
	o.check(bt.Fill(l.lt, false))
	o.check(bt.Fill(l.eqL, true))
	o.check(bt.Fill(l.gt, false))
	o.check(bt.Fill(l.eqG, true))
	for p, x := range l.planes {
		shift := uint(weaveBits - 1 - p)
		o.check(bt.Not(l.notL, x))
		if c1>>shift&1 == 1 {
			// Rows with x=0 and an equal prefix are less than c1.
			o.check(bt.And(l.tmpL, l.eqL, l.notL))
			o.check(bt.Or(l.lt, l.lt, l.tmpL))
			o.check(bt.And(l.eqL, l.eqL, x))
		} else {
			o.check(bt.And(l.eqL, l.eqL, l.notL))
		}
		if c2>>shift&1 == 1 {
			o.check(bt.And(l.eqG, l.eqG, x))
		} else {
			// Rows with x=1 and an equal prefix are greater than c2.
			o.check(bt.And(l.tmpG, l.eqG, x))
			o.check(bt.Or(l.gt, l.gt, l.tmpG))
			o.check(bt.Not(l.notG, x))
			o.check(bt.And(l.eqG, l.eqG, l.notG))
		}
	}
	o.check(bt.Call(l.inRange, []*ambit.Bitvector{l.match}, l.lt, l.gt, l.valid, l.sel))
	count, err := bt.Popcount(l.match)
	o.check(err)
	r.end(layerBatchRecord, t)
	t = r.begin()
	rep, err := bt.Run()
	r.end(layerBatchRun, t)
	o.check(err)
	if err == nil && count != nil {
		o.batch = rep
		n, err := count.Value()
		o.expect(n, err, b.want[i])
	}
	return o
}

// ---- faulted-ecc ----

// faultRateScale scales the profile's base fault rates.  TMR replicas share
// their subarray's weak columns and hot rows, so at the shipped rates two
// replicas often flip the same bit and out-vote the correct one: ~9% of ECC
// answers come back wrong, and 0.07% still do at 1/10 of the rates.  At
// 1/1000 a wrong answer is expected about once in 10^7 queries, so the
// ECC-protected answers can be checked exactly.  Any armed fault model takes
// the same unfused, verified execution path, whatever its rates.
const faultRateScale = 1e-3

// faultedInputs is the size of the faulted workload's input pool.
const faultedInputs = 6

// faultedQuery picks a query's operands from the input pool.
type faultedQuery struct{ a, b, c, x, y int }

// faultedBench runs the direct op API on measured-silicon faults: the
// vendorB-25C variation profile, TMR ECC with up to 3 retries, and MAJ-5
// many-row majority.  Each query is And, an in-place Xor, a 3-input Maj and
// two popcounts.  And and Xor run under TMR, so their answer must be exact;
// Maj runs outside it, so its deviation is recorded, not failed.
type faultedBench struct {
	length        int64
	seed          int64
	inputs        [faultedInputs][]uint64
	queries       []faultedQuery
	wantT, wantM  []int64
	warmup, exact int
	live          *faultedSystem
}

// faultedSystem is one set-up of the faulted workload.
type faultedSystem struct {
	sys    *ambit.System
	inputs [faultedInputs]*ambit.Bitvector
	t, m   *ambit.Bitvector
}

func (b *faultedBench) generate(seed int64, scale float64) digest {
	rows := scaled(8, scale, 1)
	b.length = int64(rows) * rowBits
	b.seed = seed
	n := rows * wordsPerRow
	queries := scaled(512, scale, 4)
	b.warmup, b.exact = queries, queries
	rng := rand.New(rand.NewSource(seed))
	d := newDigest()
	for i := range b.inputs {
		b.inputs[i] = randomWords(rng, n, 128)
		d.add(b.inputs[i]...)
	}
	b.queries = make([]faultedQuery, queries)
	b.wantT = make([]int64, queries)
	b.wantM = make([]int64, queries)
	for q := range b.queries {
		fq := faultedQuery{a: rng.Intn(faultedInputs), b: rng.Intn(faultedInputs), c: rng.Intn(faultedInputs), x: rng.Intn(faultedInputs)}
		fq.y = (fq.x + 1 + rng.Intn(faultedInputs-1)) % faultedInputs // Maj sources are distinct
		b.queries[q] = fq
		d.add(uint64(fq.a), uint64(fq.b), uint64(fq.c), uint64(fq.x), uint64(fq.y))
		in := &b.inputs
		for j := 0; j < n; j++ {
			t := in[fq.a][j]&in[fq.b][j] ^ in[fq.c][j]
			x, y := in[fq.x][j], in[fq.y][j]
			b.wantT[q] += int64(bits.OnesCount64(t))
			b.wantM[q] += int64(bits.OnesCount64(t&x | t&y | x&y))
		}
	}
	return d
}

func (b *faultedBench) setup(st *setupTimes) error {
	profile, ok := ambit.FaultProfileByName("vendorB-25C")
	if !ok {
		return fmt.Errorf("no vendorB-25C fault profile")
	}
	profile.Base.Seed = b.seed // the workload seed picks the fault universe
	profile.Base.TRABitRate *= faultRateScale
	profile.Base.TRARowRate *= faultRateScale
	profile.Base.DCCBitRate *= faultRateScale
	l := &faultedSystem{}
	var vs []*ambit.Bitvector
	err := timePhase(&st.new, func() (err error) {
		l.sys, err = ambit.New(
			ambit.WithFaultProfile(profile),
			ambit.WithReliability(ambit.Reliability{ECC: true, MaxRetries: 3}),
			ambit.WithManyRowMaj(5))
		return err
	})
	if err == nil {
		err = timePhase(&st.alloc, func() (err error) { vs, err = allocAll(l.sys, faultedInputs+2, b.length); return err })
	}
	if err == nil {
		err = timePhase(&st.write, func() error { return install(vs[:faultedInputs], b.inputs[:]) })
	}
	if err != nil {
		return err
	}
	copy(l.inputs[:], vs)
	l.t, l.m = vs[faultedInputs], vs[faultedInputs+1]
	b.live = l
	return nil
}

func (b *faultedBench) release()              { b.live = nil }
func (b *faultedBench) system() *ambit.System { return b.live.sys }
func (b *faultedBench) plan() (int, int, int) { return len(b.queries), b.warmup, b.exact }

func (b *faultedBench) query(i int, r *recorder) outcome {
	var o outcome
	l := b.live
	s := l.sys
	q := b.queries[i]
	t := r.begin()
	err := s.And(l.t, l.inputs[q.a], l.inputs[q.b])
	r.end(layerApply, t)
	o.check(err)
	t = r.begin()
	err = s.Xor(l.t, l.t, l.inputs[q.c])
	r.end(layerApply, t)
	o.check(err)
	t = r.begin()
	err = s.Maj(l.m, l.t, l.inputs[q.x], l.inputs[q.y])
	r.end(layerMaj, t)
	o.check(err)
	t = r.begin()
	n, err := s.Popcount(l.t)
	r.end(layerPopcount, t)
	o.expect(n, err, b.wantT[i])
	t = r.begin()
	n, err = s.Popcount(l.m)
	r.end(layerPopcount, t)
	o.check(err)
	if err == nil {
		o.majErr = n - b.wantM[i]
		if o.majErr < 0 {
			o.majErr = -o.majErr
		}
	}
	return o
}
