package ambit

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation, plus the ablation studies called out in DESIGN.md §5.  The
// headline quantities (speedups, failure rates, energies) are attached to
// each benchmark via b.ReportMetric, so `go test -bench=. -benchmem`
// regenerates the paper's numbers alongside the harness's own cost.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"ambit/internal/bitmap"
	"ambit/internal/bitvec"
	"ambit/internal/bitweaving"
	"ambit/internal/circuit"
	"ambit/internal/controller"
	"ambit/internal/dram"
	"ambit/internal/ecc"
	"ambit/internal/energy"
	"ambit/internal/isa"
	"ambit/internal/perfmodel"
	"ambit/internal/refresh"
	"ambit/internal/rowclone"
	"ambit/internal/sched"
	"ambit/internal/sets"
	"ambit/internal/sysmodel"
	"ambit/internal/wah"
)

// BenchmarkTable2MonteCarlo regenerates Table 2 (TRA failure rate under
// process variation, Section 6).
func BenchmarkTable2MonteCarlo(b *testing.B) {
	p := circuit.DefaultParams()
	var last []circuit.MCResult
	for i := 0; i < b.N; i++ {
		last = circuit.Table2(p, 20000, int64(i)+1)
	}
	for _, r := range last {
		b.ReportMetric(r.FailureRate()*100, fmt.Sprintf("failpct_at_%.0f", r.Variation*100))
	}
}

// BenchmarkWorstCaseTRA regenerates the Section 6 adversarial analysis
// (works to ±6%).
func BenchmarkWorstCaseTRA(b *testing.B) {
	p := circuit.DefaultParams()
	var v float64
	for i := 0; i < b.N; i++ {
		v = circuit.MaxReliableVariation(p)
	}
	b.ReportMetric(v*100, "max_reliable_pct")
}

// BenchmarkFig9Throughput regenerates Figure 9 (raw throughput of the five
// systems) and reports the headline mean-throughput ratios.
func BenchmarkFig9Throughput(b *testing.B) {
	var sp perfmodel.Speedups
	for i := 0; i < b.N; i++ {
		_ = perfmodel.Figure9()
		sp = perfmodel.ComputeSpeedups()
	}
	b.ReportMetric(sp.AmbitVsSkylake, "ambit_vs_skylake_x")
	b.ReportMetric(sp.AmbitVsGTX745, "ambit_vs_gtx745_x")
	b.ReportMetric(sp.AmbitVsHMC, "ambit_vs_hmc_x")
	b.ReportMetric(sp.Ambit3DVsHMC, "ambit3d_vs_hmc_x")
}

// BenchmarkTable3Energy regenerates Table 3 (energy of bulk bitwise ops).
func BenchmarkTable3Energy(b *testing.B) {
	m := energy.DefaultModel()
	g := dram.DefaultGeometry()
	var rows []energy.Table3Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = energy.Table3(m, g)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.Reduction, "reduction_"+r.Label+"_x")
	}
}

// BenchmarkFig10BitmapIndex regenerates Figure 10 (bitmap-index queries).
func BenchmarkFig10BitmapIndex(b *testing.B) {
	m := sysmodel.MustDefault()
	var pts []bitmap.Figure10Point
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = bitmap.Figure10(m)
		if err != nil {
			b.Fatal(err)
		}
	}
	var sum float64
	for _, p := range pts {
		sum += p.Speedup
	}
	b.ReportMetric(sum/float64(len(pts)), "mean_speedup_x")
}

// BenchmarkFig11BitWeaving regenerates Figure 11 (column-scan speedups).
func BenchmarkFig11BitWeaving(b *testing.B) {
	m := sysmodel.MustDefault()
	var pts []bitweaving.Figure11Point
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = bitweaving.Figure11(m)
		if err != nil {
			b.Fatal(err)
		}
	}
	var sum, max float64
	min := 1e18
	for _, p := range pts {
		sum += p.Speedup
		if p.Speedup > max {
			max = p.Speedup
		}
		if p.Speedup < min {
			min = p.Speedup
		}
	}
	b.ReportMetric(sum/float64(len(pts)), "mean_speedup_x")
	b.ReportMetric(min, "min_speedup_x")
	b.ReportMetric(max, "max_speedup_x")
}

// BenchmarkFig12Sets regenerates Figure 12 (set operations).
func BenchmarkFig12Sets(b *testing.B) {
	m := sysmodel.MustDefault()
	var pts []sets.Figure12Point
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = sets.Figure12(m)
		if err != nil {
			b.Fatal(err)
		}
	}
	// Geometric-mean Ambit speedup over RB-trees at e >= 64 (paper: ~3X).
	prod, n := 1.0, 0
	for _, p := range pts {
		if p.Elements >= 64 {
			prod *= 1 / p.AmbitNorm
			n++
		}
	}
	b.ReportMetric(math.Pow(prod, 1/float64(n)), "geomean_vs_rbtree_x")
}

// BenchmarkAAPSplitDecoderAblation quantifies the Section 5.3 optimization
// (DESIGN.md ablation 1): AAP latency 80 ns -> 49 ns and its throughput
// effect.
func BenchmarkAAPSplitDecoderAblation(b *testing.B) {
	on := perfmodel.Ambit8Banks()
	off := on
	off.SplitDecoder = false
	var gain float64
	for i := 0; i < b.N; i++ {
		gain = on.Throughput(controller.OpAnd) / off.Throughput(controller.OpAnd)
	}
	b.ReportMetric(gain, "and_throughput_gain_x")
	b.ReportMetric(on.Timing.AAPSplit(), "aap_split_ns")
	b.ReportMetric(on.Timing.AAPNaive(), "aap_naive_ns")
}

// BenchmarkRowCloneModes compares FPM, PSM, and controller-mediated copies
// (DESIGN.md ablation 2) on the real device model.
func BenchmarkRowCloneModes(b *testing.B) {
	g := dram.Geometry{Banks: 2, SubarraysPerBank: 2, RowsPerSubarray: 64, RowSizeBytes: 8192}
	dev, err := dram.NewDevice(dram.Config{Geometry: g, Timing: dram.DDR3_1600()})
	if err != nil {
		b.Fatal(err)
	}
	e := rowclone.New(dev)
	b.Run("FPM", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := e.FPM(0, 0, dram.D(0), dram.D(1)); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(e.FPMLatencyNS(), "simulated_ns")
	})
	b.Run("PSM", func(b *testing.B) {
		src := dram.PhysAddr{Bank: 0, Subarray: 0, Row: dram.D(0)}
		dst := dram.PhysAddr{Bank: 1, Subarray: 0, Row: dram.D(0)}
		for i := 0; i < b.N; i++ {
			if _, err := e.PSM(src, dst); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(e.PSMLatencyNS(), "simulated_ns")
	})
	b.Run("MemcpyBaseline", func(b *testing.B) {
		src := dram.PhysAddr{Bank: 0, Subarray: 0, Row: dram.D(0)}
		dst := dram.PhysAddr{Bank: 1, Subarray: 0, Row: dram.D(1)}
		for i := 0; i < b.N; i++ {
			if _, err := e.MCCopy(src, dst); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(e.MCLatencyNS(), "simulated_ns")
	})
}

// BenchmarkBankScaling verifies the linear bank-level-parallelism scaling
// claim (DESIGN.md ablation 4; Section 7).
func BenchmarkBankScaling(b *testing.B) {
	for _, banks := range []int{1, 2, 4, 8, 16, 32} {
		sys := perfmodel.Ambit8Banks()
		sys.Geom.Banks = banks
		var tput float64
		b.Run(fmt.Sprintf("banks-%d", banks), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tput = sys.Throughput(controller.OpAnd)
			}
			b.ReportMetric(tput, "and_gops")
			b.ReportMetric(float64(banks), "banks")
		})
	}
}

// BenchmarkBGroupSizeAblation compares the paper's 4-designated-row /
// 2-DCC-row B-group (xor in 5 AAPs + 2 APs) against a minimal 3+1 design
// where xor must be composed from not/and/or (DESIGN.md ablation 3).
func BenchmarkBGroupSizeAblation(b *testing.B) {
	t := dram.DDR3_1600()
	sys := perfmodel.Ambit8Banks()
	var full, minimal float64
	for i := 0; i < b.N; i++ {
		full = sys.OpLatencyNS(controller.OpXor)
		// Minimal B-group: xor = or(and(a, not b), and(not a, b)),
		// five separate operations.
		minimal = sys.OpLatencyNS(controller.OpNot)*2 +
			sys.OpLatencyNS(controller.OpAnd)*2 +
			sys.OpLatencyNS(controller.OpOr)
	}
	_ = t
	b.ReportMetric(full, "xor_full_bgroup_ns")
	b.ReportMetric(minimal, "xor_minimal_bgroup_ns")
	b.ReportMetric(minimal/full, "penalty_x")
}

// BenchmarkPlacementAblation quantifies the driver's subarray co-location
// contract (Section 5.4.2; DESIGN.md ablation 5): a binary op whose operands
// are not co-located needs PSM copies in and out.
func BenchmarkPlacementAblation(b *testing.B) {
	g := dram.DefaultGeometry()
	dev, err := dram.NewDevice(dram.Config{Geometry: g, Timing: dram.DDR3_1600()})
	if err != nil {
		b.Fatal(err)
	}
	e := rowclone.New(dev)
	sys := perfmodel.Ambit8Banks()
	var colocated, scattered float64
	for i := 0; i < b.N; i++ {
		colocated = sys.OpLatencyNS(controller.OpAnd)
		// Scattered: copy both sources into the destination subarray
		// via PSM, run the op, result already in place.
		scattered = colocated + 2*e.PSMLatencyNS()
	}
	b.ReportMetric(colocated, "colocated_ns")
	b.ReportMetric(scattered, "scattered_ns")
	b.ReportMetric(scattered/colocated, "penalty_x")
}

// BenchmarkFunctionalBulkOps measures the real (host) cost of the functional
// DRAM simulation executing bulk operations through the public API.
func BenchmarkFunctionalBulkOps(b *testing.B) {
	for _, op := range controller.Ops {
		op := op
		b.Run(op.String(), func(b *testing.B) {
			sys, err := New()
			if err != nil {
				b.Fatal(err)
			}
			const bits = 1 << 20
			x := sys.MustAlloc(bits)
			y := sys.MustAlloc(bits)
			d := sys.MustAlloc(bits)
			rng := rand.New(rand.NewSource(1))
			w := make([]uint64, x.WordCount())
			for i := range w {
				w[i] = rng.Uint64()
			}
			if err := x.Write(w, Backdoor()); err != nil {
				b.Fatal(err)
			}
			if err := y.Write(w, Backdoor()); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(bits / 8)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := sys.Apply(op, d, x, y); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDirectOps measures the hot direct-op path (System.Apply) across
// operation types and row counts.  The allocator spreads consecutive rows
// across banks, so rows >= 8 exercises every bank of the default geometry:
// the per-bank sharded dispatch and the compiled command-train cache both
// show up here (wall-clock and allocs/op; `ambitbench -json` captures the
// same grid into the committed BENCH_*.json trajectory).
func BenchmarkDirectOps(b *testing.B) {
	for _, rows := range []int{1, 8, 64} {
		for _, op := range []controller.Op{controller.OpAnd, controller.OpOr, controller.OpNot, controller.OpXor} {
			op, rows := op, rows
			b.Run(fmt.Sprintf("%s-rows%d", op, rows), func(b *testing.B) {
				sys, err := New()
				if err != nil {
					b.Fatal(err)
				}
				bits := int64(rows) * int64(sys.RowSizeBits())
				x, y, d := sys.MustAlloc(bits), sys.MustAlloc(bits), sys.MustAlloc(bits)
				rng := rand.New(rand.NewSource(1))
				w := make([]uint64, x.WordCount())
				for i := range w {
					w[i] = rng.Uint64()
				}
				if err := x.Write(w, Backdoor()); err != nil {
					b.Fatal(err)
				}
				if err := y.Write(w, Backdoor()); err != nil {
					b.Fatal(err)
				}
				b.SetBytes(bits / 8)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := sys.Apply(op, d, x, y); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFaultedDirectOps measures the direct op API under an armed fault
// model, at the perfbench faulted-ecc configuration: the vendorB-25C profile
// at 1/1000 of its rates, TMR ECC with up to 3 retries and MAJ-5, on 8-row
// vectors.  The sub-benchmarks are the query's ECC And, in-place ECC Xor and
// 3-input Maj, and the whole query (those three plus two popcounts).
func BenchmarkFaultedDirectOps(b *testing.B) {
	for _, name := range []string{"And", "XorInPlace", "Maj", "Query"} {
		b.Run(name, func(b *testing.B) {
			profile, ok := FaultProfileByName("vendorB-25C")
			if !ok {
				b.Fatal("builtin vendorB-25C missing")
			}
			profile.Base.Seed = 1
			profile.Base.TRABitRate *= 1e-3
			profile.Base.TRARowRate *= 1e-3
			profile.Base.DCCBitRate *= 1e-3
			sys, err := New(WithFaultProfile(profile), WithReliability(Reliability{ECC: true, MaxRetries: 3}), WithManyRowMaj(5))
			if err != nil {
				b.Fatal(err)
			}
			bits := 8 * int64(sys.RowSizeBits())
			var v [7]*Bitvector
			rng := rand.New(rand.NewSource(1))
			for i := range v {
				v[i] = sys.MustAlloc(bits)
				w := make([]uint64, v[i].WordCount())
				for j := range w {
					w[j] = rng.Uint64()
				}
				if err := v[i].Write(w, Backdoor()); err != nil {
					b.Fatal(err)
				}
			}
			x, y, z, t, m := v[0], v[1], v[2], v[5], v[6]
			ops := map[string]func() error{
				"And":        func() error { return sys.And(t, x, y) },
				"XorInPlace": func() error { return sys.Xor(t, t, z) },
				"Maj":        func() error { return sys.Maj(m, t, v[3], v[4]) },
				"Query": func() error {
					if err := sys.And(t, x, y); err != nil {
						return err
					}
					if err := sys.Xor(t, t, z); err != nil {
						return err
					}
					if err := sys.Maj(m, t, v[3], v[4]); err != nil {
						return err
					}
					if _, err := sys.Popcount(t); err != nil {
						return err
					}
					_, err := sys.Popcount(m)
					return err
				},
			}
			op := ops[name]
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := op(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCoherenceAblation prices Ambit app-level operations with and
// without the Section 5.4.4 coherence charge (DESIGN.md ablation 6).
func BenchmarkCoherenceAblation(b *testing.B) {
	m := sysmodel.MustDefault()
	noCoh := *m
	noCoh.CoherenceGBps = 1e18 // effectively free
	const mb = 1 << 20
	var with, without float64
	for i := 0; i < b.N; i++ {
		with = m.AmbitBitwiseNS(controller.OpAnd, mb)
		without = noCoh.AmbitBitwiseNS(controller.OpAnd, mb)
	}
	b.ReportMetric(with, "with_coherence_ns")
	b.ReportMetric(without, "without_coherence_ns")
	b.ReportMetric(with/without, "overhead_x")
}

// BenchmarkFRFCFSScheduler exercises the Table-4 scheduling policy with
// mixed Ambit + regular traffic (Section 5.5.2) and reports the row-hit rate
// and the FR-FCFS-vs-FCFS makespan gain.
func BenchmarkFRFCFSScheduler(b *testing.B) {
	mkReqs := func() []sched.Request {
		rng := rand.New(rand.NewSource(1))
		var reqs []sched.Request
		id := 0
		for i := 0; i < 400; i++ {
			reqs = append(reqs, sched.Request{
				ID: id, Kind: sched.Kind(rng.Intn(2)), Bank: rng.Intn(8),
				Row: dram.D(rng.Intn(4)), ArrivalNS: float64(rng.Intn(2000)),
			})
			id++
		}
		steps := []sched.TrainStep{
			{Addr1: dram.D(0), Addr2: dram.B(0)},
			{Addr1: dram.D(1), Addr2: dram.B(1)},
			{Addr1: dram.C(0), Addr2: dram.B(2)},
			{Addr1: dram.B(12), Addr2: dram.D(2)},
		}
		for w := 0; w < 20; w++ {
			reqs = append(reqs, sched.AmbitOpRequests(w%8, steps, float64(w*100), id)...)
			id += len(steps)
		}
		return reqs
	}
	var frStats, fcStats sched.Stats
	for i := 0; i < b.N; i++ {
		fr, err := sched.New(8, dram.DDR3_1600())
		if err != nil {
			b.Fatal(err)
		}
		if _, frStats, err = fr.Run(mkReqs()); err != nil {
			b.Fatal(err)
		}
		fc, err := sched.New(8, dram.DDR3_1600())
		if err != nil {
			b.Fatal(err)
		}
		fc.FCFSOnly = true
		if _, fcStats, err = fc.Run(mkReqs()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(frStats.HitRate()*100, "frfcfs_hit_pct")
	b.ReportMetric(fcStats.MakespanNS/frStats.MakespanNS, "frfcfs_gain_x")
}

// BenchmarkTMROverhead measures TMR ECC's compute overhead (Section 5.4.5:
// 3x by construction) on real encode/apply/decode work.
func BenchmarkTMROverhead(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	data1 := make([]uint64, 1024)
	data2 := make([]uint64, 1024)
	for i := range data1 {
		data1[i], data2[i] = rng.Uint64(), rng.Uint64()
	}
	ca, cb := ecc.Encode(data1), ecc.Encode(data2)
	b.SetBytes(1024 * 8)
	for i := 0; i < b.N; i++ {
		out, err := ecc.Apply(controller.OpXor, ca, cb)
		if err != nil {
			b.Fatal(err)
		}
		if _, corrected := out.Decode(); corrected != 0 {
			b.Fatal("unexpected corrections")
		}
	}
	b.ReportMetric(float64(ecc.OperationOverhead), "op_overhead_x")
	b.ReportMetric(float64(ecc.CapacityOverhead), "capacity_overhead_x")
}

// BenchmarkISADispatch measures bbop execution through the Section 5.4.3
// dispatch path (Ambit-eligible full-row operations).
func BenchmarkISADispatch(b *testing.B) {
	dev, err := dram.NewDevice(dram.Config{
		Geometry: dram.Geometry{Banks: 4, SubarraysPerBank: 2, RowsPerSubarray: 64, RowSizeBytes: 8192},
		Timing:   dram.DDR3_1600(),
	})
	if err != nil {
		b.Fatal(err)
	}
	exec, err := isa.NewExecutor(dev)
	if err != nil {
		b.Fatal(err)
	}
	am := exec.AddressMap()
	stride := am.RowSize() * int64(am.Slots())
	in := isa.Instruction{Op: controller.OpAnd, Dst: 2 * stride, Src1: 0, Src2: stride, Size: am.RowSize()}
	b.SetBytes(am.RowSize())
	for i := 0; i < b.N; i++ {
		path, _, err := exec.Execute(in)
		if err != nil {
			b.Fatal(err)
		}
		if path != isa.PathAmbit {
			b.Fatal("not dispatched to Ambit")
		}
	}
}

// BenchmarkRetentionMargin quantifies Section 3.2 issue 4: the worst-case
// TRA variation tolerance for fresh vs refresh-deadline-stale cells.
func BenchmarkRetentionMargin(b *testing.B) {
	var fresh, stale float64
	for i := 0; i < b.N; i++ {
		fresh = refresh.MaxReliableVariationWithDecay(0)
		stale = refresh.MaxReliableVariationWithDecay(refresh.DefaultConfig().MaxDecayAtDeadline)
	}
	b.ReportMetric(fresh*100, "fresh_max_var_pct")
	b.ReportMetric(stale*100, "stale_max_var_pct")
}

// BenchmarkLISAAblation quantifies the footnote-3 future-work extension:
// LISA vs PSM for intra-bank inter-subarray copies.
func BenchmarkLISAAblation(b *testing.B) {
	g := dram.Geometry{Banks: 1, SubarraysPerBank: 8, RowsPerSubarray: 64, RowSizeBytes: 8192}
	dev, err := dram.NewDevice(dram.Config{Geometry: g, Timing: dram.DDR3_1600()})
	if err != nil {
		b.Fatal(err)
	}
	e := rowclone.New(dev)
	e.EnableLISA = true
	src := dram.PhysAddr{Bank: 0, Subarray: 0, Row: dram.D(0)}
	dst := dram.PhysAddr{Bank: 0, Subarray: 1, Row: dram.D(0)}
	for i := 0; i < b.N; i++ {
		if _, err := e.LISA(src, dst); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(e.LISALatencyNS(0, 1), "lisa_ns")
	b.ReportMetric(e.PSMLatencyNS(), "psm_ns")
	b.ReportMetric(e.PSMLatencyNS()/e.LISALatencyNS(0, 1), "lisa_gain_x")
}

// BenchmarkWAHTradeoff measures the compressed-bitmap-baseline trade-off
// (Section 8.1 context: FastBit compresses its bitmaps with WAH, Ambit needs
// uncompressed rows).  For sparse bitmaps the compressed CPU baseline
// touches few bytes; for dense bitmaps Ambit's raw in-DRAM throughput wins.
func BenchmarkWAHTradeoff(b *testing.B) {
	m := sysmodel.MustDefault()
	const n = 8 << 20 // 8 Mib bitmaps
	for _, density := range []float64{0.0001, 0.01, 0.5} {
		b.Run(fmt.Sprintf("density-%g", density), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			va := bitvec.New(n)
			vb := bitvec.New(n)
			for i := int64(0); i < n; i++ {
				if rng.Float64() < density {
					va.Set(i, true)
				}
				if rng.Float64() < density {
					vb.Set(i, true)
				}
			}
			ca, cb := wah.Compress(va), wah.Compress(vb)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := wah.And(ca, cb); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			// Modelled times: the compressed CPU baseline streams the
			// compressed operands; Ambit processes the full rows.
			compressedBytes := int64(ca.SizeWords()+cb.SizeWords()) * 8
			wahNS := m.StreamNS(compressedBytes)
			ambitNS := m.AmbitBitwiseNS(controller.OpAnd, n/8)
			b.ReportMetric(ca.CompressionRatio(), "compression_x")
			b.ReportMetric(wahNS, "wah_cpu_ns")
			b.ReportMetric(ambitNS, "ambit_ns")
			b.ReportMetric(wahNS/ambitNS, "ambit_gain_x")
		})
	}
}

// BenchmarkBatchVsSequential measures the batch execution engine against
// direct one-at-a-time calls on the same workload: independent single-row
// XORs spread across the device with AllocAt, so each operation occupies a
// different bank.  Sequential issue serializes them on the global clock;
// the batch overlaps them on per-bank timelines (simulated makespan) and
// runs the functional simulation as parallel per-bank streams (wall-clock).  The
// reported simulated_gain_x is the headline number: it approaches the bank
// count when the groups spread evenly.
func BenchmarkBatchVsSequential(b *testing.B) {
	const groups = 64
	setup := func(b *testing.B) (*System, [][3]*Bitvector) {
		sys, err := New()
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(9))
		gs := make([][3]*Bitvector, groups)
		rowBits := int64(sys.RowSizeBits())
		for i := range gs {
			for j := range gs[i] {
				v, err := sys.AllocAt(rowBits, i)
				if err != nil {
					b.Fatal(err)
				}
				gs[i][j] = v
			}
			w := make([]uint64, gs[i][0].WordCount())
			for k := range w {
				w[k] = rng.Uint64()
			}
			if err := gs[i][0].Write(w, Backdoor()); err != nil {
				b.Fatal(err)
			}
			for k := range w {
				w[k] = rng.Uint64()
			}
			if err := gs[i][1].Write(w, Backdoor()); err != nil {
				b.Fatal(err)
			}
		}
		return sys, gs
	}
	bytesPerRound := int64(groups) * int64(dram.DefaultGeometry().RowSizeBytes)

	var seqNS, batNS float64
	b.Run("Sequential", func(b *testing.B) {
		sys, gs := setup(b)
		b.SetBytes(bytesPerRound)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sys.ResetStats()
			for _, g := range gs {
				if err := sys.Xor(g[2], g[0], g[1]); err != nil {
					b.Fatal(err)
				}
			}
			seqNS = sys.ElapsedNS()
		}
		b.ReportMetric(seqNS, "simulated_ns")
	})
	b.Run("Batch", func(b *testing.B) {
		sys, gs := setup(b)
		b.SetBytes(bytesPerRound)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sys.ResetStats()
			batch := sys.NewBatch()
			for _, g := range gs {
				if err := batch.Xor(g[2], g[0], g[1]); err != nil {
					b.Fatal(err)
				}
			}
			rep, err := batch.Run()
			if err != nil {
				b.Fatal(err)
			}
			batNS = rep.MakespanNS
		}
		b.ReportMetric(batNS, "simulated_ns")
		if seqNS > 0 {
			b.ReportMetric(seqNS/batNS, "simulated_gain_x")
		}
	})
}

// BenchmarkSubarrayScaling extends the bank-scaling ablation with
// subarray-level parallelism (SALP): the second lever of the paper's
// linear-scaling claim.
func BenchmarkSubarrayScaling(b *testing.B) {
	for _, salp := range []int{1, 2, 4, 8} {
		sys := perfmodel.Ambit8Banks()
		sys.SubarrayParallelism = salp
		b.Run(fmt.Sprintf("salp-%d", salp), func(b *testing.B) {
			var tput float64
			for i := 0; i < b.N; i++ {
				tput = sys.Throughput(controller.OpAnd)
			}
			b.ReportMetric(tput, "and_gops")
		})
	}
}
