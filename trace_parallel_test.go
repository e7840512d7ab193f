package ambit

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"

	"ambit/internal/controller"
	"ambit/internal/dram"
)

// captureTraceParallel runs one single-row op exactly like captureTrace but
// with the execution core pinned to 8 workers, returning the raw JSONL bytes.
func captureTraceParallel(t *testing.T, op controller.Op) []byte {
	t.Helper()
	var buf bytes.Buffer
	cfg := DefaultConfig()
	cfg.DRAM.Timing = dram.DDR3_1600()
	cfg.SplitDecoder = true
	cfg.ExecWorkers = 8
	cfg.Tracer = NewTracer(NewJSONLSink(&buf))
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	rowBits := int64(sys.RowSizeBits())
	a, b, d := sys.MustAlloc(rowBits), sys.MustAlloc(rowBits), sys.MustAlloc(rowBits)
	if err := sys.Apply(op, d, a, b); err != nil {
		t.Fatalf("%v: %v", op, err)
	}
	if err := cfg.Tracer.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	return buf.Bytes()
}

// TestGoldenTracesParallel is the parallel half of the golden-trace gate
// (satellite 3): every Figure-8 op class executed through the parallel path
// with 8 workers must produce a JSONL trace byte-for-byte identical to the
// serial goldens in testdata/ — same events, same order, same sequence
// numbers, same bytes.
func TestGoldenTracesParallel(t *testing.T) {
	cases := []struct {
		op   controller.Op
		name string
	}{
		{controller.OpAnd, "and"},
		{controller.OpNot, "not"},
		{controller.OpXor, "xor"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			raw := captureTraceParallel(t, tc.op)
			path := filepath.Join("testdata", "trace_"+tc.name+".json")
			golden, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run `go test -run TestGoldenTraces -update` first)", err)
			}
			if !bytes.Equal(raw, golden) {
				t.Errorf("parallel trace differs from serial golden %s\nparallel:\n%s\ngolden:\n%s",
					path, raw, golden)
			}
		})
	}
}

// tracedWorkloadBytes runs the deterministic obsWorkload mix on a fresh
// traced system — multi-row vectors spread across all banks, bulk ops,
// copies, fills, popcounts — and returns the JSONL trace bytes and stats.
// forceSerial pins the exclusive serial path; otherwise the sharded parallel
// path runs with the given worker count.
func tracedWorkloadBytes(t *testing.T, forceSerial bool, workers int) ([]byte, Stats) {
	t.Helper()
	var buf bytes.Buffer
	cfg := DefaultConfig()
	cfg.ExecWorkers = workers
	cfg.Tracer = NewTracer(NewJSONLSink(&buf))
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys.forceSerial = forceSerial
	obsWorkload(t, sys)
	if err := cfg.Tracer.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), sys.Stats()
}

// TestParallelTraceMatchesSerialTrace is the tentpole's core guarantee on a
// real multi-row workload: the parallel path's merged trace is byte-identical
// to the serial path's, and the Stats agree exactly.
func TestParallelTraceMatchesSerialTrace(t *testing.T) {
	serial, serialStats := tracedWorkloadBytes(t, true, 0)
	for _, workers := range []int{1, 2, 8} {
		parallel, parallelStats := tracedWorkloadBytes(t, false, workers)
		if !bytes.Equal(serial, parallel) {
			t.Errorf("workers=%d: parallel trace differs from serial (serial %d bytes, parallel %d bytes)",
				workers, len(serial), len(parallel))
		}
		if !reflect.DeepEqual(serialStats, parallelStats) {
			t.Errorf("workers=%d: stats diverged:\nserial:   %+v\nparallel: %+v",
				workers, serialStats, parallelStats)
		}
	}
}

// TestWithTraceSampling checks the option end to end: 1-in-n span sampling
// keeps the first span of every stride, never touches command events, and
// leaves Stats untouched.
func TestWithTraceSampling(t *testing.T) {
	sink := NewLastNSink(1 << 14)
	sys, err := New(WithTracer(NewTracer(sink)), WithTraceSampling(4))
	if err != nil {
		t.Fatal(err)
	}
	rowBits := int64(sys.RowSizeBits())
	x, y, d := sys.MustAlloc(rowBits), sys.MustAlloc(rowBits), sys.MustAlloc(rowBits)
	const ops = 10
	for i := 0; i < ops; i++ {
		if err := sys.And(d, x, y); err != nil {
			t.Fatal(err)
		}
	}
	var spans, cmds int
	for _, e := range sink.Events() {
		if e.Kind == KindSpan {
			spans++
		} else {
			cmds++
		}
	}
	if spans != 3 { // spans 0, 4, 8 of 10
		t.Errorf("sampled spans = %d, want 3 (1-in-4 of %d)", spans, ops)
	}
	if want := ops * 4; cmds != want { // and is 4 AAPs per row
		t.Errorf("command events = %d, want %d (commands are never sampled)", cmds, want)
	}
	if got := sys.Stats().BulkOps[controller.OpAnd]; got != ops {
		t.Errorf("BulkOps[and] = %d, want %d", got, ops)
	}

	if _, err := New(WithTraceSampling(-1)); err == nil {
		t.Error("negative TraceSampling accepted")
	}
}

// andRows8Runner builds a system under the given configuration and returns a
// closure that times `iters` iterations of sys.Apply(and) on an 8-row
// workload (one row per bank on the default geometry), in ns/op.
func andRows8Runner(t *testing.T, opts ...Option) func(iters int) float64 {
	t.Helper()
	sys, err := New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	bits := 8 * int64(sys.RowSizeBits())
	x, y, d := sys.MustAlloc(bits), sys.MustAlloc(bits), sys.MustAlloc(bits)
	return func(iters int) float64 {
		start := time.Now()
		for i := 0; i < iters; i++ {
			if err := sys.Apply(controller.OpAnd, d, x, y); err != nil {
				t.Fatal(err)
			}
		}
		return float64(time.Since(start).Nanoseconds()) / float64(iters)
	}
}

// TestTracedParallelOverheadGate is the CI gate for the tentpole's
// performance criteria on the and-rows8 workload (8 rows = all 8 banks):
//
//  1. traced parallel must stay within 1.25x of untraced parallel — tracing
//     rides along, it does not serialize;
//  2. traced parallel must keep a >= 3x speedup over traced serial (only
//     checked with >= 4 usable CPUs; the bound needs real parallelism).
//
// Benchmarks are noisy — and on a busy machine throughput drifts over the
// test's own lifetime — so both variants run on long-lived systems and are
// timed in short alternating rounds (each pair of rounds sees the same
// machine conditions), each variant taking its best round.  The gate only
// runs when explicitly requested via AMBIT_OVERHEAD_GATE=1.
func TestTracedParallelOverheadGate(t *testing.T) {
	if os.Getenv("AMBIT_OVERHEAD_GATE") == "" {
		t.Skip("set AMBIT_OVERHEAD_GATE=1 to run the traced-parallel overhead gate")
	}
	tracer := func() Option { return WithTracer(NewTracer(nopTraceSink{})) }

	const warmup, iters, rounds = 500, 2000, 6
	runUntraced := andRows8Runner(t)
	runTraced := andRows8Runner(t, tracer())
	runUntraced(warmup)
	runTraced(warmup)
	untraced, traced := math.Inf(1), math.Inf(1)
	for i := 0; i < rounds; i++ {
		if ns := runUntraced(iters); ns < untraced {
			untraced = ns
		}
		if ns := runTraced(iters); ns < traced {
			traced = ns
		}
	}
	ratio := traced / untraced
	t.Logf("untraced parallel = %.0f ns/op, traced parallel = %.0f ns/op, ratio = %.3f",
		untraced, traced, ratio)
	if ratio > 1.25 {
		t.Errorf("traced parallel is %.2fx untraced parallel (budget 1.25x)", ratio)
	}

	if runtime.NumCPU() < 4 {
		t.Skipf("%d CPUs: skipping the >=3x traced speedup check (needs >= 4)", runtime.NumCPU())
	}
	sysSerial, err := New(tracer())
	if err != nil {
		t.Fatal(err)
	}
	sysSerial.forceSerial = true
	bits := 8 * int64(sysSerial.RowSizeBits())
	x, y, d := sysSerial.MustAlloc(bits), sysSerial.MustAlloc(bits), sysSerial.MustAlloc(bits)
	runSerial := func(iters int) float64 {
		start := time.Now()
		for i := 0; i < iters; i++ {
			if err := sysSerial.Apply(controller.OpAnd, d, x, y); err != nil {
				t.Fatal(err)
			}
		}
		return float64(time.Since(start).Nanoseconds()) / float64(iters)
	}
	runSerial(warmup)
	tracedSerial := math.Inf(1)
	for i := 0; i < rounds; i++ {
		if ns := runSerial(iters); ns < tracedSerial {
			tracedSerial = ns
		}
	}
	speedup := tracedSerial / traced
	t.Logf("traced serial = %.0f ns/op, traced parallel = %.0f ns/op, speedup = %.2fx",
		tracedSerial, traced, speedup)
	if speedup < 3 {
		t.Errorf("traced parallel speedup over traced serial = %.2fx, want >= 3x", speedup)
	}
}

// tracedProgramOps is the operation set both *Batch (recording) and *System
// (direct calls) provide, so one program body drives either.
type tracedProgramOps interface {
	And(dst, a, b *Bitvector) error
	Or(dst, a, b *Bitvector) error
	Xor(dst, a, b *Bitvector) error
	Not(dst, a *Bitvector) error
	Copy(dst, src *Bitvector) error
	Fill(v *Bitvector, bit bool) error
}

// tracedBatchProgram allocates its vectors on a fresh System (seeded
// contents) and records or issues its operations on them.
type tracedBatchProgram struct {
	name  string
	alloc func(t *testing.T, sys *System) []*Bitvector
	body  func(ops tracedProgramOps, v []*Bitvector) error
}

// allocSeeded allocates one 3-row vector per base slot in bases and writes
// seeded random words into each.
func allocSeeded(t *testing.T, sys *System, bases ...int) []*Bitvector {
	t.Helper()
	rng := rand.New(rand.NewSource(23))
	vs := make([]*Bitvector, len(bases))
	for i, base := range bases {
		v, err := sys.AllocAt(3*int64(sys.RowSizeBits()), base)
		if err != nil {
			t.Fatal(err)
		}
		loadRand(t, rng, v)
		vs[i] = v
	}
	return vs
}

var tracedBatchPrograms = []tracedBatchProgram{
	{
		// Eight independent op chains, one per base slot, so every bank
		// carries rows of several unrelated operations.
		name: "independent",
		alloc: func(t *testing.T, sys *System) []*Bitvector {
			var bases []int
			for g := 0; g < 8; g++ {
				bases = append(bases, g, g, g, g)
			}
			return allocSeeded(t, sys, bases...)
		},
		body: func(ops tracedProgramOps, v []*Bitvector) error {
			for g := 0; g < 8; g++ {
				a, b, c, d := v[4*g], v[4*g+1], v[4*g+2], v[4*g+3]
				for _, err := range []error{
					ops.Xor(c, a, b),
					ops.And(d, a, b),
					ops.Or(c, c, d),
					ops.Not(d, c),
					ops.Copy(a, d),
					ops.Fill(b, g%2 == 0),
				} {
					if err != nil {
						return err
					}
				}
			}
			return nil
		},
	},
	{
		// PSM copies between base slots 0 and 1 (every row pair crosses a
		// bank boundary) chained into bulk ops on both sides.
		name: "cross-bank-copy",
		alloc: func(t *testing.T, sys *System) []*Bitvector {
			return allocSeeded(t, sys, 0, 0, 0, 1, 1, 1)
		},
		body: func(ops tracedProgramOps, v []*Bitvector) error {
			a0, b0, c0, a1, b1, c1 := v[0], v[1], v[2], v[3], v[4], v[5]
			for _, err := range []error{
				ops.And(c0, a0, b0),
				ops.Copy(a1, c0),
				ops.Xor(c1, a1, b1),
				ops.Not(b1, a1),
				ops.Copy(b0, c1),
				ops.Or(c0, c0, b0),
				ops.Xor(a0, a0, c0),
			} {
				if err != nil {
					return err
				}
			}
			return nil
		},
	},
}

// runTracedProgram runs p on a fresh system, as one Batch or as direct
// calls, and returns the JSONL trace (when traced) and every vector's final
// contents.
func runTracedProgram(t *testing.T, p tracedBatchProgram, workers int, batch, traced bool) ([]byte, [][]uint64) {
	t.Helper()
	var buf bytes.Buffer
	cfg := DefaultConfig()
	cfg.ExecWorkers = workers
	if traced {
		cfg.Tracer = NewTracer(NewJSONLSink(&buf))
	}
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	vs := p.alloc(t, sys)
	if batch {
		b := sys.NewBatch()
		if err := p.body(b, vs); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Run(); err != nil {
			t.Fatal(err)
		}
	} else if err := p.body(sys, vs); err != nil {
		t.Fatal(err)
	}
	if err := cfg.Tracer.Flush(); err != nil {
		t.Fatal(err)
	}
	var data [][]uint64
	for _, v := range vs {
		words, err := v.Read(Backdoor())
		if err != nil {
			t.Fatal(err)
		}
		data = append(data, words)
	}
	return buf.Bytes(), data
}

// TestTracedBatchDeterministic: a traced Batch writes the same JSONL bytes
// at every worker count and on every repeat — for independent ops spread
// over all banks and for a program chained through cross-bank copies — and
// leaves the same contents as the program issued as direct calls.
func TestTracedBatchDeterministic(t *testing.T) {
	for _, p := range tracedBatchPrograms {
		t.Run(p.name, func(t *testing.T) {
			_, direct := runTracedProgram(t, p, 0, false, false)
			want, data := runTracedProgram(t, p, 1, true, true)
			if !reflect.DeepEqual(data, direct) {
				t.Fatal("batch contents differ from the program issued as direct calls")
			}
			for rep := 0; rep < 10; rep++ {
				for _, workers := range []int{1, 2, 8} {
					got, _ := runTracedProgram(t, p, workers, true, true)
					if !bytes.Equal(got, want) {
						t.Fatalf("repeat %d, workers=%d: trace differs from the first workers=1 run (%d vs %d bytes)",
							rep, workers, len(got), len(want))
					}
				}
			}
		})
	}
}
