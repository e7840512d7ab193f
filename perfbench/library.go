package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"ambit"
)

// outcome is what one query observed.
type outcome struct {
	failed int               // wrong answers plus failed calls
	err    error             // the first of them
	majErr int64             // |popcount(Maj result) - reference|; Maj runs outside TMR
	batch  ambit.BatchReport // the query's batch, when it ran one
}

func (o *outcome) check(err error) {
	if err != nil {
		o.failed++
		if o.err == nil {
			o.err = err
		}
	}
}

// expect checks a popcount against its reference answer.
func (o *outcome) expect(got int64, err error, want int64) {
	if err == nil && got != want {
		err = fmt.Errorf("popcount %d, reference %d", got, want)
	}
	o.check(err)
}

// tally counts attempted and failed operations over a run.
type tally struct {
	attempted, failed int64
	err               error
}

func (t *tally) add(o outcome) {
	t.attempted++
	t.failed += int64(o.failed)
	if t.err == nil {
		t.err = o.err
	}
}

// merge adds another tally's counts.
func (t *tally) merge(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	if t.err == nil {
		t.err = o.err
	}
}

// finish copies the tally into the result and reports the first failure.
func (t *tally) finish(res *result) {
	res.Attempted, res.Failed = t.attempted, t.failed
	res.Correct = t.failed == 0
	if t.err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d failed checks; first: %v\n", res.Workload, t.failed, t.err)
	}
}

// libBench is a workload driven through the library by one caller goroutine.
type libBench interface {
	// generate builds the seeded inputs and reference answers, untimed, and
	// returns a digest of the inputs.
	generate(seed int64, scale float64) digest
	// setup builds a fresh System holding the inputs, timing its phases;
	// release drops it.
	setup(st *setupTimes) error
	release()
	system() *ambit.System
	// plan returns the number of distinct queries (the timed loop cycles
	// through them), the warm-up query count, and the length of the exact
	// pass that opens the timed loop.
	plan() (cycle, warmup, exact int)
	// query runs query i, recording its layer spans when r is non-nil.
	query(i int, r *recorder) outcome
}

// libTraceBlock is how many consecutive queries a traced run traces or leaves
// untraced in turn; comparing the two kinds gives the tracing overhead.
const libTraceBlock = 16

// runLibrary sets the workload up, warms it, then times queries for the
// run's seconds.  The first `exact` timed queries form the exact pass: the
// simulated-work metrics cover exactly those, so a seed fixes them.
func runLibrary(b libBench, o options) (*result, error) {
	res := newResult(o)
	res.InputDigest = b.generate(o.seed, o.scale).String()
	cal, err := newCalibrator()
	if err != nil {
		return nil, err
	}
	defer cal.close()
	if err := repeatSetup(res, cal, b.setup, b.release); err != nil {
		return nil, err
	}
	sys := b.system()
	cycle, warmup, exact := b.plan()
	var t tally
	clk := newClock()

	// The last warm-up query runs traced, to size the span buffer.
	warmStart := clk.now()
	for i := 0; i < warmup-1; i++ {
		t.add(b.query(i%cycle, nil))
	}
	probe := newRecorder(clk, 0, 256)
	t.add(b.query((warmup-1)%cycle, probe))
	rate := float64(warmup) / time.Duration(clk.now()-warmStart).Seconds()
	expected := int(rate*o.seconds*1.5) + exact + 1
	lat := make([]int64, 0, expected)
	var rec *recorder
	if o.trace {
		rec = newRecorder(clk, 0, (expected/2+libTraceBlock)*(len(probe.spans)+1))
	}

	var (
		exactWork                          work
		tracedNS, tracedN, plainNS, plainN int64
	)
	run := func(n int) {
		var r *recorder
		if rec != nil && (n/libTraceBlock)%2 == 0 {
			r = rec
			r.req = uint32(n)
		}
		t0 := clk.now()
		oc := b.query(n%cycle, r)
		t1 := clk.now()
		lat = append(lat, t1-t0)
		if r != nil {
			r.add(layerQuery, t0, t1)
			tracedNS, tracedN = tracedNS+t1-t0, tracedN+1
		} else {
			plainNS, plainN = plainNS+t1-t0, plainN+1
		}
		t.add(oc)
		if n < exact {
			exactWork.merge(oc)
		}
	}

	// The timed loop pauses every calInterval to calibrate; the pauses are
	// not part of the timed phase.
	var paused, nextCal int64
	n := 0
	step := func() {
		if now := clk.now(); now >= nextCal {
			cal.measure()
			nextCal = clk.now()
			paused += nextCal - now
			nextCal += int64(calInterval)
		}
		run(n)
		n++
	}

	var m0, m1 runtime.MemStats
	before := snapshot(sys)
	runtime.ReadMemStats(&m0)
	deadline := int64(o.seconds * float64(time.Second))
	start := clk.now()
	for n < exact {
		step()
	}
	exactSnap := snapshot(sys)
	for clk.now()-start-paused < deadline {
		step()
	}
	elapsed := time.Duration(clk.now() - start - paused)
	runtime.ReadMemStats(&m1)
	after := snapshot(sys)

	setLatency(res, lat, elapsed, cal)
	setExact(res, before, exactSnap, exact, exactWork)
	if rows := after.st.RowOps - before.st.RowOps; rows > 0 {
		res.set("ambit.host_ns_per_row_op", float64(elapsed)/float64(rows)*cal.factor())
	}
	setRuntime(res, &m0, &m1, int64(n))
	if err := setRSS(res); err != nil {
		return nil, err
	}
	t.finish(res)
	if rec != nil {
		res.set("trace.overhead_pct", traceOverhead(tracedNS, tracedN, plainNS, plainN))
		if err := finishTrace(res, o, [][]span{rec.spans}, nil); err != nil {
			return nil, err
		}
	}
	return res, nil
}
