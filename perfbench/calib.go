package main

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"
)

// Host-speed calibration.  On a shared machine the host runs this program at
// a speed that drifts by 15-20% over minutes, as other tenants come and go
// on the same cores and caches; every workload slows down together.  A run
// therefore times a fixed calibration kernel between query blocks, on every
// P, with the workload paused, and scales its host timings by
// calRefNS / (median kernel time): they read as times on a host running the
// kernel in calRefNS.  The kernel streams a private buffer through the
// shared cache, since the workloads are cache- and bandwidth-bound: across
// 5-second windows its time tracks theirs with a log-log slope of 1.0-1.3
// (correlation 0.95), where an ALU or L2-resident kernel under-reacts by
// 2-2.6x.  It warms its buffer first, untimed, so the workload's own cache
// footprint does not change its time.  Raw timings and the kernel time are
// reported too (host.* per-layer metrics).

// calRefNS is the kernel's median time over 80 runs on the 2-vCPU machine
// the bounds were measured on (1.65-2.86 ms), so scaled times read like raw
// ones at that machine's typical speed.
const calRefNS = 2_000_000

// calInterval is how often the timed phase pauses to calibrate.
const calInterval = 100 * time.Millisecond

// calBufBytes is the size of each of a P's two kernel buffers: together
// larger than a core's L2, small enough to stay in the shared L3.
const calBufBytes = 8 << 20

// calibrator owns the kernel's per-P buffers and the samples of one run.
// The buffers are mapped outside the Go heap, so they do not raise the
// garbage collector's heap goal and change how often the workload collects.
type calibrator struct {
	mem     []byte
	bufs    [][2][]byte
	samples []float64 // kernel times, ns
}

func newCalibrator() (*calibrator, error) {
	procs := runtime.GOMAXPROCS(0)
	mem, err := syscall.Mmap(-1, 0, 2*calBufBytes*procs, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("calibration buffers: %w", err)
	}
	c := &calibrator{mem: mem}
	for i := 0; i < procs; i++ {
		a := mem[2*i*calBufBytes:]
		c.bufs = append(c.bufs, [2][]byte{a[:calBufBytes], a[calBufBytes : 2*calBufBytes]})
	}
	return c, nil
}

// close unmaps the buffers.
func (c *calibrator) close() error {
	c.bufs = nil
	return syscall.Munmap(c.mem)
}

// measure runs the kernel on every P at once and records the slowest P's
// time, since a query waits for its slowest part.
func (c *calibrator) measure() {
	var wg sync.WaitGroup
	durs := make([]int64, len(c.bufs))
	for g := range c.bufs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			a, b := c.bufs[g][0], c.bufs[g][1]
			copy(a, b) // warm the buffers; untimed
			start := time.Now()
			copy(b, a)
			copy(a, b)
			durs[g] = int64(time.Since(start))
		}(g)
	}
	wg.Wait()
	c.samples = append(c.samples, float64(slices.Max(durs)))
}

// medianNS is the median kernel time of the samples so far.
func (c *calibrator) medianNS() float64 { return median(c.samples) }

// factor is calRefNS over the median kernel time: below 1 on a slow host.
// Host times are multiplied by it, rates divided.
func (c *calibrator) factor() float64 { return calRefNS / c.medianNS() }
