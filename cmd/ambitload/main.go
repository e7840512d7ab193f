// Command ambitload drives a running ambitd with multi-tenant workloads and
// reports what the service sustained.  It is both a benchmark client and the
// CI smoke test for the serving layer (-check).
//
// Usage:
//
//	ambitload                                  # 4 bitmap-index tenants
//	ambitload -workload bitfunnel -tenants 8   # document-filtering shape
//	ambitload -bits 8388608 -queries 4         # the paper's 8M-user point
//	ambitload -check                           # exit nonzero unless healthy
//
// The client retries 429 rejections with the server's advised backoff —
// graceful degradation under overload is expected behaviour, and the
// rejected/retried count is part of the report.  With -check, ambitload
// fails unless the run completed with zero hard errors, /v1/stats reports
// nonzero qps and p99 latency over the server's lifetime, and every tenant
// namespace the run loaded shows nonzero per-tenant ambit_svc_*_total{ns="..."}
// series in /metrics.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"ambit/internal/service/loadgen"
)

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ambitload: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	addr := flag.String("addr", "http://localhost:8612", "ambitd base URL")
	workload := flag.String("workload", "bitmapindex", "traffic shape: bitmapindex or bitfunnel")
	tenants := flag.Int("tenants", 4, "concurrent tenant namespaces")
	bits := flag.Int64("bits", 1<<16, "users/documents per bitvector (8388608 = the paper's 8M sweep point)")
	queries := flag.Int("queries", 8, "queries per tenant")
	quota := flag.Int("quota", -1, "per-tenant row quota (-1 = unlimited, 0 = server default)")
	backdoor := flag.Bool("backdoor", false, "install data via the cost-free backdoor channel")
	seed := flag.Int64("seed", 1, "data seed")
	timeout := flag.Duration("timeout", 10*time.Second, "how long to wait for the server to come up")
	check := flag.Bool("check", false, "smoke-test mode: fail unless the run is clean, /v1/stats shows nonzero qps and p99, and /metrics has every tenant's series")
	flag.Parse()

	var wl loadgen.Workload
	switch strings.ToLower(*workload) {
	case "bitmapindex":
		wl = loadgen.BitmapIndex
	case "bitfunnel":
		wl = loadgen.BitFunnel
	default:
		fail("unknown -workload %q (want bitmapindex or bitfunnel)", *workload)
	}

	c := &loadgen.Client{Base: strings.TrimRight(*addr, "/")}
	if err := c.WaitHealthy(*timeout); err != nil {
		fail("%v", err)
	}

	res := loadgen.Run(c, loadgen.Config{
		Workload:  wl,
		Tenants:   *tenants,
		Bits:      *bits,
		Queries:   *queries,
		QuotaRows: *quota,
		Backdoor:  *backdoor,
		Seed:      *seed,
	})
	fmt.Printf("ambitload: %s workload, %d tenants, %d bits/vector: %s\n", wl, *tenants, *bits, res)
	if res.FirstErr != nil {
		fmt.Fprintf(os.Stderr, "ambitload: first error: %v\n", res.FirstErr)
	}

	stats, statsErr := c.ServiceStats()
	qps, p99 := num(stats, "qps"), num(stats, "p99_wall_ns")
	if statsErr == nil {
		fmt.Printf("ambitload: /v1/stats: qps=%.1f p50=%.0fns p99=%.0fns bank_saturation=%.3f\n",
			qps, num(stats, "p50_wall_ns"), p99, num(stats, "bank_saturation"))
	}

	if !*check {
		if res.Errors > 0 {
			os.Exit(1)
		}
		return
	}

	// Smoke-test assertions: clean run, live telemetry.  /v1/stats computes
	// qps and the quantiles from the request histograms when asked, so the
	// run's requests are already in them.
	if res.Errors > 0 {
		fail("check: %d hard errors (first: %v)", res.Errors, res.FirstErr)
	}
	if res.Queries == 0 {
		fail("check: no queries completed")
	}
	if statsErr != nil {
		fail("check: /v1/stats: %v", statsErr)
	}
	if qps <= 0 {
		fail("check: /v1/stats qps = %v, want > 0", qps)
	}
	if p99 <= 0 {
		fail("check: /v1/stats p99_wall_ns = %v, want > 0", p99)
	}
	// Per-tenant attribution: every namespace the run loaded must have left
	// nonzero ns-labeled svc_* series behind (the namespaces themselves are
	// dropped, but their metric series persist).
	samples, err := c.MetricSamples()
	if err != nil {
		fail("check: %v", err)
	}
	for _, ns := range res.Namespaces {
		for _, family := range []string{"ambit_svc_requests_total", "ambit_svc_ops_total", "ambit_svc_queries_total"} {
			series := fmt.Sprintf("%s{ns=%q}", family, ns)
			if samples[series] <= 0 {
				fail("check: /metrics %s = %v, want > 0", series, samples[series])
			}
		}
	}
	fmt.Printf("ambitload: check ok (qps=%.1f p99=%.0fns, %d tenant namespaces attributed)\n",
		qps, p99, len(res.Namespaces))
}

func num(m map[string]any, k string) float64 {
	f, _ := m[k].(float64)
	return f
}
