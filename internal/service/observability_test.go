package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"ambit"
	"ambit/internal/obs"
	"ambit/internal/service/loadgen"
)

func newTestServiceOpts(t *testing.T, cfg Config, opts ...ambit.Option) (*Server, *httptest.Server, *ambit.System) {
	t.Helper()
	sys, err := ambit.New(opts...)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	svc := New(sys, cfg)
	ts := httptest.NewServer(svc)
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
		sys.Close()
	})
	return svc, ts, sys
}

// driveTenant walks one namespace through a fixed request sequence: create,
// one vector, one backdoor data load, then `ops` bulk NOTs and `queries`
// popcounts.  It returns the number of admitted requests issued.
func driveTenant(t *testing.T, base, ns string, rowBits int64, ops, queries int) int64 {
	t.Helper()
	nsURL := base + "/v1/namespaces/" + ns
	if st, b, _ := do(t, "PUT", nsURL, nil); st != http.StatusCreated {
		t.Fatalf("%s create: %d %s", ns, st, b)
	}
	if st, b, _ := do(t, "PUT", nsURL+"/vectors/v", mustJSON(t, map[string]int64{"bits": rowBits})); st != http.StatusCreated {
		t.Fatalf("%s vec create: %d %s", ns, st, b)
	}
	if st, b, _ := do(t, "PUT", nsURL+"/vectors/v/data?backdoor=1", wordsToBytes(make([]uint64, rowBits/64))); st != http.StatusOK {
		t.Fatalf("%s write: %d %s", ns, st, b)
	}
	for i := 0; i < ops; i++ {
		if st, b, _ := do(t, "POST", nsURL+"/ops", mustJSON(t, map[string]string{"op": "not", "dst": "v", "a": "v"})); st != http.StatusOK {
			t.Fatalf("%s op: %d %s", ns, st, b)
		}
	}
	for i := 0; i < queries; i++ {
		if st, b, _ := do(t, "POST", nsURL+"/query", mustJSON(t, map[string]string{"op": "popcount", "vector": "v"})); st != http.StatusOK {
			t.Fatalf("%s query: %d %s", ns, st, b)
		}
	}
	return int64(3 + ops + queries)
}

// TestServicePerTenantMetrics checks the tenant-labeled request/op/query
// counters against a known request mix, their sum against the flat service
// counters, and the /v1/namespaces/{ns}/stats view against both.
func TestServicePerTenantMetrics(t *testing.T) {
	svc, ts, sys := newTestService(t, Config{})
	rowBits := int64(sys.RowSizeBits())

	aliceReqs := driveTenant(t, ts.URL, "alice", rowBits, 3, 2)
	bobReqs := driveTenant(t, ts.URL, "bob", rowBits, 1, 1)

	label := func(ns string) ambit.Label { return ambit.Label{Key: "ns", Value: ns} }
	checks := []struct {
		family string
		ns     string
		want   int64
	}{
		{"svc_requests", "alice", aliceReqs},
		{"svc_requests", "bob", bobReqs},
		{"svc_ops", "alice", 3},
		{"svc_ops", "bob", 1},
		{"svc_queries", "alice", 2},
		{"svc_queries", "bob", 1},
		{"svc_errors", "alice", 0},
		{"svc_rejected_quota", "alice", 0},
	}
	for _, c := range checks {
		if got := svc.reg.LabeledCounterValue(c.family, label(c.ns)); got != c.want {
			t.Errorf("%s{ns=%q} = %d, want %d", c.family, c.ns, got, c.want)
		}
	}
	// The labeled series partition the flat counters: no request is counted
	// for a tenant without being counted globally, and vice versa.
	for _, family := range []string{"svc_requests", "svc_ops", "svc_queries"} {
		sum := svc.reg.LabeledCounterValue(family, label("alice")) +
			svc.reg.LabeledCounterValue(family, label("bob"))
		if flat := svc.reg.Counter(family); sum != flat {
			t.Errorf("%s: labeled sum %d != flat counter %d", family, sum, flat)
		}
	}
	// Wall-time attribution: every admitted request lands exactly one
	// observation in the tenant's histogram series.
	snap, ok := svc.reg.LabeledHistogramSnapshot("svc_wall_ns", label("alice"))
	if !ok || snap.Count != uint64(aliceReqs) {
		t.Errorf("svc_wall_ns{ns=alice} count = %d (ok=%v), want %d", snap.Count, ok, aliceReqs)
	}

	// The per-namespace stats endpoint reads the same series.
	st, body, _ := do(t, "GET", ts.URL+"/v1/namespaces/alice/stats", nil)
	if st != http.StatusOK {
		t.Fatalf("ns stats: %d %s", st, body)
	}
	var nst NamespaceStats
	if err := json.Unmarshal(body, &nst); err != nil {
		t.Fatalf("ns stats decode: %v", err)
	}
	if nst.Name != "alice" || nst.Requests != aliceReqs || nst.Ops != 3 || nst.Queries != 2 {
		t.Errorf("ns stats = %+v, want alice with %d requests, 3 ops, 2 queries", nst, aliceReqs)
	}
	if nst.P99WallNS <= 0 {
		t.Errorf("ns stats p99_wall_ns = %v, want > 0", nst.P99WallNS)
	}
	if st, body, _ := do(t, "GET", ts.URL+"/v1/namespaces/nope/stats", nil); st != http.StatusNotFound {
		t.Errorf("unknown ns stats: %d %s", st, body)
	}
}

// TestServiceRequestID checks request-identity propagation at the HTTP edge:
// a client-supplied X-Request-ID is echoed back, and requests without one get
// a server-assigned ID.
func TestServiceRequestID(t *testing.T) {
	_, ts, _ := newTestService(t, Config{})

	req, err := http.NewRequest("PUT", ts.URL+"/v1/namespaces/rid", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-ID", "client-chosen-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "client-chosen-42" {
		t.Errorf("echoed request ID = %q, want client-chosen-42", got)
	}

	_, _, hdr := do(t, "POST", ts.URL+"/v1/namespaces/rid/query", mustJSON(t, map[string]string{"op": "popcount", "vector": "x"}))
	if hdr.Get("X-Request-ID") == "" {
		t.Error("server did not assign a request ID")
	}
}

// TestServiceSlowlog drives a request mix and checks the /debug/slowlog
// handler: entries ordered slowest-first, annotated with tenant and request
// identity, and truncated by ?n=.
func TestServiceSlowlog(t *testing.T) {
	svc, ts, sys := newTestService(t, Config{SlowlogSize: 8})
	rowBits := int64(sys.RowSizeBits())
	reqs := driveTenant(t, ts.URL, "slow", rowBits, 2, 1)

	rec := httptest.NewRecorder()
	svc.SlowlogHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/slowlog", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("slowlog: %d %s", rec.Code, rec.Body)
	}
	var entries []SlowEntry
	if err := json.Unmarshal(rec.Body.Bytes(), &entries); err != nil {
		t.Fatalf("slowlog decode: %v", err)
	}
	if int64(len(entries)) != reqs {
		t.Fatalf("slowlog has %d entries, want all %d requests (cap 8)", len(entries), reqs)
	}
	for i, e := range entries {
		if e.NS != "slow" || e.Req == "" || e.Route == "" || e.WallNS <= 0 {
			t.Errorf("entry %d incomplete: %+v", i, e)
		}
		if i > 0 && entries[i-1].WallNS < e.WallNS {
			t.Errorf("slowlog not sorted slowest-first at %d: %v < %v", i, entries[i-1].WallNS, e.WallNS)
		}
	}

	rec = httptest.NewRecorder()
	svc.SlowlogHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/slowlog?n=2", nil))
	var top []SlowEntry
	if err := json.Unmarshal(rec.Body.Bytes(), &top); err != nil {
		t.Fatalf("slowlog?n=2 decode: %v", err)
	}
	if len(top) != 2 || !reflect.DeepEqual(top, entries[:2]) {
		t.Errorf("slowlog?n=2 = %+v, want the 2 slowest of %+v", top, entries[:2])
	}
}

// TestServiceSetWordsFullCoverDifferential is the write-plane oracle for the
// SetWords fast path: a full-cover HTTP data write must produce the same
// vector contents and byte-identical Stats as the library's SetWords.
func TestServiceSetWordsFullCoverDifferential(t *testing.T) {
	_, ts, svcSys := newTestService(t, Config{})
	base := ts.URL + "/v1/namespaces/t"
	libSys, err := ambit.New()
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer libSys.Close()

	rowBits := int64(svcSys.RowSizeBits())
	bits := 2 * rowBits // exact row multiple: the SetWords full-cover path
	rng := rand.New(rand.NewSource(3))
	words := make([]uint64, bits/64)
	for i := range words {
		words[i] = rng.Uint64()
	}

	if st, b, _ := do(t, "PUT", base, nil); st != http.StatusCreated {
		t.Fatalf("ns create: %d %s", st, b)
	}
	if st, b, _ := do(t, "PUT", base+"/vectors/v", mustJSON(t, map[string]int64{"bits": bits})); st != http.StatusCreated {
		t.Fatalf("vec create: %d %s", st, b)
	}
	if st, b, _ := do(t, "PUT", base+"/vectors/v/data", wordsToBytes(words)); st != http.StatusOK {
		t.Fatalf("write: %d %s", st, b)
	}
	st, svcBytes, _ := do(t, "GET", base+"/vectors/v/data", nil)
	if st != http.StatusOK {
		t.Fatalf("read: %d %s", st, svcBytes)
	}
	svcStats := svcSys.Stats()

	lv, err := libSys.AllocAt(bits, 0)
	if err != nil {
		t.Fatalf("AllocAt: %v", err)
	}
	if _, err := lv.SetWords(words); err != nil {
		t.Fatalf("SetWords: %v", err)
	}
	libWords := make([]uint64, 0, lv.WordCount())
	if err := lv.ViewWords(func(views [][]uint64) error {
		for _, row := range views {
			libWords = append(libWords, row...)
		}
		return nil
	}); err != nil {
		t.Fatalf("ViewWords: %v", err)
	}
	libStats := libSys.Stats()

	if !bytes.Equal(svcBytes, wordsToBytes(libWords)) {
		t.Fatal("service full-cover write and library SetWords produced different contents")
	}
	if !reflect.DeepEqual(svcStats, libStats) {
		t.Fatalf("service and library Stats diverge:\nservice: %+v\nlibrary: %+v", svcStats, libStats)
	}
}

// TestServicePerTenantReliabilityAttribution drives a fault-injecting system
// through the service from two tenants and checks the ledger view: the
// exposition's flat reliability counters equal Stats, its ns-labeled series
// equal the tenants' ledgers and partition Stats exactly, and each tenant's
// /v1/namespaces/{ns}/stats reports its ledger.
func TestServicePerTenantReliabilityAttribution(t *testing.T) {
	reg := ambit.NewMetrics()
	_, ts, sys := newTestServiceOpts(t, Config{},
		ambit.WithMetrics(reg),
		ambit.WithFaultModel(ambit.FaultConfig{TRABitRate: 1e-3, DCCBitRate: 1e-4, RowVariation: 1, Seed: 17}),
		ambit.WithReliability(ambit.Reliability{ECC: true, MaxRetries: 8}),
	)
	rowBits := int64(sys.RowSizeBits())

	driveTenant(t, ts.URL, "alice", 4*rowBits, 6, 1)
	driveTenant(t, ts.URL, "bob", 4*rowBits, 3, 1)

	st := sys.Stats()
	if st.CorrectedBits == 0 {
		t.Fatal("workload injected no correctable faults; raise the rate so the test exercises attribution")
	}
	var b bytes.Buffer
	if _, err := reg.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	samples := loadgen.ParseSamples(b.String())
	tenants := map[string]ambit.Stats{}
	for _, ns := range []string{"alice", "bob"} {
		tst, ok := sys.TagStats(ns)
		if !ok {
			t.Fatalf("no ledger for tenant %s", ns)
		}
		tenants[ns] = tst
	}
	for _, c := range []struct {
		family     string
		tenantOnly bool
		field      func(ambit.Stats) int64
	}{
		{"corrected_bits", false, func(s ambit.Stats) int64 { return s.CorrectedBits }},
		{"retries", false, func(s ambit.Stats) int64 { return s.Retries }},
		{"detected_rows", false, func(s ambit.Stats) int64 { return s.DetectedRows }},
		{"uncorrectable_rows", false, func(s ambit.Stats) int64 { return s.UncorrectableRows }},
		{"injected_faults", true, func(s ambit.Stats) int64 { return s.InjectedFaults }},
		{"injected_fault_bits", true, func(s ambit.Stats) int64 { return s.InjectedFaultBits }},
	} {
		metric := "ambit_" + c.family + "_total"
		if flat := samples[metric]; !c.tenantOnly && flat != float64(c.field(st)) {
			t.Errorf("flat %s = %v, Stats says %d", metric, flat, c.field(st))
		}
		var sum int64
		for ns, tst := range tenants {
			sum += c.field(tst)
			series := metric + `{ns="` + ns + `"}`
			if got := samples[series]; got != float64(c.field(tst)) {
				t.Errorf("%s = %v, ledger has %d", series, got, c.field(tst))
			}
		}
		if sum != c.field(st) {
			t.Errorf("%s: tenant ledgers sum to %d, Stats total %d", c.family, sum, c.field(st))
		}
	}
	// Both tenants ran faulty TRAs, so each must own a nonzero share, and
	// the namespace stats endpoint reports exactly its ledger.
	for ns, tst := range tenants {
		if tst.CorrectedBits <= 0 {
			t.Errorf("tenant %s: %d corrected bits, want > 0", ns, tst.CorrectedBits)
		}
		code, body, _ := do(t, "GET", ts.URL+"/v1/namespaces/"+ns+"/stats", nil)
		if code != http.StatusOK {
			t.Fatalf("ns stats: %d %s", code, body)
		}
		var got NamespaceStats
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatal(err)
		}
		var busy float64
		for _, b := range tst.BankBusyNS {
			busy += b
		}
		want := [7]float64{float64(tst.Retries), float64(tst.CorrectedBits), float64(tst.DetectedRows),
			float64(tst.UncorrectableRows), float64(tst.InjectedFaults), float64(tst.InjectedFaultBits), busy}
		have := [7]float64{float64(got.Retries), float64(got.CorrectedBits), float64(got.DetectedRows),
			float64(got.UncorrectableRows), float64(got.InjectedFaults), float64(got.InjectedFaultBits), got.BankBusyNS}
		if have != want || busy <= 0 {
			t.Errorf("%s: /stats reports %v, ledger has %v (retries, corrected, detected, uncorrectable, injected faults, bits, busy ns)", ns, have, want)
		}
	}
}

// TestServiceRouteWallHistogram: each admitted request's host wall time
// lands in its route's svc_route_wall_ns series, and none in the simulated
// per-operation latency family, whose sums must stay simulated time.
func TestServiceRouteWallHistogram(t *testing.T) {
	svc, ts, sys := newTestService(t, Config{})
	reqs := driveTenant(t, ts.URL, "alice", int64(sys.RowSizeBits()), 3, 2)
	for _, op := range svc.reg.Ops() {
		if strings.HasPrefix(op, "svc.") {
			t.Errorf("host wall time observed into the simulated latency family as %q", op)
		}
	}
	var total uint64
	for route, want := range map[string]uint64{"svc.ns_create": 1, "svc.vec_create": 1, "svc.data_write": 1, "svc.op": 3, "svc.query": 2} {
		snap, ok := svc.reg.LabeledHistogramSnapshot("svc_route_wall_ns", ambit.Label{Key: "route", Value: route})
		if !ok || snap.Count != want || snap.Sum <= 0 {
			t.Errorf("svc_route_wall_ns{route=%q}: count %d, sum %v (ok=%v); want %d observations", route, snap.Count, snap.Sum, ok, want)
		}
		total += snap.Count
	}
	if total != uint64(reqs) {
		t.Errorf("route series hold %d observations, want one per request (%d)", total, reqs)
	}
	// /v1/stats computes its lifetime figures on request: no stats loop to
	// wait for.
	st, body, _ := do(t, "GET", ts.URL+"/v1/stats", nil)
	var snap StatsSnapshot
	if err := json.Unmarshal(body, &snap); st != http.StatusOK || err != nil {
		t.Fatalf("/v1/stats: %d %s (%v)", st, body, err)
	}
	if snap.QPS <= 0 || snap.P50WallNS <= 0 || snap.P99WallNS < snap.P50WallNS {
		t.Errorf("/v1/stats = %+v, want qps > 0 and 0 < p50 <= p99", snap)
	}
}

// TestServiceBankSaturationVeto: with a telemetry server (and so a bank
// utilization collector) and a tiny threshold, a request that arrives while
// another holds an execution slot after the banks have been busy is turned
// away with 429, kind "saturated" and a Retry-After header.
func TestServiceBankSaturationVeto(t *testing.T) {
	svc, ts, sys := newTestServiceOpts(t, Config{SaturationThreshold: 1e-9}, ambit.WithTelemetryAddr("127.0.0.1:0"))
	driveTenant(t, ts.URL, "busy", int64(sys.RowSizeBits()), 2, 0)
	if sat, ok := sys.BankSaturation(svc.cfg.SaturationWindowNS); !ok || sat <= 1e-9 {
		t.Fatalf("BankSaturation = %v (ok=%v) after ops; want above the threshold", sat, ok)
	}
	release, err := svc.adm.acquire(context.Background())
	if err != nil {
		t.Fatalf("acquire: %v", err)
	}
	defer release()
	st, b, hdr := do(t, "POST", ts.URL+"/v1/namespaces/busy/query", mustJSON(t, map[string]string{"op": "popcount", "vector": "v"}))
	if st != http.StatusTooManyRequests || errKind(t, b) != "saturated" {
		t.Fatalf("request during saturation: %d %s, want 429 saturated", st, b)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("saturation 429 without Retry-After")
	}
}

// TestServiceHandleCacheCap: the per-namespace handle cache stops at the
// registry's cardinality cap.  Namespaces created past it are not cached,
// and their requests count in the {overflow="true"} series.
func TestServiceHandleCacheCap(t *testing.T) {
	svc, ts, _ := newTestService(t, Config{})
	const n = 300
	name := func(i int) string { return fmt.Sprintf("t%03d", i) }
	for i := 1; i <= n; i++ {
		if st, b, _ := do(t, "PUT", ts.URL+"/v1/namespaces/"+name(i), nil); st != http.StatusCreated {
			t.Fatalf("create %s: %d %s", name(i), st, b)
		}
	}
	svc.handleMu.RLock()
	cached, lastCached := len(svc.handles), svc.handles[name(n)] != nil
	svc.handleMu.RUnlock()
	if cached != obs.MaxSeriesPerFamily || lastCached {
		t.Fatalf("handle cache holds %d bundles (%s cached: %v), want %d without %s",
			cached, name(n), lastCached, obs.MaxSeriesPerFamily, name(n))
	}
	overflow := ambit.Label{Key: "overflow", Value: "true"}
	if got, want := svc.reg.LabeledCounterValue("svc_requests", overflow), int64(n-obs.MaxSeriesPerFamily); got != want {
		t.Fatalf("svc_requests{overflow} = %d after creating %d namespaces, want %d", got, n, want)
	}
	if st, b, _ := do(t, "PUT", ts.URL+"/v1/namespaces/"+name(n)+"/vectors/v", mustJSON(t, map[string]int64{"bits": 64})); st != http.StatusCreated {
		t.Fatalf("%s vec create: %d %s", name(n), st, b)
	}
	if got, want := svc.reg.LabeledCounterValue("svc_requests", overflow), int64(n-obs.MaxSeriesPerFamily+1); got != want {
		t.Errorf("svc_requests{overflow} = %d after a request to %s, want %d", got, name(n), want)
	}
}
