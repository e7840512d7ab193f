package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ambit"
	"ambit/internal/service"
)

// service-mixed: two tenants, one per client connection, each owning four
// one-row vectors.  Each client runs a closed loop, as ambitload callers do:
// it sends its next request when the previous reply arrives.  The traffic is
// 60% ops (and/or/xor/not), 15% popcount queries, 15% data GETs and 10%
// full-vector data PUTs.  An open loop at a rate this machine sustains spends
// more time in Go timer slack than in the ~50 µs request, so it would measure
// the load generator rather than the server.
const (
	svcClients    = 2
	svcVectors    = 4
	svcTraceBlock = 256 // requests per traced or untraced block of a traced run
)

type svcKind uint8

const (
	kindOp svcKind = iota
	kindQuery
	kindGet
	kindPut
)

// svcRequest is one precomputed request with its reference answer.
type svcRequest struct {
	kind   svcKind
	method string
	url    string // path and query; the server's base URL is prepended
	body   []byte
	count  int64  // kindQuery: the expected popcount
	data   []byte // kindGet: the expected body
}

// svcTenant is one client's seeded request cycle.  The cycle ends by writing
// every vector back to its initial contents, so it repeats with the same
// answers.
type svcTenant struct {
	name    string
	initial [svcVectors][]byte
	reqs    []svcRequest
}

// genTenant builds a tenant's initial vectors and request cycle, tracking
// the vectors' contents in a word-level reference model.
func genTenant(rng *rand.Rand, name string, cycle int) *svcTenant {
	t := &svcTenant{name: name}
	var model [svcVectors][]uint64
	for v := range model {
		model[v] = randomWords(rng, wordsPerRow, 128)
		t.initial[v] = wordBytes(model[v])
	}
	puts := cycle/10 - svcVectors // the final restoring PUTs count toward the 10%
	if puts < 0 {
		puts = 0
	}
	kinds := make([]svcKind, 0, cycle)
	add := func(k svcKind, n int) {
		for i := 0; i < n; i++ {
			kinds = append(kinds, k)
		}
	}
	add(kindQuery, cycle*15/100)
	add(kindGet, cycle*15/100)
	add(kindPut, puts)
	add(kindOp, cycle-svcVectors-len(kinds))
	rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })

	ns := "/v1/namespaces/" + name
	vec := func(v int) string { return "v" + strconv.Itoa(v) }
	for _, k := range kinds {
		switch k {
		case kindOp:
			op := [...]string{"and", "or", "xor", "not"}[rng.Intn(4)]
			dst, a, b := rng.Intn(svcVectors), rng.Intn(svcVectors), rng.Intn(svcVectors)
			out := make([]uint64, wordsPerRow)
			for i := range out {
				switch op {
				case "and":
					out[i] = model[a][i] & model[b][i]
				case "or":
					out[i] = model[a][i] | model[b][i]
				case "xor":
					out[i] = model[a][i] ^ model[b][i]
				case "not":
					out[i] = ^model[a][i]
				}
			}
			model[dst] = out
			body := fmt.Sprintf(`{"op":%q,"dst":%q,"a":%q,"b":%q}`, op, vec(dst), vec(a), vec(b))
			if op == "not" {
				body = fmt.Sprintf(`{"op":"not","dst":%q,"a":%q}`, vec(dst), vec(a))
			}
			t.reqs = append(t.reqs, svcRequest{kind: kindOp, method: http.MethodPost, url: ns + "/ops", body: []byte(body)})
		case kindQuery:
			v := rng.Intn(svcVectors)
			t.reqs = append(t.reqs, svcRequest{kind: kindQuery, method: http.MethodPost, url: ns + "/query",
				body: []byte(fmt.Sprintf(`{"op":"popcount","vector":%q}`, vec(v))), count: popcount(model[v])})
		case kindGet:
			v := rng.Intn(svcVectors)
			t.reqs = append(t.reqs, svcRequest{kind: kindGet, method: http.MethodGet, url: ns + "/vectors/" + vec(v) + "/data",
				data: wordBytes(model[v])})
		case kindPut:
			v := rng.Intn(svcVectors)
			model[v] = randomWords(rng, wordsPerRow, 128)
			t.reqs = append(t.reqs, svcRequest{kind: kindPut, method: http.MethodPut, url: ns + "/vectors/" + vec(v) + "/data",
				body: wordBytes(model[v])})
		}
	}
	for v := range model {
		t.reqs = append(t.reqs, svcRequest{kind: kindPut, method: http.MethodPut, url: ns + "/vectors/" + vec(v) + "/data",
			body: t.initial[v]})
	}
	return t
}

// wordBytes is the service's wire format: little-endian uint64 words.
func wordBytes(ws []uint64) []byte {
	b := make([]byte, 0, 8*len(ws))
	for _, w := range ws {
		b = binary.LittleEndian.AppendUint64(b, w)
	}
	return b
}

// timedHandler wraps the service handler and times ServeHTTP: always in
// aggregate (for the admission share), per request when the request ID
// marks it traced.
type timedHandler struct {
	h      http.Handler
	clk    clock
	busyNS atomic.Int64
	rec    *serverRecorder // nil in an untraced run
}

func (t *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t0 := t.clk.now()
	t.h.ServeHTTP(w, r)
	t1 := t.clk.now()
	t.busyNS.Add(t1 - t0)
	if t.rec == nil {
		return
	}
	if tid, req, ok := parseTracedID(r.Header.Get("X-Request-ID")); ok {
		t.rec.add(span{start: t0, end: t1, req: req, tid: tid, layer: routeLayer(r)})
	}
}

// Request IDs are "T<client>-<seq>" for traced requests and "U<client>-<seq>"
// for untraced ones; the server side links its span to the client's by them.
func appendRequestID(b []byte, traced bool, client, seq int) []byte {
	if traced {
		b = append(b, 'T')
	} else {
		b = append(b, 'U')
	}
	b = strconv.AppendInt(b, int64(client), 10)
	b = append(b, '-')
	return strconv.AppendInt(b, int64(seq), 10)
}

func parseTracedID(id string) (tid uint8, req uint32, ok bool) {
	if len(id) < 2 || id[0] != 'T' {
		return 0, 0, false
	}
	c, s, found := strings.Cut(id[1:], "-")
	if !found {
		return 0, 0, false
	}
	ci, err1 := strconv.ParseUint(c, 10, 8)
	si, err2 := strconv.ParseUint(s, 10, 32)
	if err1 != nil || err2 != nil {
		return 0, 0, false
	}
	return uint8(ci), uint32(si), true
}

func routeLayer(r *http.Request) layer {
	switch p := r.URL.Path; {
	case strings.HasSuffix(p, "/ops"):
		return layerServeOp
	case strings.HasSuffix(p, "/query"):
		return layerServeQuery
	case r.Method == http.MethodGet:
		return layerServeDataRead
	default:
		return layerServeDataWrite
	}
}

// svcSystem is one set-up of the service workload: a System, the service
// over it behind a loopback test server, and one client per tenant.
type svcSystem struct {
	sys     *ambit.System
	reg     *ambit.MetricsRegistry
	svc     *service.Server
	handler *timedHandler
	server  *httptest.Server
	clients [svcClients]*http.Client
}

func (l *svcSystem) close() {
	l.server.Close()
	l.svc.Close()
	for _, c := range l.clients {
		c.CloseIdleConnections()
	}
}

// call sends one set-up request and checks for a 2xx status.
func (l *svcSystem) call(c int, method, url string, body []byte) error {
	req, err := http.NewRequest(method, l.server.URL+url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := l.clients[c].Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	msg, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, msg)
	}
	return nil
}

func setupService(st *setupTimes, clk clock, srec *serverRecorder, tenants []*svcTenant) (*svcSystem, error) {
	l := &svcSystem{reg: ambit.NewMetrics()}
	err := timePhase(&st.new, func() (err error) {
		if l.sys, err = ambit.New(ambit.WithMetrics(l.reg)); err != nil {
			return err
		}
		l.svc = service.New(l.sys, service.Config{})
		l.handler = &timedHandler{h: l.svc, clk: clk, rec: srec}
		l.server = httptest.NewServer(l.handler)
		for c := range l.clients {
			l.clients[c] = &http.Client{Transport: &http.Transport{
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			}}
		}
		return nil
	})
	if err == nil {
		err = timePhase(&st.alloc, func() error {
			for c, t := range tenants {
				ns := "/v1/namespaces/" + t.name
				if err := l.call(c, http.MethodPut, ns, []byte(`{"quota_rows":64}`)); err != nil {
					return err
				}
				for v := 0; v < svcVectors; v++ {
					body := fmt.Sprintf(`{"bits":%d}`, rowBits)
					if err := l.call(c, http.MethodPut, ns+"/vectors/v"+strconv.Itoa(v), []byte(body)); err != nil {
						return err
					}
				}
			}
			return nil
		})
	}
	if err == nil {
		err = timePhase(&st.write, func() error {
			for c, t := range tenants {
				for v, data := range t.initial {
					url := "/v1/namespaces/" + t.name + "/vectors/v" + strconv.Itoa(v) + "/data?backdoor=1"
					if err := l.call(c, http.MethodPut, url, data); err != nil {
						return err
					}
				}
			}
			return nil
		})
	}
	if err != nil && l.server != nil {
		l.close()
	}
	return l, err
}

// svcClient is one tenant's closed-loop caller.
type svcClient struct {
	idx    int
	hc     *http.Client
	base   string
	tenant *svcTenant
	clk    clock
	rec    *recorder // nil in an untraced run
	n      int       // requests completed, the next request's sequence number

	timed     bool // whether to record latencies
	timedFrom int  // the first timed request; trace blocks count from it
	lat       []int64

	id       []byte
	body     bytes.Buffer
	tally    tally
	rejected int64

	tracedNS, tracedN, plainNS, plainN int64
}

// run sends requests until n reaches stop or the clock passes until (0: no
// deadline).
func (c *svcClient) run(stop int, until int64) {
	for ; c.n < stop && (until == 0 || c.clk.now() < until); c.n++ {
		c.one()
	}
}

func (c *svcClient) one() {
	req := &c.tenant.reqs[c.n%len(c.tenant.reqs)]
	var r *recorder
	if c.rec != nil && ((c.n-c.timedFrom)/svcTraceBlock)%2 == 0 {
		r = c.rec
		r.req = uint32(c.n)
	}
	c.id = appendRequestID(c.id[:0], r != nil, c.idx, c.n)
	t0 := c.clk.now()
	o := c.send(req, r)
	t1 := c.clk.now()
	if c.timed {
		c.lat = append(c.lat, t1-t0)
		if r != nil {
			r.add(layerRequest, t0, t1)
			c.tracedNS, c.tracedN = c.tracedNS+t1-t0, c.tracedN+1
		} else {
			c.plainNS, c.plainN = c.plainNS+t1-t0, c.plainN+1
		}
	}
	c.tally.add(o)
}

// send issues the request, retrying after each 429, and checks the reply
// against the reference model.
func (c *svcClient) send(req *svcRequest, r *recorder) outcome {
	var o outcome
	for {
		t := r.begin()
		resp, err := c.roundTrip(req)
		r.end(layerClient, t)
		if err != nil {
			o.check(err)
			return o
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			c.rejected++
			c.tally.attempted++
			time.Sleep(time.Millisecond)
			continue
		}
		if resp.StatusCode != http.StatusOK {
			o.check(fmt.Errorf("%s %s: status %d: %s", req.method, req.url, resp.StatusCode, c.body.Bytes()))
			return o
		}
		switch req.kind {
		case kindQuery:
			n, err := parseCount(c.body.Bytes())
			o.expect(n, err, req.count)
		case kindGet:
			if !bytes.Equal(c.body.Bytes(), req.data) {
				o.check(fmt.Errorf("GET %s: body differs from the reference model", req.url))
			}
		}
		return o
	}
}

// roundTrip sends the request over the client's connection and reads the
// whole reply body into c.body.
func (c *svcClient) roundTrip(req *svcRequest) (*http.Response, error) {
	hr, err := http.NewRequest(req.method, c.base+req.url, bytes.NewReader(req.body))
	if err != nil {
		return nil, err
	}
	hr.Header.Set("X-Request-ID", string(c.id))
	resp, err := c.hc.Do(hr)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	c.body.Reset()
	_, err = c.body.ReadFrom(resp.Body)
	return resp, err
}

// parseCount reads a popcount reply, {"count":N}.
func parseCount(b []byte) (int64, error) {
	rest, ok := bytes.CutPrefix(bytes.TrimSpace(b), []byte(`{"count":`))
	if !ok || len(rest) == 0 || rest[len(rest)-1] != '}' {
		return 0, fmt.Errorf("query reply %q", b)
	}
	return strconv.ParseInt(string(rest[:len(rest)-1]), 10, 64)
}

// svcWallNS sums the service's own per-tenant wall-time histograms.
func svcWallNS(reg *ambit.MetricsRegistry, tenants []*svcTenant) float64 {
	var sum float64
	for _, t := range tenants {
		if snap, ok := reg.LabeledHistogramSnapshot("svc_wall_ns", ambit.Label{Key: "ns", Value: t.name}); ok {
			sum += snap.Sum
		}
	}
	return sum
}

func runService(o options) (*result, error) {
	res := newResult(o)
	cycle := scaled(1000, o.scale, 20)
	warmCycles := 3
	rng := rand.New(rand.NewSource(o.seed))
	d := newDigest()
	tenants := make([]*svcTenant, svcClients)
	for c := range tenants {
		tenants[c] = genTenant(rng, "t"+strconv.Itoa(c), cycle)
		for _, req := range tenants[c].reqs {
			d.add(uint64(req.kind), uint64(len(req.body)), uint64(req.count))
			for _, b := range req.body {
				d.add(uint64(b))
			}
		}
	}
	res.InputDigest = d.String()

	clk := newClock()
	var srec *serverRecorder
	if o.trace {
		srec = &serverRecorder{}
	}
	cal, err := newCalibrator()
	if err != nil {
		return nil, err
	}
	defer cal.close()
	var live *svcSystem
	err = repeatSetup(res, cal, func(st *setupTimes) (err error) {
		live, err = setupService(st, clk, srec, tenants)
		return err
	}, func() { live.close() })
	if err != nil {
		return nil, err
	}
	defer live.close()

	clients := make([]*svcClient, svcClients)
	for c := range clients {
		clients[c] = &svcClient{idx: c, hc: live.clients[c], base: live.server.URL, tenant: tenants[c], clk: clk}
	}
	phase := func(stop int, until int64) {
		var wg sync.WaitGroup
		for _, c := range clients {
			wg.Add(1)
			go func(c *svcClient) {
				defer wg.Done()
				c.run(stop, until)
			}(c)
		}
		wg.Wait()
	}

	// Warm up, then size the latency and span buffers from the warm rate.
	warm := warmCycles * cycle
	warmStart := clk.now()
	phase(warm, 0)
	rate := float64(warm) / time.Duration(clk.now()-warmStart).Seconds()

	// The exact pass, untimed: one whole cycle per client, the clients taking
	// turns.  Concurrent tenants interleave on the simulated clock in a
	// host-dependent order; taking turns fixes the order, so a seed fixes
	// every simulated metric.
	exactStart := snapshot(live.sys)
	for _, c := range clients {
		c.run(c.n+cycle, 0)
	}
	exactEnd := snapshot(live.sys)
	expected := int(rate*o.seconds*1.5) + cycle
	for _, c := range clients {
		c.lat = make([]int64, 0, expected)
		c.timed, c.timedFrom = true, c.n
		if o.trace {
			c.rec = newRecorder(clk, uint8(c.idx), 2*(expected/2+svcTraceBlock))
		}
	}
	if srec != nil {
		srec.spans = make([]span, 0, svcClients*(expected/2+svcTraceBlock))
	}

	var m0, m1 runtime.MemStats
	before := snapshot(live.sys)
	busy0, wall0 := live.handler.busyNS.Load(), svcWallNS(live.reg, tenants)
	runtime.ReadMemStats(&m0)
	// The clients pause every calInterval while the host is calibrated; the
	// pauses are not part of the timed phase.
	deadline := int64(o.seconds * float64(time.Second))
	var paused int64
	start := clk.now()
	for clk.now()-start-paused < deadline {
		t := clk.now()
		cal.measure()
		now := clk.now()
		paused += now - t
		phase(math.MaxInt, min(now+int64(calInterval), start+paused+deadline))
	}
	elapsed := time.Duration(clk.now() - start - paused)
	runtime.ReadMemStats(&m1)
	busy1, wall1 := live.handler.busyNS.Load(), svcWallNS(live.reg, tenants)
	after := snapshot(live.sys)

	var (
		lat                                []int64
		t                                  tally
		rejected                           int64
		tracedNS, tracedN, plainNS, plainN int64
		spans                              [][]span
	)
	for _, c := range clients {
		lat = append(lat, c.lat...)
		t.merge(c.tally)
		rejected += c.rejected
		tracedNS, tracedN = tracedNS+c.tracedNS, tracedN+c.tracedN
		plainNS, plainN = plainNS+c.plainNS, plainN+c.plainN
		if c.rec != nil {
			spans = append(spans, c.rec.spans)
		}
	}
	setLatency(res, lat, elapsed, cal)
	setExact(res, exactStart, exactEnd, svcClients*cycle, work{})
	if rows := after.st.RowOps - before.st.RowOps; rows > 0 {
		res.set("ambit.host_ns_per_row_op", float64(elapsed)/float64(rows)*cal.factor())
	}
	if busy := float64(busy1 - busy0); busy > 0 {
		res.set("service.admission_share_pct", 100*(busy-(wall1-wall0))/busy)
	}
	res.set("service.rejected", float64(rejected))
	res.set("service.reject_ratio", float64(rejected)/float64(t.attempted))
	setRuntime(res, &m0, &m1, int64(len(lat)))
	if err := setRSS(res); err != nil {
		return nil, err
	}
	t.finish(res)
	if o.trace {
		res.set("trace.overhead_pct", traceOverhead(tracedNS, tracedN, plainNS, plainN))
		if err := finishTrace(res, o, spans, srec.spans); err != nil {
			return nil, err
		}
	}
	return res, nil
}
