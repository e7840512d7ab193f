// Package service is the multi-tenant serving layer over the Ambit
// execution engine: an HTTP API of named bitvector namespaces, the
// network-facing front end the paper's system-level framing implies (bbop
// instructions driven by a host serving real query workloads, Sections 7-8).
//
// # Contract
//
// A namespace is one tenant: a row quota (ambit.Quota, enforced inside the
// allocator), a placement base slot (namespaces round-robin across slots, so
// tenants start on different banks while each tenant's own vectors stay
// co-located row for row), and a flat name->vector / name->func registry.
// Every data-touching request passes admission control first (bounded
// in-flight execution, bounded wait queue, bank-saturation signal); rejected
// requests get 429 with a Retry-After header instead of queueing without
// bound.  Results are bit-identical to the library path: each endpoint maps
// to exactly one public ambit.System / ambit.Bitvector call and adds no
// simulated work of its own (the differential test in service_test.go holds
// a service-driven run to byte-identical contents and identical Stats).
//
// # Endpoints (all under /v1)
//
//	GET    /v1/stats                                service-wide JSON stats
//	GET    /v1/namespaces                           list namespaces
//	PUT    /v1/namespaces/{ns}                      create {"quota_rows":N}
//	GET    /v1/namespaces/{ns}                      namespace info
//	GET    /v1/namespaces/{ns}/stats                per-tenant JSON stats
//	DELETE /v1/namespaces/{ns}                      drop + free all vectors
//	PUT    /v1/namespaces/{ns}/vectors/{vec}        create {"bits":N}
//	GET    /v1/namespaces/{ns}/vectors/{vec}        vector info
//	DELETE /v1/namespaces/{ns}/vectors/{vec}        free
//	PUT    /v1/namespaces/{ns}/vectors/{vec}/data   raw little-endian words
//	GET    /v1/namespaces/{ns}/vectors/{vec}/data   raw little-endian words
//	POST   /v1/namespaces/{ns}/ops                  {"op":"and","dst":...}
//	POST   /v1/namespaces/{ns}/query                {"op":"popcount",...}
//	PUT    /v1/namespaces/{ns}/funcs/{fn}           compile {"outputs":[...]}
//	POST   /v1/namespaces/{ns}/funcs/{fn}/run       {"dsts":[..],"srcs":[..]}
//
// Data transfers default to the costed DRAM channel; `?backdoor=1` routes
// them through the cost-free simulation backdoor (ambit.Backdoor), which is
// how workload state is installed without perturbing the measured costs.
// The read plane is zero-copy: GET data serializes straight from the
// vector's row views (ambit.Bitvector.ViewWords) under the System's
// execution lock, with no intermediate word buffer.  The write plane is
// symmetric: a body covering the vector's full padded capacity installs
// through the zero-copy row views (ambit.Bitvector.SetWords); a partial body
// falls back to Write, whose contract zero-fills the unset tail.
//
// # Observability
//
// Every admitted request carries an X-Request-ID — accepted from the client
// or assigned by the server, and always echoed in the response header — and
// executes its simulator calls through ambit.System.Tagged, so op spans,
// Chrome-trace JSONL, and the telemetry server's /trace stream (filterable
// with ?ns=NAME) carry the (tenant, request) identity, and the simulator
// books the tenant's work in its ledger (ambit.System.TagStats).  The
// registry keeps per-tenant labeled families alongside the flat totals:
// svc_requests, svc_ops, svc_queries, svc_errors, svc_rejected_quota, and
// svc_rejected_saturated counters plus the svc_wall_ns wall-clock histogram,
// all rendered by /metrics as ambit_svc_*{ns="..."} series, and one
// svc_route_wall_ns{route="..."} wall-clock histogram per route.  /metrics
// renders the tenants' reliability counters (retries, corrected_bits,
// detected_rows, uncorrectable_rows, injected_faults, injected_fault_bits)
// from the ledgers when scraped.  GET /v1/namespaces/{ns}/stats reads the
// request series and the tenant's ledger back as one JSON document, and GET
// /v1/stats computes throughput and latency quantiles over the server's
// lifetime from the summed svc_wall_ns buckets; the K slowest requests are
// retained for /debug/slowlog (SlowlogHandler); and Config.Logger enables
// sampled structured request logging (log/slog).
//
// # Concurrency
//
// The server is safe for any number of concurrent clients.  The namespace
// registry is guarded by one RWMutex, each namespace's vector/func maps by
// the namespace's own mutex, and the simulator calls rely on the System's
// documented thread safety.  A vector freed while another request uses it
// degrades to the library's typed ErrFreed, mapped to 404 — never a torn
// result.
//
// # Error mapping
//
// Library sentinels map onto HTTP statuses in errmap.go: ErrQuotaExceeded
// and ErrSaturated to 429 (the latter with Retry-After), ErrFreed and
// unknown names to 404, ErrShapeMismatch/ErrOutOfRange/ErrAliasedOperands to
// 400, ErrCapacity to 507, ErrUncorrectable to 500.  Bodies are JSON
// {"error": "...", "kind": "..."} with kind a stable machine-readable tag.
package service

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ambit"
	"ambit/internal/controller"
	"ambit/internal/obs"
)

// Config tunes the server; the zero value selects every default.
type Config struct {
	// MaxInflight caps requests executing concurrently on the simulator
	// (default 16).
	MaxInflight int
	// MaxQueue caps requests waiting for an execution slot; one more is
	// rejected with 429 (default 64).
	MaxQueue int
	// MaxWait bounds how long an admitted request waits in the queue
	// before degrading to 429 + Retry-After (default 2s).
	MaxWait time.Duration
	// SaturationThreshold is the trailing-window mean bank busy fraction
	// above which new work is rejected while the device is busy
	// (default 0.95; <0 disables the signal).
	SaturationThreshold float64
	// SaturationWindowNS is the trailing window of simulated time the
	// saturation signal averages over (default 1e6 ns).
	SaturationWindowNS float64
	// DefaultQuotaRows is the row quota of namespaces created without one
	// (default 4096 rows; 0 keeps 4096, negative means unlimited).
	DefaultQuotaRows int
	// MaxBodyBytes caps request bodies (default 64 MiB).
	MaxBodyBytes int64
	// Logger, when non-nil, receives one structured log record per request:
	// failures always, successes sampled 1-in-LogEvery.  Nil disables
	// request logging entirely.
	Logger *slog.Logger
	// LogEvery samples successful-request log records: 1 in LogEvery is
	// emitted (<= 1 logs every request).  Failed requests are never sampled
	// away.
	LogEvery int
	// SlowlogSize is how many of the slowest requests the /debug/slowlog
	// ring retains (default 64).
	SlowlogSize int
}

func (c *Config) fill() {
	if c.MaxInflight <= 0 {
		c.MaxInflight = 16
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 64
	}
	if c.MaxWait <= 0 {
		c.MaxWait = 2 * time.Second
	}
	if c.SaturationThreshold == 0 {
		c.SaturationThreshold = 0.95
	}
	if c.SaturationWindowNS <= 0 {
		c.SaturationWindowNS = 1e6
	}
	if c.DefaultQuotaRows == 0 {
		c.DefaultQuotaRows = 4096
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 64 << 20
	}
}

// Server is the multi-tenant bitvector service: an http.Handler serving the
// /v1 namespace API over one ambit.System.  Create with New and mount with
// System.RegisterHTTP (or any mux).
type Server struct {
	sys     *ambit.System
	cfg     Config
	mux     *http.ServeMux
	adm     *admission
	reg     *ambit.MetricsRegistry
	started time.Time // New's time: /v1/stats' qps divides by the time since

	mu         sync.RWMutex
	namespaces map[string]*namespace
	nextBase   int

	slow   *slowlog
	logSeq atomic.Uint64 // request-log sampling sequence

	// handles caches one bundle of labeled-series handles per namespace
	// name, so the request hot path bumps per-tenant counters with plain
	// atomics instead of re-resolving label sets in the registry.  Entries
	// survive namespace drops (the underlying series are permanent).
	handleMu sync.RWMutex
	handles  map[string]*nsHandles

	bufPool sync.Pool // *[]byte staging buffers for data transfers
	wordsMu sync.Pool // *[]uint64 word buffers for data transfers
}

// nsHandles is one namespace's cached labeled-series handles (see
// internal/obs labels.go for the family semantics).
type nsHandles struct {
	requests *obs.Counter
	ops      *obs.Counter
	queries  *obs.Counter
	errors   *obs.Counter
	rejQuota *obs.Counter
	rejSat   *obs.Counter
	wall     *obs.Histogram
}

// nsHandles returns (building on first use) the labeled-series bundle of the
// named namespace.
func (s *Server) nsHandles(name string) *nsHandles {
	s.handleMu.RLock()
	h := s.handles[name]
	s.handleMu.RUnlock()
	if h != nil {
		return h
	}
	label := ambit.Label{Key: "ns", Value: name}
	h = &nsHandles{
		requests: s.reg.LabeledCounter("svc_requests", label),
		ops:      s.reg.LabeledCounter("svc_ops", label),
		queries:  s.reg.LabeledCounter("svc_queries", label),
		errors:   s.reg.LabeledCounter("svc_errors", label),
		rejQuota: s.reg.LabeledCounter("svc_rejected_quota", label),
		rejSat:   s.reg.LabeledCounter("svc_rejected_saturated", label),
		wall:     s.reg.LabeledHistogram("svc_wall_ns", ambit.WallBucketsNS, label),
	}
	s.handleMu.Lock()
	switch prev := s.handles[name]; {
	case prev != nil:
		h = prev
	case len(s.handles) < maxHandleCache:
		// Past the cap the bundle is simply not cached: the registry has
		// folded such series into its overflow anyway, so re-resolving is
		// both rare and cheap.
		s.handles[name] = h
	}
	s.handleMu.Unlock()
	return h
}

// maxHandleCache bounds the per-namespace handle cache against clients
// probing unbounded name sets.  It is the registry's own cardinality cap: a
// namespace first seen past it gets only the {overflow="true"} series, so
// caching its bundle would save nothing.
const maxHandleCache = obs.MaxSeriesPerFamily

// namespace is one tenant.
type namespace struct {
	name     string
	baseSlot int
	quota    *ambit.Quota

	mu      sync.Mutex
	dropped bool
	vectors map[string]*ambit.Bitvector
	funcs   map[string]*ambit.Func
}

// New creates a Server over sys.  The metrics registry (sys.Metrics(), or a
// private one when sys has none) receives svc_* counters, gauges, and
// wall-clock histograms.
func New(sys *ambit.System, cfg Config) *Server {
	cfg.fill()
	reg := sys.Metrics()
	if reg == nil {
		reg = ambit.NewMetrics()
	}
	s := &Server{
		sys:        sys,
		cfg:        cfg,
		mux:        http.NewServeMux(),
		reg:        reg,
		started:    time.Now(),
		namespaces: make(map[string]*namespace),
		handles:    make(map[string]*nsHandles),
	}
	s.adm = newAdmission(sys, cfg, reg)
	s.slow = newSlowlog(cfg.SlowlogSize)
	s.bufPool.New = func() any { b := make([]byte, 0, 1<<16); return &b }
	s.wordsMu.New = func() any { w := make([]uint64, 0, 1<<13); return &w }
	s.routes()
	return s
}

// Close releases the server.  The server runs no background work, so Close
// does nothing today; in-flight requests finish normally and the handler
// keeps working.
func (s *Server) Close() error { return nil }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

func (s *Server) routes() {
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /v1/namespaces", s.handleNSList)
	s.mux.HandleFunc("PUT /v1/namespaces/{ns}", s.admitted("svc.ns_create", s.handleNSCreate))
	s.mux.HandleFunc("GET /v1/namespaces/{ns}", s.handleNSInfo)
	s.mux.HandleFunc("GET /v1/namespaces/{ns}/stats", s.handleNSStats)
	s.mux.HandleFunc("DELETE /v1/namespaces/{ns}", s.admitted("svc.ns_drop", s.handleNSDrop))
	s.mux.HandleFunc("PUT /v1/namespaces/{ns}/vectors/{vec}", s.admitted("svc.vec_create", s.handleVecCreate))
	s.mux.HandleFunc("GET /v1/namespaces/{ns}/vectors/{vec}", s.handleVecInfo)
	s.mux.HandleFunc("DELETE /v1/namespaces/{ns}/vectors/{vec}", s.admitted("svc.vec_free", s.handleVecFree))
	s.mux.HandleFunc("PUT /v1/namespaces/{ns}/vectors/{vec}/data", s.admitted("svc.data_write", s.handleDataWrite))
	s.mux.HandleFunc("GET /v1/namespaces/{ns}/vectors/{vec}/data", s.admitted("svc.data_read", s.handleDataRead))
	s.mux.HandleFunc("POST /v1/namespaces/{ns}/ops", s.admitted("svc.op", s.handleOp))
	s.mux.HandleFunc("POST /v1/namespaces/{ns}/query", s.admitted("svc.query", s.handleQuery))
	s.mux.HandleFunc("PUT /v1/namespaces/{ns}/funcs/{fn}", s.admitted("svc.func_compile", s.handleFuncCompile))
	s.mux.HandleFunc("POST /v1/namespaces/{ns}/funcs/{fn}/run", s.admitted("svc.func_run", s.handleFuncRun))
}

// admitted wraps a handler with request identity, admission control, and
// observability: the X-Request-ID is accepted or assigned (and echoed), the
// ambit.Tag{NS, Req} rides the request context into the tagged simulator
// calls, and completion feeds the flat and per-tenant request metrics, the
// per-tenant wall-clock histogram behind qps/p99, the route's wall-clock
// histogram, the slow-request ring, and the sampled structured log.
func (s *Server) admitted(route string, h func(http.ResponseWriter, *http.Request) error) http.HandlerFunc {
	routeWall := s.reg.LabeledHistogram("svc_route_wall_ns", ambit.WallBucketsNS, ambit.Label{Key: "route", Value: route})
	return func(w http.ResponseWriter, r *http.Request) {
		tag := ambit.Tag{NS: r.PathValue("ns"), Req: requestID(r)}
		w.Header().Set("X-Request-ID", tag.Req)
		r = r.WithContext(withTag(r.Context(), tag))
		nh := s.nsHandles(tag.NS)
		s.reg.Add("svc_requests", 1)
		nh.requests.Add(1)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		release, err := s.adm.acquire(r.Context())
		if err != nil {
			// Rejected before execution: counted (flat + per-tenant) and
			// logged, but not folded into the wall-latency distribution —
			// the request never ran.
			s.writeErrNS(sw, nh, err)
			s.logRequest(route, tag, sw.status, 0, err)
			return
		}
		defer release()
		start := time.Now()
		r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
		err = h(sw, r)
		if err != nil {
			s.writeErrNS(sw, nh, err)
		}
		wall := float64(time.Since(start).Nanoseconds())
		routeWall.Observe(wall)
		nh.wall.Observe(wall)
		s.slow.record(SlowEntry{Time: start, Req: tag.Req, NS: tag.NS, Route: route, Status: sw.status, WallNS: wall})
		s.logRequest(route, tag, sw.status, wall, err)
	}
}

// ns resolves a live namespace by name.
func (s *Server) ns(name string) (*namespace, error) {
	s.mu.RLock()
	ns := s.namespaces[name]
	s.mu.RUnlock()
	if ns == nil {
		return nil, notFoundf("namespace %q not found", name)
	}
	return ns, nil
}

// vec resolves a vector within a namespace.
func (ns *namespace) vec(name string) (*ambit.Bitvector, error) {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	v := ns.vectors[name]
	if v == nil {
		return nil, notFoundf("vector %q not found in namespace %q", name, ns.name)
	}
	return v, nil
}

// ---- namespace lifecycle ----

type nsCreateReq struct {
	QuotaRows *int `json:"quota_rows"`
}

type nsInfo struct {
	Name      string   `json:"name"`
	BaseSlot  int      `json:"base_slot"`
	QuotaRows int      `json:"quota_rows"`
	UsedRows  int      `json:"used_rows"`
	Vectors   []string `json:"vectors"`
	Funcs     []string `json:"funcs,omitempty"`
}

func (s *Server) handleNSCreate(w http.ResponseWriter, r *http.Request) error {
	name := r.PathValue("ns")
	if err := checkName(name); err != nil {
		return err
	}
	var req nsCreateReq
	if err := decodeJSON(r, &req, true); err != nil {
		return err
	}
	quotaRows := s.cfg.DefaultQuotaRows
	if req.QuotaRows != nil {
		quotaRows = *req.QuotaRows
	}
	if quotaRows < 0 {
		quotaRows = 0 // unlimited
	}
	s.mu.Lock()
	if _, ok := s.namespaces[name]; ok {
		s.mu.Unlock()
		return conflictf("namespace %q already exists", name)
	}
	slots := s.sys.Config().DRAM.Geometry.Banks * s.sys.Config().DRAM.Geometry.SubarraysPerBank
	ns := &namespace{
		name:     name,
		baseSlot: s.nextBase % slots,
		quota:    ambit.NewQuota(quotaRows),
		vectors:  make(map[string]*ambit.Bitvector),
		funcs:    make(map[string]*ambit.Func),
	}
	s.nextBase++
	s.namespaces[name] = ns
	n := len(s.namespaces)
	s.mu.Unlock()
	s.reg.SetGauge("svc_namespaces", float64(n))
	return writeJSON(w, http.StatusCreated, s.nsInfo(ns))
}

func (s *Server) nsInfo(ns *namespace) nsInfo {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	info := nsInfo{
		Name:      ns.name,
		BaseSlot:  ns.baseSlot,
		QuotaRows: ns.quota.Limit(),
		UsedRows:  ns.quota.Used(),
	}
	for v := range ns.vectors {
		info.Vectors = append(info.Vectors, v)
	}
	for f := range ns.funcs {
		info.Funcs = append(info.Funcs, f)
	}
	sort.Strings(info.Vectors)
	sort.Strings(info.Funcs)
	return info
}

func (s *Server) handleNSInfo(w http.ResponseWriter, r *http.Request) {
	ns, err := s.ns(r.PathValue("ns"))
	if err != nil {
		s.writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, s.nsInfo(ns)) //nolint:errcheck // client went away
}

func (s *Server) handleNSList(w http.ResponseWriter, _ *http.Request) {
	s.mu.RLock()
	names := make([]string, 0, len(s.namespaces))
	for n := range s.namespaces {
		names = append(names, n)
	}
	s.mu.RUnlock()
	sort.Strings(names)
	writeJSON(w, http.StatusOK, map[string]any{"namespaces": names}) //nolint:errcheck // client went away
}

func (s *Server) handleNSDrop(w http.ResponseWriter, r *http.Request) error {
	name := r.PathValue("ns")
	s.mu.Lock()
	ns := s.namespaces[name]
	delete(s.namespaces, name)
	n := len(s.namespaces)
	s.mu.Unlock()
	if ns == nil {
		return notFoundf("namespace %q not found", name)
	}
	s.reg.SetGauge("svc_namespaces", float64(n))
	ns.mu.Lock()
	defer ns.mu.Unlock()
	ns.dropped = true
	var firstErr error
	for vn, v := range ns.vectors {
		if err := s.sys.Free(v); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("freeing %q: %w", vn, err)
		}
		delete(ns.vectors, vn)
	}
	if firstErr != nil {
		return firstErr
	}
	return writeJSON(w, http.StatusOK, map[string]any{"dropped": name})
}

// ---- vector lifecycle ----

type vecCreateReq struct {
	Bits int64 `json:"bits"`
}

type vecInfo struct {
	Name  string `json:"name"`
	Bits  int64  `json:"bits"`
	Rows  int    `json:"rows"`
	Words int    `json:"words"`
}

func (s *Server) handleVecCreate(w http.ResponseWriter, r *http.Request) error {
	ns, err := s.ns(r.PathValue("ns"))
	if err != nil {
		return err
	}
	name := r.PathValue("vec")
	if err := checkName(name); err != nil {
		return err
	}
	var req vecCreateReq
	if err := decodeJSON(r, &req, false); err != nil {
		return err
	}
	if req.Bits <= 0 {
		return badRequestf("bits must be positive, got %d", req.Bits)
	}
	ns.mu.Lock()
	defer ns.mu.Unlock()
	if ns.dropped {
		return notFoundf("namespace %q not found", ns.name)
	}
	if _, ok := ns.vectors[name]; ok {
		return conflictf("vector %q already exists in namespace %q", name, ns.name)
	}
	v, err := s.sys.AllocQuota(req.Bits, ns.baseSlot, ns.quota)
	if err != nil {
		return err
	}
	ns.vectors[name] = v
	s.reg.SetGauge("svc_quota_rows_used", s.totalQuotaUsed())
	return writeJSON(w, http.StatusCreated, vecInfo{Name: name, Bits: v.Len(), Rows: v.Rows(), Words: v.WordCount()})
}

func (s *Server) handleVecInfo(w http.ResponseWriter, r *http.Request) {
	ns, err := s.ns(r.PathValue("ns"))
	if err != nil {
		s.writeErr(w, err)
		return
	}
	name := r.PathValue("vec")
	v, err := ns.vec(name)
	if err != nil {
		s.writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, vecInfo{Name: name, Bits: v.Len(), Rows: v.Rows(), Words: v.WordCount()}) //nolint:errcheck // client went away
}

func (s *Server) handleVecFree(w http.ResponseWriter, r *http.Request) error {
	ns, err := s.ns(r.PathValue("ns"))
	if err != nil {
		return err
	}
	name := r.PathValue("vec")
	ns.mu.Lock()
	v := ns.vectors[name]
	delete(ns.vectors, name)
	ns.mu.Unlock()
	if v == nil {
		return notFoundf("vector %q not found in namespace %q", name, ns.name)
	}
	if err := s.sys.Free(v); err != nil {
		return err
	}
	s.reg.SetGauge("svc_quota_rows_used", s.totalQuotaUsed())
	return writeJSON(w, http.StatusOK, map[string]any{"freed": name})
}

// totalQuotaUsed sums the used rows across namespaces.
func (s *Server) totalQuotaUsed() float64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var used int
	for _, ns := range s.namespaces {
		used += ns.quota.Used()
	}
	return float64(used)
}

// ---- data plane ----

func ioOpts(r *http.Request) []ambit.IOOption {
	if r.URL.Query().Get("backdoor") != "" {
		return []ambit.IOOption{ambit.Backdoor()}
	}
	return nil
}

func (s *Server) handleDataWrite(w http.ResponseWriter, r *http.Request) error {
	ns, err := s.ns(r.PathValue("ns"))
	if err != nil {
		return err
	}
	v, err := ns.vec(r.PathValue("vec"))
	if err != nil {
		return err
	}
	bufp := s.bufPool.Get().(*[]byte)
	defer s.bufPool.Put(bufp)
	body, err := readAllInto((*bufp)[:0], r.Body)
	*bufp = body[:0]
	if err != nil {
		return badRequestf("reading body: %v", err)
	}
	if len(body)%8 != 0 {
		return badRequestf("body length %d is not a multiple of 8 (little-endian uint64 words)", len(body))
	}
	wp := s.wordsMu.Get().(*[]uint64)
	defer s.wordsMu.Put(wp)
	words := (*wp)[:0]
	for i := 0; i+8 <= len(body); i += 8 {
		words = append(words, binary.LittleEndian.Uint64(body[i:]))
	}
	*wp = words[:0]
	// A body covering the vector's full padded capacity installs through the
	// zero-copy row views (SetWords) — no per-row staging, no redundant
	// zero-fill.  A partial body keeps Write's contract: the unset tail is
	// zero-filled.
	if len(words) == v.WordCount() {
		if _, err := v.SetWords(words, ioOpts(r)...); err != nil {
			return err
		}
	} else if err := v.Write(words, ioOpts(r)...); err != nil {
		return err
	}
	return writeJSON(w, http.StatusOK, map[string]any{"words": len(words)})
}

func (s *Server) handleDataRead(w http.ResponseWriter, r *http.Request) error {
	ns, err := s.ns(r.PathValue("ns"))
	if err != nil {
		return err
	}
	v, err := ns.vec(r.PathValue("vec"))
	if err != nil {
		return err
	}
	bufp := s.bufPool.Get().(*[]byte)
	defer s.bufPool.Put(bufp)
	out := (*bufp)[:0]
	// Serialize straight out of the vector's zero-copy row views — no
	// intermediate word buffer.  ViewWords holds the System's execution lock
	// for the duration, so a concurrent operation on the same vector cannot
	// tear the snapshot.
	err = v.ViewWords(func(views [][]uint64) error {
		for _, row := range views {
			for _, word := range row {
				out = binary.LittleEndian.AppendUint64(out, word)
			}
		}
		return nil
	}, ioOpts(r)...)
	*bufp = out[:0]
	if err != nil {
		return err
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", fmt.Sprint(len(out)))
	_, err = w.Write(out)
	return err
}

// ---- operations ----

type opReq struct {
	Op  string `json:"op"`
	Dst string `json:"dst"`
	A   string `json:"a,omitempty"`
	B   string `json:"b,omitempty"`
	Bit bool   `json:"bit,omitempty"`
}

// bulkOps maps wire names onto controller opcodes.
var bulkOps = map[string]controller.Op{
	"and": controller.OpAnd, "or": controller.OpOr, "not": controller.OpNot,
	"nand": controller.OpNand, "nor": controller.OpNor,
	"xor": controller.OpXor, "xnor": controller.OpXnor,
}

func (s *Server) handleOp(w http.ResponseWriter, r *http.Request) error {
	ns, err := s.ns(r.PathValue("ns"))
	if err != nil {
		return err
	}
	var req opReq
	if err := decodeJSON(r, &req, false); err != nil {
		return err
	}
	dst, err := ns.vec(req.Dst)
	if err != nil {
		return err
	}
	tagged := s.sys.Tagged(tagFrom(r.Context()))
	switch op := strings.ToLower(req.Op); op {
	case "copy":
		a, err := ns.vec(req.A)
		if err != nil {
			return err
		}
		if err := tagged.Copy(dst, a); err != nil {
			return err
		}
	case "fill":
		if err := tagged.Fill(dst, req.Bit); err != nil {
			return err
		}
	default:
		bop, ok := bulkOps[op]
		if !ok {
			return badRequestf("unknown op %q (want and/or/not/nand/nor/xor/xnor/copy/fill)", req.Op)
		}
		a, err := ns.vec(req.A)
		if err != nil {
			return err
		}
		var b *ambit.Bitvector
		if !bop.Unary() {
			if b, err = ns.vec(req.B); err != nil {
				return err
			}
		}
		if err := tagged.Apply(bop, dst, a, b); err != nil {
			return err
		}
	}
	s.reg.Add("svc_ops", 1)
	s.nsHandles(ns.name).ops.Add(1)
	return writeJSON(w, http.StatusOK, map[string]any{"ok": true})
}

// ---- queries ----

type queryReq struct {
	Op     string `json:"op"`
	Vector string `json:"vector"`
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) error {
	ns, err := s.ns(r.PathValue("ns"))
	if err != nil {
		return err
	}
	var req queryReq
	if err := decodeJSON(r, &req, false); err != nil {
		return err
	}
	switch strings.ToLower(req.Op) {
	case "popcount":
		v, err := ns.vec(req.Vector)
		if err != nil {
			return err
		}
		n, err := s.sys.Tagged(tagFrom(r.Context())).Popcount(v)
		if err != nil {
			return err
		}
		s.reg.Add("svc_queries", 1)
		s.nsHandles(ns.name).queries.Add(1)
		return writeJSON(w, http.StatusOK, map[string]any{"count": n})
	default:
		return badRequestf("unknown query op %q (want popcount)", req.Op)
	}
}

// ---- compiled functions ----

type funcCompileReq struct {
	Outputs []exprJSON `json:"outputs"`
}

type funcRunReq struct {
	Dsts []string `json:"dsts"`
	Srcs []string `json:"srcs"`
}

func (s *Server) handleFuncCompile(w http.ResponseWriter, r *http.Request) error {
	ns, err := s.ns(r.PathValue("ns"))
	if err != nil {
		return err
	}
	name := r.PathValue("fn")
	if err := checkName(name); err != nil {
		return err
	}
	var req funcCompileReq
	if err := decodeJSON(r, &req, false); err != nil {
		return err
	}
	if len(req.Outputs) == 0 {
		return badRequestf("outputs must not be empty")
	}
	exprs := make([]*ambit.Expr, len(req.Outputs))
	for i, e := range req.Outputs {
		if exprs[i], err = e.parse(); err != nil {
			return badRequestf("outputs[%d]: %v", i, err)
		}
	}
	f, err := s.sys.Compile(ns.name+"/"+name, exprs...)
	if err != nil {
		// A function that does not compile (too many operands, more live
		// values than designated rows) is the client's to fix.
		return badRequestf("%v", err)
	}
	ns.mu.Lock()
	ns.funcs[name] = f
	ns.mu.Unlock()
	return writeJSON(w, http.StatusCreated, map[string]any{
		"name": name, "inputs": f.NumInputs(), "outputs": f.NumOutputs(),
		"gates": f.Gates(), "steps": f.Steps(), "row_latency_ns": f.RowLatencyNS(),
	})
}

func (s *Server) handleFuncRun(w http.ResponseWriter, r *http.Request) error {
	ns, err := s.ns(r.PathValue("ns"))
	if err != nil {
		return err
	}
	name := r.PathValue("fn")
	ns.mu.Lock()
	f := ns.funcs[name]
	ns.mu.Unlock()
	if f == nil {
		return notFoundf("func %q not found in namespace %q", name, ns.name)
	}
	var req funcRunReq
	if err := decodeJSON(r, &req, false); err != nil {
		return err
	}
	dsts := make([]*ambit.Bitvector, len(req.Dsts))
	for i, n := range req.Dsts {
		if dsts[i], err = ns.vec(n); err != nil {
			return err
		}
	}
	srcs := make([]*ambit.Bitvector, len(req.Srcs))
	for i, n := range req.Srcs {
		if srcs[i], err = ns.vec(n); err != nil {
			return err
		}
	}
	if err := s.sys.Tagged(tagFrom(r.Context())).RunFunc(f, dsts, srcs...); err != nil {
		return err
	}
	s.reg.Add("svc_ops", 1)
	s.nsHandles(ns.name).ops.Add(1)
	return writeJSON(w, http.StatusOK, map[string]any{"ok": true})
}

// ---- service-wide stats ----

// StatsSnapshot is the GET /v1/stats response.  QPS, P50WallNS and
// P99WallNS cover the server's lifetime: the admitted requests' svc_wall_ns
// observations, summed over tenants, per second since New and at the 50th
// and 99th percentile of their buckets.
type StatsSnapshot struct {
	Namespaces        int     `json:"namespaces"`
	QuotaRowsUsed     int     `json:"quota_rows_used"`
	QPS               float64 `json:"qps"`
	P50WallNS         float64 `json:"p50_wall_ns"`
	P99WallNS         float64 `json:"p99_wall_ns"`
	Inflight          int     `json:"inflight"`
	QueueDepth        int     `json:"queue_depth"`
	RequestsTotal     int64   `json:"requests_total"`
	RejectedQuota     int64   `json:"rejected_quota_total"`
	RejectedSaturated int64   `json:"rejected_saturated_total"`
	BankSaturation    float64 `json:"bank_saturation"`
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	s.mu.RLock()
	nss := len(s.namespaces)
	var used int
	for _, ns := range s.namespaces {
		used += ns.quota.Used()
	}
	s.mu.RUnlock()
	sat, _ := s.sys.BankSaturation(s.cfg.SaturationWindowNS)
	wall := s.wallTotals()
	snap := StatsSnapshot{
		Namespaces:        nss,
		QuotaRowsUsed:     used,
		QPS:               float64(wall.Count) / time.Since(s.started).Seconds(),
		P50WallNS:         wall.Quantile(0.50),
		P99WallNS:         wall.Quantile(0.99),
		Inflight:          s.adm.inflight(),
		QueueDepth:        s.adm.queued(),
		RequestsTotal:     s.reg.Counter("svc_requests"),
		RejectedQuota:     s.reg.Counter("svc_rejected_quota"),
		RejectedSaturated: s.reg.Counter("svc_rejected_saturated"),
		BankSaturation:    sat,
	}
	writeJSON(w, http.StatusOK, snap) //nolint:errcheck // client went away
}

// wallTotals sums the bucket counts of every svc_wall_ns series (the
// overflow series included) into one snapshot whose Count is their total.
func (s *Server) wallTotals() ambit.HistogramSnapshot {
	var total ambit.HistogramSnapshot
	for _, series := range s.reg.LabeledHistograms("svc_wall_ns") {
		if total.Counts == nil {
			total.Bounds = series.Snap.Bounds
			total.Counts = make([]uint64, len(series.Snap.Counts))
		}
		for i, c := range series.Snap.Counts {
			total.Counts[i] += c
			total.Count += c
		}
	}
	return total
}

// ---- helpers ----

// decodeJSON parses an optional or required JSON body.
func decodeJSON(r *http.Request, dst any, optional bool) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		if optional && err == io.EOF {
			return nil
		}
		return badRequestf("request body: %v", err)
	}
	return nil
}

// readAllInto is io.ReadAll into a reusable buffer.
func readAllInto(buf []byte, r io.Reader) ([]byte, error) {
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// checkName validates namespace/vector/func names: non-empty, path- and
// metric-safe.
func checkName(name string) error {
	if name == "" || len(name) > 128 {
		return badRequestf("name must be 1-128 characters")
	}
	for _, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.':
		default:
			return badRequestf("name %q contains %q; use [A-Za-z0-9._-]", name, c)
		}
	}
	return nil
}

func writeJSON(w http.ResponseWriter, status int, v any) error {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	return enc.Encode(v)
}
