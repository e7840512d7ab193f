package service

// Per-namespace stats: GET /v1/namespaces/{ns}/stats is the tenant-scoped
// counterpart of /v1/stats.  The request counters and wall-latency
// percentiles come from the ns="..." labeled series the request path
// maintains; the simulator's numbers — reliability, fault injections and
// device busy time — come from the tenant's ledger (System.TagStats).

import (
	"net/http"

	"ambit"
)

// NamespaceStats is the GET /v1/namespaces/{ns}/stats response.  The
// request fields equal the ambit_svc_*_total{ns="..."} series /metrics
// exposes; the simulator fields equal the tenant's ledger, which /metrics
// renders as ambit_retries_total{ns="..."}, ambit_injected_faults_total{ns="..."}
// and the like.
type NamespaceStats struct {
	Name      string `json:"name"`
	BaseSlot  int    `json:"base_slot"`
	QuotaRows int    `json:"quota_rows"`
	UsedRows  int    `json:"used_rows"`
	Vectors   int    `json:"vectors"`
	Funcs     int    `json:"funcs"`

	Requests          int64   `json:"requests_total"`
	Ops               int64   `json:"ops_total"`
	Queries           int64   `json:"queries_total"`
	Errors            int64   `json:"errors_total"`
	RejectedQuota     int64   `json:"rejected_quota_total"`
	RejectedSaturated int64   `json:"rejected_saturated_total"`
	P50WallNS         float64 `json:"p50_wall_ns"`
	P99WallNS         float64 `json:"p99_wall_ns"`

	Retries           int64 `json:"retries_total"`
	CorrectedBits     int64 `json:"corrected_bits_total"`
	DetectedRows      int64 `json:"detected_rows_total"`
	UncorrectableRows int64 `json:"uncorrectable_rows_total"`
	InjectedFaults    int64 `json:"injected_faults_total"`
	InjectedFaultBits int64 `json:"injected_fault_bits_total"`

	// BankBusyNS is the simulated device time this tenant's operations
	// occupied banks for, summed over banks.
	BankBusyNS float64 `json:"bank_busy_ns"`
}

func (s *Server) handleNSStats(w http.ResponseWriter, r *http.Request) {
	ns, err := s.ns(r.PathValue("ns"))
	if err != nil {
		s.writeErr(w, err)
		return
	}
	ns.mu.Lock()
	st := NamespaceStats{
		Name:      ns.name,
		BaseSlot:  ns.baseSlot,
		QuotaRows: ns.quota.Limit(),
		UsedRows:  ns.quota.Used(),
		Vectors:   len(ns.vectors),
		Funcs:     len(ns.funcs),
	}
	ns.mu.Unlock()
	label := ambit.Label{Key: "ns", Value: ns.name}
	st.Requests = s.reg.LabeledCounterValue("svc_requests", label)
	st.Ops = s.reg.LabeledCounterValue("svc_ops", label)
	st.Queries = s.reg.LabeledCounterValue("svc_queries", label)
	st.Errors = s.reg.LabeledCounterValue("svc_errors", label)
	st.RejectedQuota = s.reg.LabeledCounterValue("svc_rejected_quota", label)
	st.RejectedSaturated = s.reg.LabeledCounterValue("svc_rejected_saturated", label)
	if snap, ok := s.reg.LabeledHistogramSnapshot("svc_wall_ns", label); ok {
		st.P50WallNS = snap.Quantile(0.50)
		st.P99WallNS = snap.Quantile(0.99)
	}
	ts, _ := s.sys.TagStats(ns.name)
	st.Retries = ts.Retries
	st.CorrectedBits = ts.CorrectedBits
	st.DetectedRows = ts.DetectedRows
	st.UncorrectableRows = ts.UncorrectableRows
	st.InjectedFaults = ts.InjectedFaults
	st.InjectedFaultBits = ts.InjectedFaultBits
	for _, busy := range ts.BankBusyNS {
		st.BankBusyNS += busy
	}
	writeJSON(w, http.StatusOK, st) //nolint:errcheck // client went away
}
