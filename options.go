package ambit

// Option is a functional configuration option for New.
//
// Options are the primary construction API.  Every option's parameter type is
// exported (or re-exported) by this package — DRAMConfig, EnergyModel,
// FaultConfig, Reliability — so no internal imports are needed:
//
//	sys, err := ambit.New(
//	    ambit.WithDRAM(ambit.DefaultDRAMConfig()),
//	    ambit.WithFaultModel(ambit.FaultConfig{TRABitRate: 1e-4, Seed: 1}),
//	    ambit.WithReliability(ambit.Reliability{ECC: true, MaxRetries: 4}),
//	)
//
// The Config struct plus NewSystem remain fully supported as the
// compatibility route; each option is a transparent setter over Config, so
// the two styles compose (build a Config, or build with options — never
// both halves of one field).
type Option func(*Config)

// WithDRAM sets the device geometry and timing.
func WithDRAM(cfg DRAMConfig) Option {
	return func(c *Config) { c.DRAM = cfg }
}

// WithEnergyModel sets the energy model.
func WithEnergyModel(m EnergyModel) Option {
	return func(c *Config) { c.Energy = m }
}

// WithSplitDecoder enables or disables the Section 5.3 split-row-decoder AAP
// latency optimization.
func WithSplitDecoder(on bool) Option {
	return func(c *Config) { c.SplitDecoder = on }
}

// WithCoherenceNSPerRow sets the cache-coherence charge per involved row
// (Section 5.4.4).
func WithCoherenceNSPerRow(ns float64) Option {
	return func(c *Config) { c.CoherenceNSPerRow = ns }
}

// WithFaultModel installs a seeded probabilistic TRA/DCC failure model
// (internal/fault).  The zero FaultConfig disables injection.
func WithFaultModel(fc FaultConfig) Option {
	return func(c *Config) { c.Fault = fc }
}

// WithFaultProfile installs a chip-to-chip variation profile: a named base
// fault configuration plus temperature scaling, data-pattern bias, an
// activation-width (MAJ-X) failure curve, and per-subarray weak/quarantine
// entries.  Get one from FaultProfileByName ("clean", "vendorA-85C", ...) or
// LoadFaultProfile.  Mutually exclusive with WithFaultModel; subarrays the
// profile quarantines are excluded from allocation placement.
func WithFaultProfile(p *FaultProfile) Option {
	return func(c *Config) { c.FaultProfile = p }
}

// WithManyRowMaj enables many-row simultaneous-activation majority
// (System.Maj) with up to maxInputs operands (odd, 3..15).  A per-subarray
// staging block of 16 rows (32 when maxInputs > 7) is reserved at the top of
// the D group and withheld from allocation.  0 disables Maj.
func WithManyRowMaj(maxInputs int) Option {
	return func(c *Config) { c.MaxMajInputs = maxInputs }
}

// WithReliability sets the controller's execute-verify-retry policy:
// TMR-replicated execution with per-row verification, bounded retry of
// detected-uncorrectable rows, and corrected write-back.
func WithReliability(r Reliability) Option {
	return func(c *Config) { c.Reliability = r }
}

// WithQuarantine enables graceful degradation: a data row accumulating the
// given number of detected faulty verification rounds is quarantined — once
// freed, the allocator never hands it out again.  0 disables quarantine.
func WithQuarantine(afterDetectedFaults int) Option {
	return func(c *Config) { c.QuarantineAfter = afterDetectedFaults }
}

// WithExecWorkers caps the goroutine pool the execution core fans per-bank
// command trains out on (direct ops and batches alike).  0, the default,
// means GOMAXPROCS.  Worker count never affects results or statistics — only
// host-side wall-clock.
func WithExecWorkers(n int) Option {
	return func(c *Config) { c.ExecWorkers = n }
}

// WithTracer installs an observability tracer: one span event per public
// operation plus one command event per DRAM primitive flow to its sinks
// (ambit.NewLastNSink for in-memory inspection, ambit.NewJSONLSink for a
// chrome://tracing file).  A nil or disabled tracer costs one atomic load per
// primitive.
func WithTracer(tr *Tracer) Option {
	return func(c *Config) { c.Tracer = tr }
}

// WithMetrics installs a metrics registry accumulating per-opcode latency and
// energy histograms; its exposition also renders the System's reliability
// counters from the System's ledger.  Pass one registry to several Systems
// to aggregate across them.
func WithMetrics(m *MetricsRegistry) Option {
	return func(c *Config) { c.Metrics = m }
}

// WithTraceSampling keeps one in n op-level span events (the 1st, the n+1th,
// ...) and drops the rest — back-pressure relief when sustained workloads
// would otherwise flood span consumers.  Command events are never sampled,
// so command-level traces stay complete and deterministic.  n <= 1 keeps
// every span.
func WithTraceSampling(n int) Option {
	return func(c *Config) { c.TraceSampling = n }
}

// WithTelemetryAddr starts a live telemetry HTTP server on the given address
// when the System is constructed: /metrics serves the Prometheus rendering
// of the metrics registry, /healthz liveness, /trace a server-sent-events
// stream of live trace events, /banks per-bank busy-fraction timelines, and
// /debug/pprof the Go profiler.  A metrics registry and a tracer stream sink
// are created automatically if none are configured.  Use ":0" to bind an
// ephemeral port (read it back with System.TelemetryAddr) and System.Close
// to shut the server down.
func WithTelemetryAddr(addr string) Option {
	return func(c *Config) { c.TelemetryAddr = addr }
}
