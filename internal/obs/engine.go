package obs

// EngineStats is a point-in-time snapshot of one concurrent GEMM engine's
// serving counters (internal/engine), exported as the cake_engine expvar and
// the cake_engine_* Prometheus families. InFlight and Queued are gauges;
// the rest are cumulative totals.
type EngineStats struct {
	InFlight    int64 // requests currently holding cores
	Queued      int64 // requests waiting for admission
	QueuedTotal int64 // requests that ever waited
	Rejected    int64 // requests refused at the admission limit
	TierTiny    int64 // requests dispatched on the tiny tier (one block on one core)
	TierSmall   int64 // requests dispatched on the small tier (one CB block)
	TierLarge   int64 // requests dispatched on the large tier (the full pipelined path)
	LeaseNew    int64 // executor leases served by constructing a new executor
	LeaseReused int64 // executor leases served from the per-tier pool
}
