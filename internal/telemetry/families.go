package telemetry

// Exposition assembly for the plane-owned aggregates. The serve layer
// appends its own service families (admissions, sheds, breaker state,
// pool occupancy) and calls WriteExposition; everything kernel- or
// plane-shaped is rendered here so the metric names stay in one place.

// Families renders the kernel aggregate.
func (a *KernelAggregate) Families() []Family {
	apis := make(map[string]uint64)
	for _, c := range a.APICounts() {
		apis[c.Name] = c.Count
	}
	highWater := 0
	for _, d := range a.QueueHighWater() {
		highWater = max(highWater, d.HighWater)
	}
	fams := []Family{
		Counter("jsk_kernel_requests", "Evaluations whose kernel metrics were folded into this aggregate.", a.Requests),
		Counter("jsk_kernel_installs", "Event-handler installs observed by the kernel.", a.Installs),
		Counter("jsk_kernel_enqueued", "Events enqueued by the kernel.", a.Enqueued),
		Counter("jsk_kernel_confirmed", "Events confirmed by policy.", a.Confirmed),
		Counter("jsk_kernel_dispatched", "Events dispatched to handlers.", a.Dispatched),
		Counter("jsk_kernel_shed", "Events shed by overload or policy.", a.Shed),
		Counter("jsk_kernel_cancelled", "Events cancelled before dispatch.", a.Cancelled),
		Counter("jsk_kernel_expired", "Events expired before dispatch.", a.Expired),
		Counter("jsk_kernel_panics", "Handler panics absorbed by the kernel.", a.Panics),
		Counter("jsk_kernel_quarantines", "Scopes quarantined after repeated faults.", a.Quarantines),
		Counter("jsk_kernel_native", "Native-bridge transitions observed.", a.Native),
		Counter("jsk_kernel_policy_decisions", "Policy decisions taken.", a.PolicyDecisions),
		Counter("jsk_kernel_interpose_crossings", "Kernel-boundary interposition crossings.", a.InterposeCrossings),
		Gauge("jsk_kernel_interpose_virtual_seconds",
			"Virtual time charged to interposition, in seconds.",
			SecondsOf(a.InterposeVirtual)),
		LabeledCounter("jsk_kernel_api_enqueues", "Events enqueued per web API kind.", "api", apis),
		Gauge("jsk_kernel_queue_high_water", "Highest per-scope queue depth observed across requests.", float64(highWater)),
		HistogramFamily("jsk_kernel_dispatch_latency_seconds",
			"Virtual time between event enqueue and dispatch, in virtual seconds.",
			&a.DispatchLatency),
	}
	return fams
}

// Families renders the plane's own health: flusher batching counters,
// hub publish/eviction counters, and ledger totals.
func (p *Plane) Families() []Family {
	batches, items, syncApplied, syncFallbacks := p.FlushStats()
	published, evicted := p.Hub.Counts()
	fams := []Family{
		Counter("jsk_telemetry_flush_batches", "Flusher batches applied.", batches),
		Counter("jsk_telemetry_flush_items", "Telemetry items applied (batched or inline).", items),
		Counter("jsk_telemetry_inline_applies", "Items applied inline because the plane was closed.", syncApplied),
		Counter("jsk_telemetry_inline_fallbacks", "Items applied inline because the flusher queue was full.", syncFallbacks),
		LabeledCounter("jsk_events_published", "Events published to the hub per type.", "type", published),
		Counter("jsk_events_evicted", "Events evicted from the hub replay ring.", evicted),
		Counter("jsk_ledger_observed_requests", "Requests folded into the forensics ledger.", p.Ledger.observedCount()),
		Counter("jsk_ledger_campaigns", "Campaign findings raised by the forensics ledger.", p.Ledger.Campaigns()),
	}
	return fams
}

func (l *Ledger) observedCount() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.observed
}
