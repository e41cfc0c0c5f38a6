package telemetry

import (
	"sync"
	"sync/atomic"

	"jskernel/internal/trace"
)

const (
	// queueDepth bounds the flusher queue. A full queue never blocks and
	// never drops: the submitter applies its item inline (counted as a
	// sync fallback) so eval workers stay wait-free and no telemetry is
	// lost.
	queueDepth = 256
	// batchMax bounds how many queued items one flush folds under a
	// single aggregate-lock acquisition.
	batchMax = 64
)

// EvalRecord is the worker-side telemetry of one evaluation: the
// kernel metrics registry to aggregate, the forensic payload to
// stream, and the signature fragments to feed the ledger. It is pure
// data — fully assembled on the worker, applied and published by the
// flusher later — so batching never delays the response itself.
type EvalRecord struct {
	RequestID string
	Tenant    string
	// Scope is the ledger scope: the attack row the request named.
	Scope string
	// Metrics is the request's kernel metrics registry (nil when the
	// evaluation failed before tracing).
	Metrics *trace.Metrics
	// Forensics, when non-nil, is published verbatim as an EventForensics
	// payload.
	Forensics any
	// Fragments feed the ledger.
	Fragments []ClassFragment
}

// item travels through the flusher queue.
type item struct {
	eval    *EvalRecord
	span    *Span
	barrier chan struct{}
}

// KernelAggregate is the cross-request fold of per-session kernel
// metrics registries, merged with trace.Metrics.Merge: the totals,
// the dispatch-latency histogram, the per-API enqueue counters and the
// per-scope queue-depth high water that /metricsz and /statsz render.
type KernelAggregate struct {
	// Requests counts the registries folded in.
	Requests uint64
	trace.Metrics
}

// fold adds one request's registry.
func (a *KernelAggregate) fold(m *trace.Metrics) {
	if m == nil {
		return
	}
	a.Requests++
	a.Merge(m)
}

// clone deep-copies the aggregate for snapshots.
func (a *KernelAggregate) clone() KernelAggregate {
	out := KernelAggregate{Requests: a.Requests}
	out.Merge(&a.Metrics)
	return out
}

// Plane is the live observability plane jsk-serve mounts when
// telemetry is on: one batching flusher, one kernel aggregate, one
// span aggregate, one event hub, one ledger.
//
// Submission is wait-free for eval workers: items go through a bounded
// queue drained in batches by a single flusher goroutine, and when the
// queue is full (or the plane is closed) the submitter applies the
// item inline instead — telemetry is never dropped and never blocks an
// evaluation, which is the flusher half of the chaos SLO. Scrapes read
// the aggregates under their own mutex and never touch the queue, so a
// scrape cannot block eval either.
type Plane struct {
	Hub    *Hub
	Ledger *Ledger

	mu     sync.Mutex // guards ch send vs. close
	ch     chan item
	closed bool
	done   chan struct{}

	aggMu  sync.Mutex
	kernel KernelAggregate
	spans  SpanStats

	flushBatches  atomic.Uint64
	flushItems    atomic.Uint64
	syncApplied   atomic.Uint64 // inline applications on a closed plane
	syncFallbacks atomic.Uint64 // inline applications forced by a full queue
}

// NewPlane builds and starts the plane; eventRing is the hub's replay
// ring capacity (0 = 1024). Callers must Close it.
func NewPlane(eventRing int) *Plane {
	p := &Plane{
		Hub:    NewHub(eventRing),
		Ledger: NewLedger(),
		ch:     make(chan item, queueDepth),
		done:   make(chan struct{}),
	}
	p.start()
	return p
}

// start launches the flusher goroutine. It is the telemetry plane's
// only goroutine, it owns no simulator or kernel state — items are
// pure data handed over the channel — and Close joins it before the
// hub shuts, so nothing outlives the plane. Audited in jsk-lint's
// goroutinescope sanction table.
func (p *Plane) start() {
	go func() {
		defer close(p.done)
		for it := range p.ch {
			batch := make([]item, 1, batchMax)
			batch[0] = it
		drain:
			for len(batch) < batchMax {
				select {
				case more, ok := <-p.ch:
					if !ok {
						break drain
					}
					batch = append(batch, more)
				default:
					break drain
				}
			}
			p.applyBatch(batch)
		}
	}()
}

// SubmitEval hands one evaluation record to the plane.
func (p *Plane) SubmitEval(rec *EvalRecord) { p.submit(item{eval: rec}) }

// SubmitSpan hands one completed request span to the plane.
func (p *Plane) SubmitSpan(sp *Span) { p.submit(item{span: sp}) }

// Barrier blocks until every item submitted before it has been
// applied. Tests and scrapers that need settled aggregates call this;
// the serving path never does.
func (p *Plane) Barrier() {
	ch := make(chan struct{})
	p.submit(item{barrier: ch})
	<-ch
}

// submit enqueues an item, falling back to inline application when the
// queue is full or the plane is closed. The inline path applies the
// same code the flusher runs, so ordering is the only thing batching
// changes — never content.
func (p *Plane) submit(it item) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		p.syncApplied.Add(1)
		p.applyBatch([]item{it})
		return
	}
	select {
	case p.ch <- it:
		p.mu.Unlock()
	default:
		p.mu.Unlock()
		p.syncFallbacks.Add(1)
		p.applyBatch([]item{it})
	}
}

// applyBatch folds a batch under one aggregate-lock acquisition, then
// publishes the batch's events in submission order.
func (p *Plane) applyBatch(batch []item) {
	p.flushBatches.Add(1)
	p.flushItems.Add(uint64(len(batch)))
	p.aggMu.Lock()
	for _, it := range batch {
		if it.eval != nil {
			p.kernel.fold(it.eval.Metrics)
		}
		if it.span != nil {
			p.spans.Fold(it.span)
		}
	}
	p.aggMu.Unlock()
	for _, it := range batch {
		switch {
		case it.eval != nil:
			rec := it.eval
			if rec.Forensics != nil {
				p.Hub.Publish(EventForensics, rec.Forensics)
			}
			for _, c := range p.Ledger.Observe(rec.RequestID, rec.Tenant, rec.Scope, rec.Fragments) {
				p.Hub.Publish(EventCampaign, c)
			}
		case it.span != nil:
			p.Hub.Publish(EventSpan, it.span)
		case it.barrier != nil:
			close(it.barrier)
		}
	}
}

// KernelSnapshot returns a settled copy of the kernel aggregate.
func (p *Plane) KernelSnapshot() KernelAggregate {
	p.aggMu.Lock()
	defer p.aggMu.Unlock()
	return p.kernel.clone()
}

// SpanSnapshot returns a copy of the span aggregate.
func (p *Plane) SpanSnapshot() SpanStats {
	p.aggMu.Lock()
	defer p.aggMu.Unlock()
	return p.spans
}

// FlushStats reports the flusher's batching counters: batches, items,
// inline applications on a closed plane, and full-queue fallbacks.
func (p *Plane) FlushStats() (batches, items, syncApplied, syncFallbacks uint64) {
	return p.flushBatches.Load(), p.flushItems.Load(), p.syncApplied.Load(), p.syncFallbacks.Load()
}

// Close drains the queue, stops the flusher, and closes the hub so
// subscribers end their streams. Submissions after Close apply inline;
// their events are counted as after-close publishes. Idempotent.
func (p *Plane) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	close(p.ch)
	p.mu.Unlock()
	<-p.done
	p.Hub.Close()
}
