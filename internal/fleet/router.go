package fleet

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/netmeasure/rlir/internal/collector"
	"github.com/netmeasure/rlir/internal/netflow"
	"github.com/netmeasure/rlir/internal/packet"
	"github.com/netmeasure/rlir/internal/swp"
)

// Sink is one export connection as the Router sees it. *service.Client
// satisfies it over both framings (raw and swp-reliable); tests substitute
// in-memory fakes. Send* must not retain its argument past the call: the
// router refills the slice's storage with a later batch.
type Sink interface {
	Hello(name string) error
	SendSamples([]collector.Sample) error
	SendRecords([]netflow.Record) error
	Flush() error
	Close() error
}

// TransportReporter is the optional Sink extension for reliable-transport
// accounting (*service.Client implements it). Router.TransportStats sums
// over sinks that do.
type TransportReporter interface {
	TransportStats() (swp.SenderStats, bool)
}

// DialFunc opens connection conn (0-based within the endpoint) to an
// endpoint address. Injecting the dialer keeps this package free of
// internal/service while letting callers choose the framing: cmd/loadgen
// and cmd/rlirfleet pass a service.DialWith closure (raw or reliable).
type DialFunc func(endpoint string, conn int) (Sink, error)

// Config sizes a Router. Endpoints and Dial are required; every other
// field's zero value selects a default.
type Config struct {
	// Endpoints are the rlird ingest addresses, one per fleet instance.
	// Their order defines the instance numbering and must match the fleet's
	// agreed Partition order everywhere.
	Endpoints []string
	// ConnsPerEndpoint fans each endpoint's traffic across parallel
	// connections (default 1). Flows are partitioned across connections
	// too (SinkIndex), so per-flow frame order is preserved regardless.
	ConnsPerEndpoint int
	// Dial opens one sink; required.
	Dial DialFunc
	// Name is the hello identity prefix: sink i announces "<Name>-<i>"
	// (flat grid index). Empty sends no hello.
	Name string
	// Batch bounds samples (or records) per wire frame (default 256,
	// service.DefaultClientBatch's value).
	Batch int
	// Queue is each sink's bounded queue depth in batches (default 16). A
	// full queue back-pressures Route*, bounding router memory.
	Queue int
	// RedialAttempts is how many times a worker re-dials a failed sink
	// before declaring it dead (default 3). Between attempts it sleeps
	// RedialBackoff (default 100ms), doubling up to RedialMaxBackoff
	// (default 2s). A dead sink drops subsequent batches and surfaces its
	// error from Flush/Close.
	RedialAttempts   int
	RedialBackoff    time.Duration
	RedialMaxBackoff time.Duration
}

func (c Config) withDefaults() Config {
	if c.ConnsPerEndpoint <= 0 {
		c.ConnsPerEndpoint = 1
	}
	if c.Batch <= 0 {
		c.Batch = 256
	}
	if c.Queue <= 0 {
		c.Queue = 16
	}
	if c.RedialAttempts <= 0 {
		c.RedialAttempts = 3
	}
	if c.RedialBackoff <= 0 {
		c.RedialBackoff = 100 * time.Millisecond
	}
	if c.RedialMaxBackoff <= 0 {
		c.RedialMaxBackoff = 2 * time.Second
	}
	return c
}

// EndpointStats is one endpoint's counters, summed over its connections.
type EndpointStats struct {
	Endpoint    string
	SamplesSent uint64
	RecordsSent uint64
	FramesSent  uint64
	// Queued is the current queue occupancy (samples + records buffered
	// but not yet handed to the transport).
	Queued uint64
	// Errors counts failed send/dial attempts; Reconnects successful
	// re-dials after a failure; Dropped items discarded because their sink
	// exhausted its redial budget.
	Errors     uint64
	Reconnects uint64
	Dropped    uint64
}

// endpointState holds one endpoint's live counters.
type endpointState struct {
	endpoint                  string
	samples, records, frames  atomic.Uint64
	queued                    atomic.Uint64
	errors, reconns, droppedN atomic.Uint64
}

// msg is one unit of worker input: a data batch, or a flush barrier when
// barrier is non-nil.
type msg struct {
	samples []collector.Sample
	records []netflow.Record
	barrier chan error
}

// Router partitions an export stream across a fleet of rlird instances:
// flows are consistent-hashed to an endpoints × connections sink grid
// (SinkIndex), each sink is driven by its own worker goroutine behind a
// bounded queue, and a failed sink is re-dialed with exponential backoff.
//
// Route*/Flush/Close are single-producer, like service.Client: one
// goroutine feeds the router, the workers provide the fan-out concurrency.
// Stats may be read from any goroutine at any time; TransportStats only
// after Close.
type Router struct {
	cfg     Config
	eps     []*endpointState
	workers []*sinkWorker
	wg      sync.WaitGroup
	closed  bool
	// The per-sink slice headers one Route* call fills; all nil between calls
	// (single producer, so one set serves every call).
	sampleParts [][]collector.Sample
	recordParts [][]netflow.Record
}

// sinkWorker owns one sink: its queue, its connection, its redial loop.
// Only the worker goroutine touches sink and err after Start.
type sinkWorker struct {
	r        *Router
	ep       *endpointState
	endpoint string
	conn     int
	name     string
	ch       chan msg
	// sampleBufs / recordBufs hold the storage of batches this worker has
	// finished with, for Route* to partition the next ones into: in steady
	// state a routed batch allocates nothing (the collector's shard-buffer
	// pattern, one tier up).
	sampleBufs chan []collector.Sample
	recordBufs chan []netflow.Record
	sink       Sink
	dialed     bool // a first dial happened (later successes count as reconnects)
	err        error
}

// NewRouter dials the full sink grid eagerly (fail fast, like loadgen's
// historical startup) and starts one worker per sink. On any dial error the
// already-opened sinks are closed and the error returned.
func NewRouter(cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Endpoints) == 0 {
		return nil, errors.New("fleet: no endpoints")
	}
	if cfg.Dial == nil {
		return nil, errors.New("fleet: Config.Dial is required")
	}
	r := &Router{cfg: cfg}
	for _, ep := range cfg.Endpoints {
		r.eps = append(r.eps, &endpointState{endpoint: ep})
	}
	for e, ep := range cfg.Endpoints {
		for c := 0; c < cfg.ConnsPerEndpoint; c++ {
			w := &sinkWorker{
				r:        r,
				ep:       r.eps[e],
				endpoint: ep,
				conn:     c,
				ch:       make(chan msg, cfg.Queue),
				// One buffer per queue slot, plus the one being delivered and
				// the one being filled.
				sampleBufs: make(chan []collector.Sample, cfg.Queue+2),
				recordBufs: make(chan []netflow.Record, cfg.Queue+2),
			}
			if cfg.Name != "" {
				w.name = fmt.Sprintf("%s-%d", cfg.Name, e*cfg.ConnsPerEndpoint+c)
			}
			if err := w.ensure(); err != nil {
				for _, prev := range r.workers {
					_ = prev.sink.Close()
				}
				return nil, fmt.Errorf("fleet: dial %s conn %d: %w", ep, c, err)
			}
			r.workers = append(r.workers, w)
		}
	}
	r.sampleParts = make([][]collector.Sample, len(r.workers))
	r.recordParts = make([][]netflow.Record, len(r.workers))
	for _, w := range r.workers {
		r.wg.Add(1)
		go w.run(&r.wg)
	}
	return r, nil
}

// Endpoints returns the instance count.
func (r *Router) Endpoints() int { return len(r.eps) }

// Sinks returns the total connection count (endpoints × conns).
func (r *Router) Sinks() int { return len(r.workers) }

// sinkOf flattens SinkIndex into the worker slice.
func (r *Router) sinkOf(key packet.FlowKey) int {
	e, c := SinkIndex(key, len(r.eps), r.cfg.ConnsPerEndpoint)
	return e*r.cfg.ConnsPerEndpoint + c
}

// RouteSamples partitions one batch across the sink grid and enqueues each
// non-empty part, preserving per-flow order. The batch is copied during
// partitioning — into buffers the sink workers recycle once a part is sent,
// so a steady-state call allocates nothing — and the caller may reuse it.
// Blocks only on a full sink queue.
func (r *Router) RouteSamples(batch []collector.Sample) {
	parts := r.sampleParts
	for i := range batch {
		w := r.sinkOf(batch[i].Key)
		if parts[w] == nil {
			parts[w] = takeBuf(r.workers[w].sampleBufs)
		}
		parts[w] = append(parts[w], batch[i])
	}
	for w, p := range parts {
		if p != nil {
			parts[w] = nil
			r.enqueue(w, msg{samples: p}, uint64(len(p)))
		}
	}
}

// RouteRecords partitions one NetFlow-record batch like RouteSamples, so a
// flow's records land on the same instance (and connection) as its samples.
func (r *Router) RouteRecords(recs []netflow.Record) {
	parts := r.recordParts
	for i := range recs {
		w := r.sinkOf(recs[i].Key)
		if parts[w] == nil {
			parts[w] = takeBuf(r.workers[w].recordBufs)
		}
		parts[w] = append(parts[w], recs[i])
	}
	for w, p := range parts {
		if p != nil {
			parts[w] = nil
			r.enqueue(w, msg{records: p}, uint64(len(p)))
		}
	}
}

// maxPooledPart is the largest partition buffer a sink worker keeps for
// reuse (the collector's bound for its shard buffers): a one-off
// whole-capture batch is not worth holding on to.
const maxPooledPart = 4096

// takeBuf returns an empty partition buffer: one the pool's worker has
// finished with when there is one, a fresh one otherwise.
func takeBuf[T any](pool chan []T) []T {
	select {
	case b := <-pool:
		return b
	default:
		return make([]T, 0, 64)
	}
}

// giveBuf hands a finished part's storage back to the pool it was taken
// from, unless it is oversized or the pool is full.
func giveBuf[T any](pool chan []T, b []T) {
	if b == nil || cap(b) > maxPooledPart {
		return
	}
	select {
	case pool <- b[:0]:
	default:
	}
}

func (r *Router) enqueue(i int, m msg, n uint64) {
	r.workers[i].ep.queued.Add(n)
	r.workers[i].ch <- m
}

// Flush drains every queue and flushes every live sink, returning the
// first sink error (a dead sink's terminal error keeps surfacing here).
func (r *Router) Flush() error {
	barriers := make([]chan error, len(r.workers))
	for i, w := range r.workers {
		barriers[i] = make(chan error, 1)
		w.ch <- msg{barrier: barriers[i]}
	}
	var first error
	for _, b := range barriers {
		if err := <-b; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Close flushes, stops the workers, and closes every sink. Idempotent; the
// first error (flush, terminal worker error, or close) is returned.
func (r *Router) Close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	first := r.Flush()
	for _, w := range r.workers {
		close(w.ch)
	}
	r.wg.Wait()
	for _, w := range r.workers {
		if w.sink == nil {
			continue
		}
		if err := w.sink.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Stats returns per-endpoint counters, in Config.Endpoints order.
func (r *Router) Stats() []EndpointStats {
	out := make([]EndpointStats, len(r.eps))
	for i, ep := range r.eps {
		out[i] = EndpointStats{
			Endpoint:    ep.endpoint,
			SamplesSent: ep.samples.Load(),
			RecordsSent: ep.records.Load(),
			FramesSent:  ep.frames.Load(),
			Queued:      ep.queued.Load(),
			Errors:      ep.errors.Load(),
			Reconnects:  ep.reconns.Load(),
			Dropped:     ep.droppedN.Load(),
		}
	}
	return out
}

// TransportStats sums reliable-transport counters over sinks that report
// them; ok is false when none do (raw framing). Call after Close — the
// workers own their sinks while running.
func (r *Router) TransportStats() (st swp.SenderStats, ok bool) {
	for _, w := range r.workers {
		if w.sink == nil {
			continue
		}
		tr, isTR := w.sink.(TransportReporter)
		if !isTR {
			continue
		}
		if s, sOK := tr.TransportStats(); sOK {
			st.Segments += s.Segments
			st.Retransmits += s.Retransmits
			st.Timeouts += s.Timeouts
			ok = true
		}
	}
	return st, ok
}

// ensure makes the worker's sink connected, dialing (and re-helloing) as
// needed. Successful dials after the first count as reconnects.
func (w *sinkWorker) ensure() error {
	if w.sink != nil {
		return nil
	}
	s, err := w.r.cfg.Dial(w.endpoint, w.conn)
	if err != nil {
		return err
	}
	if w.name != "" {
		if err := s.Hello(w.name); err != nil {
			_ = s.Close()
			return err
		}
	}
	if w.dialed {
		w.ep.reconns.Add(1)
	}
	w.dialed = true
	w.sink = s
	return nil
}

func (w *sinkWorker) run(wg *sync.WaitGroup) {
	defer wg.Done()
	for m := range w.ch {
		if m.barrier != nil {
			if w.err == nil && w.sink != nil {
				if err := w.sink.Flush(); err != nil {
					w.fail(err)
				}
			}
			m.barrier <- w.err
			continue
		}
		n := uint64(len(m.samples) + len(m.records))
		if w.err != nil {
			w.ep.droppedN.Add(n)
		} else if err := w.deliver(m); err != nil {
			w.fail(err)
			w.ep.droppedN.Add(n)
		} else {
			w.ep.samples.Add(uint64(len(m.samples)))
			w.ep.records.Add(uint64(len(m.records)))
		}
		w.ep.queued.Add(^(n - 1))
		giveBuf(w.sampleBufs, m.samples)
		giveBuf(w.recordBufs, m.records)
	}
}

// fail marks the worker dead: its terminal error surfaces from every
// subsequent Flush, and later batches are dropped (counted).
func (w *sinkWorker) fail(err error) {
	w.err = fmt.Errorf("fleet: endpoint %s conn %d: %w", w.endpoint, w.conn, err)
	if w.sink != nil {
		_ = w.sink.Close()
		w.sink = nil
	}
}

// deliver sends one batch, re-dialing with exponential backoff on failure.
// Each attempt re-sends the whole batch on a fresh connection, so frames an
// earlier failed attempt wrote may already be ingested and arrive twice.
func (w *sinkWorker) deliver(m msg) error {
	backoff := w.r.cfg.RedialBackoff
	var lastErr error
	for attempt := 0; attempt <= w.r.cfg.RedialAttempts; attempt++ {
		if attempt > 0 {
			time.Sleep(backoff)
			backoff *= 2
			if backoff > w.r.cfg.RedialMaxBackoff {
				backoff = w.r.cfg.RedialMaxBackoff
			}
		}
		err := w.ensure()
		if err == nil {
			err = w.trySend(m)
			if err == nil {
				return nil
			}
			_ = w.sink.Close()
			w.sink = nil
		}
		lastErr = err
		w.ep.errors.Add(1)
	}
	return lastErr
}

// trySend writes the batch as Batch-bounded frames on the current sink.
func (w *sinkWorker) trySend(m msg) error {
	b := w.r.cfg.Batch
	for off := 0; off < len(m.samples); off += b {
		end := off + b
		if end > len(m.samples) {
			end = len(m.samples)
		}
		if err := w.sink.SendSamples(m.samples[off:end]); err != nil {
			return err
		}
		w.ep.frames.Add(1)
	}
	for off := 0; off < len(m.records); off += b {
		end := off + b
		if end > len(m.records) {
			end = len(m.records)
		}
		if err := w.sink.SendRecords(m.records[off:end]); err != nil {
			return err
		}
		w.ep.frames.Add(1)
	}
	return nil
}
