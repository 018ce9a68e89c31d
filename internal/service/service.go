// Package service is the long-lived measurement service behind cmd/rlird:
// the operational form of the collection tier that everything else in this
// repository only runs in batch. A fleet of RLI receivers and NetFlow
// exporters (real ones, or cmd/loadgen replaying captured scenario traffic)
// connect over TCP or Unix sockets and stream the collector wire frames of
// internal/collector; the service drains every connection through the
// sharded collector plane and answers operator queries over HTTP.
//
// The data path is deliberately thin — it is the same codec and the same
// collector the batch engine uses, so a streamed run is bit-identical to
// its batch counterpart (the equivalence the service tests pin):
//
//	exporter conn ──wire frames──> FrameReader ──batches──> collector shards
//	                     │
//	                     └──hello──> per-router aggregates (rolling tails)
//
// Backpressure is end-to-end: a full shard queue blocks Ingest, which
// blocks the connection's read loop, which fills the kernel socket buffer,
// which stalls the exporter — bounding service memory with no drop policy.
//
// The HTTP API serves /flows (the per-flow aggregate table), /routers
// (per-exporter aggregates), /comparison (estimate-vs-truth scoring via
// measure.CompareFlowAggs, possible because scenario traffic ships ground
// truth in-band), /healthz, and a Prometheus-style /metrics. Shutdown is
// graceful: listeners close first, in-flight connections get a drain
// window, and the collector closes only after every handler has returned,
// so the final flow table is complete and remains queryable.
package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"github.com/netmeasure/rlir/internal/collector"
	"github.com/netmeasure/rlir/internal/queryapi"
	"github.com/netmeasure/rlir/internal/stats"
	"github.com/netmeasure/rlir/internal/swp"
)

// Config sizes and addresses the service. The zero value is valid for an
// in-process server with no listeners (attach connections via ServeConn and
// the HTTP handler via Handler — what the tests and examples do).
type Config struct {
	// Listen is the TCP ingest address ("" disables TCP ingest).
	Listen string `json:"listen,omitempty"`
	// Unix is the Unix-socket ingest path ("" disables; the path is removed
	// on shutdown).
	Unix string `json:"unix,omitempty"`
	// HTTP is the query API address ("" disables the built-in HTTP server;
	// Handler still serves the API in-process).
	HTTP string `json:"http,omitempty"`
	// Shards / Depth size the collector plane (collector.Config semantics).
	Shards int `json:"shards,omitempty"`
	Depth  int `json:"depth,omitempty"`
	// MaxFrameRecords bounds one frame's record count (0 = the codec's
	// DefaultMaxFrameRecords).
	MaxFrameRecords int `json:"max_frame_records,omitempty"`
	// MaxFlows caps the individually tracked flow population; past it the
	// least-recently-seen flows fold into the class/router rollup tiers
	// served by /rollup (0 = unbounded). See collector.Config.MaxFlows.
	MaxFlows int `json:"max_flows,omitempty"`
	// FlowWindow expires flows idle longer than this into the rollup tiers
	// (0 = never). See collector.Config.Window.
	FlowWindow time.Duration `json:"flow_window_ns,omitempty"`
	// MaxClasses caps the class rollup tier (0 = unbounded). See
	// collector.Config.MaxClasses.
	MaxClasses int `json:"max_classes,omitempty"`
	// Window is the rolling ingest-rate window (default 10s).
	Window time.Duration `json:"window_ns,omitempty"`
	// DrainTimeout bounds graceful shutdown: connections still streaming
	// after this grace are force-closed (default 5s; Shutdown's context may
	// shorten it further).
	DrainTimeout time.Duration `json:"drain_timeout_ns,omitempty"`
}

func (c Config) withDefaults() Config {
	if c.Window <= 0 {
		c.Window = 10 * time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 5 * time.Second
	}
	return c
}

// LoadConfig reads a JSON config file (the -config front-end of cmd/rlird).
// The file must hold exactly one JSON object: unknown fields, trailing data
// and negative values are rejected so a mistyped knob fails loudly.
func LoadConfig(path string) (Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Config{}, err
	}
	c, err := decodeConfig(data)
	if err != nil {
		return Config{}, fmt.Errorf("service: bad config %s: %w", path, err)
	}
	return c, nil
}

// decodeConfig parses and validates one JSON config object.
func decodeConfig(data []byte) (Config, error) {
	var c Config
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		return Config{}, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return Config{}, errors.New("data after the config object")
	}
	return c, c.Validate()
}

// Validate rejects a negative size or duration. Zero means "the default"
// for every field, so no negative value has a meaning; left in, a negative
// MaxFlows would silently mean "unbounded".
func (c Config) Validate() error {
	for _, f := range []struct {
		name string
		v    int64
	}{
		{"shards", int64(c.Shards)},
		{"depth", int64(c.Depth)},
		{"max_frame_records", int64(c.MaxFrameRecords)},
		{"max_flows", int64(c.MaxFlows)},
		{"flow_window_ns", int64(c.FlowWindow)},
		{"max_classes", int64(c.MaxClasses)},
		{"window_ns", int64(c.Window)},
		{"drain_timeout_ns", int64(c.DrainTimeout)},
	} {
		if f.v < 0 {
			return fmt.Errorf("service: %s %d is negative (0 selects the default)", f.name, f.v)
		}
	}
	return nil
}

// routerAgg is one exporter's rolling view, keyed by the name its hello
// frame declared (falling back to the connection's remote address).
type routerAgg struct {
	mu      sync.Mutex
	frames  uint64
	samples uint64
	records uint64
	bytes   uint64
	est     stats.Welford
	truth   stats.Welford
	sketch  stats.Sketch
	// Reliable-transport accounting, populated only for exporters that
	// connect with the swp framing: segments received, duplicates dropped
	// (retransmissions whose original arrived — the receiver-side signature
	// of upstream loss), segments reorder-buffered, and gap episodes.
	// Segments dropped beyond the window are counted service-wide only.
	reliable    bool
	tSegments   uint64
	tDuplicates uint64
	tOutOfOrder uint64
	tGaps       uint64
}

// decodeErrKey labels one decode-error counter: which exporter, which kind
// of corruption.
type decodeErrKey struct {
	router string
	kind   string
}

// Server is the running service. Create with New, stop with Shutdown.
type Server struct {
	cfg  Config
	coll *collector.Collector

	mu      sync.Mutex
	conns   map[net.Conn]struct{}
	routers map[string]*routerAgg

	tcpLn   net.Listener
	unixLn  net.Listener
	httpLn  net.Listener
	httpSrv *http.Server

	wg     sync.WaitGroup // connection handlers + accept loops
	window *rateWindow
	start  time.Time

	frames     atomic.Uint64
	connsTotal atomic.Uint64
	decodeErrs atomic.Uint64
	draining   atomic.Bool
	closed     atomic.Bool

	// Reliable-transport totals across all swp connections.
	relConnsTotal atomic.Uint64
	tSegments     atomic.Uint64
	tDuplicates   atomic.Uint64
	tOutOfOrder   atomic.Uint64
	tGaps         atomic.Uint64
	tBeyond       atomic.Uint64

	errsMu       sync.Mutex
	decodeErrsBy map[decodeErrKey]uint64

	// bodies are /snapshot and /flows response bodies kept for the next
	// query to encode into.
	bodies *queryapi.FreeList[body]
}

// body is the storage of the query responses rlird renders itself, kept for
// the next: a binary /snapshot's bytes and a /flows rendering's parts.
type body struct {
	snapshot []byte
	flows    queryapi.FlowsBody
}

func (b *body) size() int { return cap(b.snapshot) + b.flows.Size() }

// Idle response bodies rlird keeps for reuse: at most maxIdleBodies, none
// over maxBodyBytes (a binary /snapshot of some 150 000 flows, a /flows body
// of some 30 000 rows), so the query API retains at most 32 MB between
// queries — and nothing once a garbage collection finds them idle.
const (
	maxIdleBodies = 2
	maxBodyBytes  = 16 << 20
)

// New starts a server: collector shards, the configured ingest listeners,
// the rolling-rate ticker, and (when cfg.HTTP is set) the query API server.
// A config Validate rejects starts nothing.
func New(cfg Config) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	s := &Server{
		cfg: cfg,
		coll: collector.New(collector.Config{
			Shards:     cfg.Shards,
			Depth:      cfg.Depth,
			MaxFlows:   cfg.MaxFlows,
			Window:     cfg.FlowWindow,
			MaxClasses: cfg.MaxClasses,
		}),
		conns:        make(map[net.Conn]struct{}),
		routers:      make(map[string]*routerAgg),
		decodeErrsBy: make(map[decodeErrKey]uint64),
		bodies:       queryapi.NewFreeList(maxIdleBodies, maxBodyBytes, (*body).size),
		start:        time.Now(),
	}
	s.window = newRateWindow(cfg.Window, s.ingestTotals)

	// A bind failure must tear down everything already started — the
	// collector's shard goroutines and the rate ticker — or a caller
	// retrying "address already in use" leaks goroutines per attempt.
	fail := func(err error) (*Server, error) {
		s.closeListeners()
		s.wg.Wait() // accept loops exit when their listener closes
		s.window.stop()
		s.coll.Close()
		return nil, err
	}
	var err error
	if cfg.Listen != "" {
		if s.tcpLn, err = net.Listen("tcp", cfg.Listen); err != nil {
			return fail(err)
		}
		s.acceptLoop(s.tcpLn)
	}
	if cfg.Unix != "" {
		_ = os.Remove(cfg.Unix) // a stale socket from a previous run
		if s.unixLn, err = net.Listen("unix", cfg.Unix); err != nil {
			return fail(err)
		}
		s.acceptLoop(s.unixLn)
	}
	if cfg.HTTP != "" {
		if s.httpLn, err = net.Listen("tcp", cfg.HTTP); err != nil {
			return fail(err)
		}
		s.httpSrv = queryapi.NewServer(s.Handler())
		go func() { _ = s.httpSrv.Serve(s.httpLn) }()
	}
	return s, nil
}

// Addr returns the TCP ingest listener's resolved address (nil when TCP
// ingest is disabled) — how a test or parent process discovers a ":0" port.
func (s *Server) Addr() net.Addr {
	if s.tcpLn == nil {
		return nil
	}
	return s.tcpLn.Addr()
}

// HTTPAddr returns the query API listener's resolved address (nil when the
// built-in HTTP server is disabled).
func (s *Server) HTTPAddr() net.Addr {
	if s.httpLn == nil {
		return nil
	}
	return s.httpLn.Addr()
}

// Collector exposes the underlying plane (tests and in-process embedding).
func (s *Server) Collector() *collector.Collector { return s.coll }

func (s *Server) ingestTotals() (uint64, uint64) {
	return s.coll.SamplesIngested(), s.coll.RecordsIngested()
}

func (s *Server) acceptLoop(ln net.Listener) {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed (shutdown)
			}
			s.trackConn(conn)
		}
	}()
}

// trackConn registers conn and starts its handler.
func (s *Server) trackConn(conn net.Conn) {
	s.mu.Lock()
	if s.draining.Load() {
		s.mu.Unlock()
		conn.Close()
		return
	}
	s.conns[conn] = struct{}{}
	s.mu.Unlock()
	s.connsTotal.Add(1)
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer func() {
			conn.Close()
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
		}()
		s.serveConn(conn)
	}()
}

// ServeConn hands one already-established connection to the service
// (in-process ingest without a listener) and returns immediately; the
// stream drains on the connection's own handler goroutine, exactly like a
// listener-accepted connection. Synchronize on the collector's ingest
// counters (see SamplesIngested) before reading snapshots.
func (s *Server) ServeConn(conn net.Conn) {
	if s.closed.Load() {
		conn.Close()
		return
	}
	s.trackConn(conn)
}

// serveConn is the per-connection read loop: frames in, collector batches
// out. The collector's bounded queues provide the backpressure — a slow
// plane blocks here, which stalls the peer's writes.
//
// The first bytes pick the framing: the swp segment magic selects the
// reliable transport (an swp.Receiver reassembles the frame stream and acks
// back over the same socket), anything else is read as raw collector
// frames. Either way the same FrameReader decodes what arrives.
//
// The per-router aggregate is resolved lazily on the first data frame: a
// well-behaved exporter's hello arrives first, so its connection never
// creates an entry under the fallback remote-address identity — otherwise
// every reconnect would leave a permanent dead row in s.routers.
func (s *Server) serveConn(conn net.Conn) {
	name := remoteName(conn)
	var router *routerAgg
	agg := func() *routerAgg {
		if router == nil {
			router = s.routerFor(name)
		}
		return router
	}

	br := bufio.NewReader(conn)
	magic, err := br.Peek(2)
	if err != nil {
		return // connection ended before any framing was spoken
	}
	src := io.Reader(br)
	var rel *swp.Receiver
	var lastTS swp.ReceiverStats
	if swp.Detect(magic) {
		// Reads drain the bufio buffer holding the peeked bytes; acks
		// write straight to the socket.
		rel = swp.NewReceiver(swp.NewStreamConnPair(br, conn), swp.Config{})
		defer rel.Close()
		src = rel
		s.relConnsTotal.Add(1)
	}
	// flushTransport folds the receiver's counter deltas into the global
	// and per-exporter transport accounting; called per frame so /metrics
	// tracks a live connection, and once more when the stream ends.
	flushTransport := func() {
		if rel == nil {
			return
		}
		cur := rel.Stats()
		d := swp.ReceiverStats{
			Segments:     cur.Segments - lastTS.Segments,
			Duplicates:   cur.Duplicates - lastTS.Duplicates,
			BeyondWindow: cur.BeyondWindow - lastTS.BeyondWindow,
			OutOfOrder:   cur.OutOfOrder - lastTS.OutOfOrder,
			Gaps:         cur.Gaps - lastTS.Gaps,
		}
		lastTS = cur
		s.tSegments.Add(d.Segments)
		s.tDuplicates.Add(d.Duplicates)
		s.tOutOfOrder.Add(d.OutOfOrder)
		s.tGaps.Add(d.Gaps)
		s.tBeyond.Add(d.BeyondWindow)
		r := agg()
		r.mu.Lock()
		r.reliable = true
		r.tSegments += d.Segments
		r.tDuplicates += d.Duplicates
		r.tOutOfOrder += d.OutOfOrder
		r.tGaps += d.Gaps
		r.mu.Unlock()
	}
	defer flushTransport()

	fr := collector.NewFrameReader(src, s.cfg.MaxFrameRecords)
	for {
		raw, err := fr.NextRaw()
		if err != nil {
			if err != io.EOF && !errors.Is(err, net.ErrClosed) {
				s.decodeErrs.Add(1)
				s.recordDecodeErr(name, err)
			}
			return
		}
		s.frames.Add(1)
		switch raw.Type() {
		case collector.MsgSamples:
			// The hot frame is decoded once, record by record, straight
			// into the shards' recycled buffers; NextRaw validated it, so
			// IngestFrame cannot fail. The router lock is taken only after
			// the ingest, which may block on back-pressure.
			_, _ = s.coll.IngestFrame(raw)
			n := raw.Count()
			r := agg()
			r.mu.Lock()
			r.frames++
			r.samples += uint64(n)
			for i := 0; i < n; i++ {
				est, truth := raw.Delays(i)
				r.est.Add(float64(est))
				r.truth.Add(float64(truth))
				r.sketch.Record(est)
			}
			r.mu.Unlock()
		case collector.MsgHello:
			f, _, _ := collector.DecodeFrame(raw)
			name, router = f.Hello, nil
			r := agg()
			r.mu.Lock()
			r.frames++
			r.mu.Unlock()
		case collector.MsgRecords:
			f, _, _ := collector.DecodeFrame(raw)
			s.coll.IngestRecords(f.Records)
			r := agg()
			r.mu.Lock()
			r.frames++
			r.records += uint64(len(f.Records))
			for _, rec := range f.Records {
				r.bytes += rec.Bytes
			}
			r.mu.Unlock()
		}
		flushTransport()
	}
}

// errKind buckets a read-loop error for the per-exporter decode-error
// counters. Transport-layer (swp) kinds are matched before codec kinds:
// FrameReader wraps stream errors in ErrTruncatedFrame, and a reliable
// connection dying mid-segment should count against the transport, not the
// codec.
func errKind(err error) string {
	switch {
	case errors.Is(err, swp.ErrMissingSegments):
		return "missing_segments"
	case errors.Is(err, swp.ErrRetryBudgetExhausted):
		return "retry_budget"
	case errors.Is(err, swp.ErrBadSegmentMagic),
		errors.Is(err, swp.ErrBadSegmentVersion),
		errors.Is(err, swp.ErrBadSegmentType),
		errors.Is(err, swp.ErrOversizedSegment):
		return "bad_segment"
	case errors.Is(err, swp.ErrTruncatedSegment):
		return "truncated_segment"
	case errors.Is(err, collector.ErrBadFrameMagic):
		return "bad_magic"
	case errors.Is(err, collector.ErrBadVersion):
		return "bad_version"
	case errors.Is(err, collector.ErrBadMessageType):
		return "bad_message_type"
	case errors.Is(err, collector.ErrOversizedFrame):
		return "oversized"
	case errors.Is(err, collector.ErrTruncatedFrame):
		return "truncated"
	case errors.Is(err, collector.ErrShortFrame):
		return "short"
	default:
		return "other"
	}
}

// recordDecodeErr counts one decode error against the exporter it came
// from, keyed by error kind — so /metrics can say which peer is corrupting
// its stream and how, before the connection is dropped.
func (s *Server) recordDecodeErr(router string, err error) {
	s.errsMu.Lock()
	s.decodeErrsBy[decodeErrKey{router: router, kind: errKind(err)}]++
	s.errsMu.Unlock()
}

// decodeErrKinds returns a copy of the labeled decode-error counters.
func (s *Server) decodeErrKinds() map[decodeErrKey]uint64 {
	s.errsMu.Lock()
	defer s.errsMu.Unlock()
	out := make(map[decodeErrKey]uint64, len(s.decodeErrsBy))
	for k, v := range s.decodeErrsBy {
		out[k] = v
	}
	return out
}

// remoteName is the pre-hello router identity: the peer's address, or a
// stable placeholder for address-less sockets (unnamed Unix peers, pipes).
func remoteName(conn net.Conn) string {
	if ra := conn.RemoteAddr(); ra != nil {
		if n := ra.String(); n != "" && n != "@" {
			return n
		}
	}
	return "unnamed"
}

func (s *Server) routerFor(name string) *routerAgg {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.routers[name]
	if !ok {
		r = &routerAgg{}
		s.routers[name] = r
	}
	return r
}

// Snapshot returns the current per-flow aggregate table (sorted by key), a
// consistent cut of everything ingested before the call.
func (s *Server) Snapshot() []collector.FlowAgg { return s.coll.Snapshot() }

// Shutdown stops the service gracefully: ingest listeners close first, then
// in-flight connections get min(ctx, DrainTimeout) to finish streaming
// before being force-closed; the collector closes only after every handler
// has returned, and its final flow table stays queryable (Snapshot, the
// HTTP handler). Shutdown is idempotent.
func (s *Server) Shutdown(ctx context.Context) error {
	if !s.draining.CompareAndSwap(false, true) {
		return nil
	}
	s.closeListeners()

	drainCtx, cancel := context.WithTimeout(ctx, s.cfg.DrainTimeout)
	defer cancel()
	done := make(chan struct{})
	go func() {
		s.connWait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-drainCtx.Done():
		err = fmt.Errorf("service: drain timeout, force-closing %d connections", s.activeConns())
		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		<-done
	}

	s.wg.Wait() // accept loops + remaining handlers
	s.window.stop()
	s.coll.Close()
	s.closed.Store(true)
	if s.httpSrv != nil {
		_ = s.httpSrv.Shutdown(ctx)
	}
	if s.cfg.Unix != "" {
		_ = os.Remove(s.cfg.Unix)
	}
	return err
}

// connWait blocks until every tracked connection's handler removed itself.
func (s *Server) connWait() {
	for {
		if s.activeConns() == 0 {
			return
		}
		time.Sleep(time.Millisecond)
	}
}

func (s *Server) activeConns() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}

func (s *Server) closeListeners() {
	for _, ln := range []net.Listener{s.tcpLn, s.unixLn} {
		if ln != nil {
			ln.Close()
		}
	}
}

// rateWindow samples cumulative ingest counters on a ticker and reports the
// rolling rate over its window — the "is the plane keeping up right now"
// number /healthz and /metrics expose, which cumulative totals cannot give
// a long-lived process.
type rateWindow struct {
	mu     sync.Mutex
	slots  []rateSlot
	read   func() (samples, records uint64)
	window time.Duration
	stopCh chan struct{}
	wg     sync.WaitGroup
}

type rateSlot struct {
	at               time.Time
	samples, records uint64
}

const rateSlots = 20

func newRateWindow(window time.Duration, read func() (uint64, uint64)) *rateWindow {
	w := &rateWindow{read: read, window: window, stopCh: make(chan struct{})}
	w.record(time.Now())
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		t := time.NewTicker(window / rateSlots)
		defer t.Stop()
		for {
			select {
			case now := <-t.C:
				w.record(now)
			case <-w.stopCh:
				return
			}
		}
	}()
	return w
}

func (w *rateWindow) record(now time.Time) {
	samples, records := w.read()
	w.mu.Lock()
	defer w.mu.Unlock()
	w.slots = append(w.slots, rateSlot{at: now, samples: samples, records: records})
	// Keep one slot older than the window so the rate always spans >= window
	// once enough history exists.
	for len(w.slots) > 2 && now.Sub(w.slots[1].at) >= w.window {
		w.slots = w.slots[1:]
	}
}

// rates returns rolling (samples/s, records/s) over the window.
func (w *rateWindow) rates() (float64, float64) {
	// A fresh reading makes the rate current even between ticks.
	w.record(time.Now())
	w.mu.Lock()
	defer w.mu.Unlock()
	first, last := w.slots[0], w.slots[len(w.slots)-1]
	dt := last.at.Sub(first.at).Seconds()
	if dt <= 0 {
		return 0, 0
	}
	return float64(last.samples-first.samples) / dt, float64(last.records-first.records) / dt
}

func (w *rateWindow) stop() {
	close(w.stopCh)
	w.wg.Wait()
}
