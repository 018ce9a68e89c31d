package collector

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"
	"weak"

	"github.com/netmeasure/rlir/internal/netflow"
	"github.com/netmeasure/rlir/internal/packet"
	"github.com/netmeasure/rlir/internal/simtime"
	"github.com/netmeasure/rlir/internal/stats"
)

// Sample is one per-packet latency estimate exported by an RLI receiver.
type Sample struct {
	Key packet.FlowKey
	// Est is the receiver's interpolated one-way delay estimate.
	Est time.Duration
	// True is the simulator's ground-truth delay for the same packet (zero
	// in a real deployment, populated here so downstream accuracy analysis
	// can ride the same plane).
	True time.Duration
}

// FlowAgg is one flow's mergeable aggregate state: latency statistics from
// receiver samples plus byte/packet accounting from NetFlow records. Every
// statistics field satisfies the stats.Aggregate contract, so same-key
// aggregates from any partitioning of the sample stream merge into the
// aggregate of the whole stream.
type FlowAgg struct {
	Key packet.FlowKey
	// Est / True accumulate per-packet estimated and ground-truth delays.
	Est, True stats.Welford
	// Sketch is the bounded-memory quantile sketch of estimated delays: the
	// field quantile queries read, and the row's only distribution state.
	// Its merges are bit-exact under any order.
	Sketch stats.Sketch
	// Packets / Bytes / First / Last mirror NetFlow record fields, summed
	// over ingested records (zero when no record mentioned the flow).
	Packets, Bytes uint64
	First, Last    simtime.Time
}

func (a *FlowAgg) addSample(s Sample) {
	a.Est.Add(float64(s.Est))
	a.True.Add(float64(s.True))
	a.Sketch.Record(s.Est)
}

func (a *FlowAgg) addRecord(r netflow.Record) {
	if a.Packets == 0 || r.First < a.First {
		a.First = r.First
	}
	if a.Packets == 0 || r.Last > a.Last {
		a.Last = r.Last
	}
	a.Packets += r.Packets
	a.Bytes += r.Bytes
}

// merge folds o into a (same-key aggregates from different planes).
func (a *FlowAgg) merge(o *FlowAgg) {
	a.Est.Merge(&o.Est)
	a.True.Merge(&o.True)
	a.Sketch.Merge(&o.Sketch)
	if o.Packets > 0 {
		if a.Packets == 0 || o.First < a.First {
			a.First = o.First
		}
		if a.Packets == 0 || o.Last > a.Last {
			a.Last = o.Last
		}
		a.Packets += o.Packets
		a.Bytes += o.Bytes
	}
}

// Config sizes the collector.
type Config struct {
	// Shards is the number of single-owner aggregation goroutines (default
	// GOMAXPROCS, capped at 8). The producer hashes each sample once, to pick
	// its shard, and the shard probes its flow table with that same hash;
	// shards beyond the cores buy queue headroom, not throughput.
	Shards int
	// Depth is each shard's bounded channel depth in batches (default 16).
	// A full shard back-pressures Ingest, bounding collector memory.
	Depth int
	// MaxFlows caps the number of individually tracked flows across all
	// shards (0 = unbounded, the pre-eviction behaviour). When a shard's
	// share of the cap is full, inserting a new flow evicts its
	// least-recently-seen flow into the rollup hierarchy: the evicted
	// aggregate folds into its flow class (packet.FlowKey.Class), and the
	// class tier folds into the router-level root. Nothing is dropped —
	// only per-flow identity is given up.
	MaxFlows int
	// Window is the idle expiry horizon: a flow not touched by any sample
	// or record for longer than Window is expired into the rollup
	// hierarchy, whether or not the table is full (0 = never expire).
	// Expiry runs opportunistically while batches are processed.
	Window time.Duration
	// MaxClasses caps the class-tier rollup size across all shards. Once a
	// shard's class share is full, evicted flows whose class is not already
	// tracked fold directly into the root aggregate (0 = unbounded).
	MaxClasses int
	// Clock supplies the time base for Window expiry (default time.Now).
	// Tests inject a fake clock to drive expiry deterministically.
	Clock func() time.Time
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = runtime.GOMAXPROCS(0)
		if c.Shards > 8 {
			c.Shards = 8
		}
	}
	if c.Depth <= 0 {
		c.Depth = 16
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	return c
}

// perShard splits a collector-wide cap into a per-shard cap, rounding up so
// the sum never undershoots the configured total.
func perShard(total, shards int) int {
	if total <= 0 {
		return 0
	}
	return (total + shards - 1) / shards
}

// TableStats is the cheap per-scrape view of the bounded flow table:
// current tier sizes plus lifetime eviction counters. Evicted counts flows
// displaced by the MaxFlows cap; Expired counts flows aged out by Window;
// Recycled counts new flows that reused a displaced flow's entry (and its
// sketch storage) instead of allocating one.
type TableStats struct {
	Flows    int
	Classes  int
	Evicted  uint64
	Expired  uint64
	Recycled uint64
}

// Add folds another cut's stats into t: tier sizes and counters sum.
func (t *TableStats) Add(o TableStats) {
	t.Flows += o.Flows
	t.Classes += o.Classes
	t.Evicted += o.Evicted
	t.Expired += o.Expired
	t.Recycled += o.Recycled
}

// Rollup is the hierarchical tier below individual flows: class-level
// aggregates (flow keys masked by packet.FlowKey.Class) holding everything
// evicted or expired from the flow table, plus the router-level Root
// holding whatever overflowed the class tier. Together with the live flow
// snapshot it conserves the sample stream: every ingested sample is in
// exactly one of flows, Classes, or Root.
type Rollup struct {
	Classes []FlowAgg
	Root    FlowAgg
	Stats   TableStats
}

// req is one message to a shard: a data batch, a hold for a read when hold
// is set, a table-stats request when count is non-nil, or a rollup request
// when roll is non-nil. Requests are processed strictly in channel order,
// which is what makes View, Stats, Flows and RollupSnapshot consistent cuts
// of everything the caller ingested before them.
type req struct {
	samples []hashedSample
	records []netflow.Record
	hold    bool
	count   chan TableStats
	roll    chan Rollup
}

// hashedSample is a sample as a shard receives it: beside its key's
// FastHash, which Collector.place computed to pick the shard and the shard
// reuses to probe its flow table.
type hashedSample struct {
	Sample
	h uint64
}

// flowEntry is one tracked flow plus its table and recency bookkeeping: h is
// its key's FastHash, prev/next link it into the shard's LRU ring while the
// flow is live, and next alone chains it on the shard's free list once the
// flow has been folded away.
type flowEntry struct {
	agg        FlowAgg
	h          uint64
	last       time.Time
	prev, next *flowEntry
}

// uncappedFreeEntries bounds the free list of a shard with no MaxFlows cap
// (a capped shard's list is bounded by the cap itself): an idle-expiry wave
// on an unbounded table must not pin its peak population forever.
const uncappedFreeEntries = 1024

// shard owns one partition of the flow space. Only its goroutine touches
// its flow table, LRU, free list and rollup tiers — and, while it holds
// still for a read, the read's goroutine reads its live flows.
type shard struct {
	ch chan req
	// held is where the shard hands a read its sorted run once it holds
	// still; resume is where the read lets it go on (Collector.View).
	held   chan []*FlowAgg
	resume chan struct{}
	// scratch is the storage of the shard's per-read sort, held weakly
	// between reads.
	scratch weak.Pointer[scratch]
	// bufs holds processed sample buffers for Ingest to refill, so a batch
	// in steady state is partitioned into storage the shard already owns.
	bufs  chan []hashedSample
	flows flowTable
	// lru is the sentinel of the intrusive recency ring: lru.next is the
	// most recently seen flow, lru.prev the eviction/expiry candidate.
	lru flowEntry
	// free chains displaced entries, reset but still holding their sketch
	// storage, for agg to hand to the next new flow.
	free       *flowEntry
	nfree      int
	classes    map[packet.FlowKey]*FlowAgg
	root       FlowAgg
	maxFlows   int
	maxClasses int
	window     time.Duration
	clock      func() time.Time
	evicted    uint64
	expired    uint64
	recycled   uint64
}

func newShard(cfg Config) *shard {
	s := &shard{
		ch:         make(chan req, cfg.Depth),
		held:       make(chan []*FlowAgg, 1),
		resume:     make(chan struct{}, 1),
		bufs:       make(chan []hashedSample, cfg.Depth+2),
		flows:      newFlowTable(),
		classes:    make(map[packet.FlowKey]*FlowAgg),
		maxFlows:   perShard(cfg.MaxFlows, cfg.Shards),
		maxClasses: perShard(cfg.MaxClasses, cfg.Shards),
		window:     cfg.Window,
		clock:      cfg.Clock,
	}
	s.lru.prev, s.lru.next = &s.lru, &s.lru
	return s
}

func (s *shard) run(wg *sync.WaitGroup) {
	defer wg.Done()
	for q := range s.ch {
		switch {
		case q.hold:
			sc := loadScratch(&s.scratch)
			s.held <- s.sortedRun(sc)
			<-s.resume
			runtime.KeepAlive(sc) // the read used it: a collection mid-read must not free it
		case q.count != nil:
			q.count <- s.stats()
		case q.roll != nil:
			q.roll <- s.rollup()
		default:
			now := s.clock()
			for _, smp := range q.samples {
				s.agg(smp.Key, smp.h, now).addSample(smp.Sample)
			}
			for _, r := range q.records {
				s.agg(r.Key, r.Key.FastHash(), now).addRecord(r)
			}
			s.expire(now)
			if q.samples != nil && cap(q.samples) <= maxPooledSamples {
				select {
				case s.bufs <- q.samples[:0]:
				default: // pool full: let this one go
				}
			}
		}
	}
}

// maxPooledSamples is the largest sample buffer a shard keeps for reuse
// (160 KiB with the hashes): a one-off whole-capture batch is not worth
// holding on to.
const maxPooledSamples = 4096

// buffer returns an empty sample buffer for Ingest to fill for this shard:
// one the shard has finished with when there is one, a fresh one otherwise.
func (s *shard) buffer() []hashedSample {
	select {
	case b := <-s.bufs:
		return b
	default:
		return make([]hashedSample, 0, 64)
	}
}

// agg returns the flow's aggregate, inserting (and evicting, if the table
// is at its cap) as needed, and refreshes the flow's LRU recency. h is the
// key's FastHash. A new flow takes a recycled entry when the free list has
// one, so a table churning at its cap allocates nothing per flow.
func (s *shard) agg(key packet.FlowKey, h uint64, now time.Time) *FlowAgg {
	e, slot := s.flows.find(key, h)
	switch {
	case e == nil:
		if s.maxFlows > 0 && s.flows.n >= s.maxFlows {
			for s.flows.n >= s.maxFlows {
				s.foldOldest(&s.evicted)
			}
			_, slot = s.flows.find(key, h) // the folds shifted probe runs
		}
		if e = s.free; e != nil {
			s.free, e.next = e.next, nil
			s.nfree--
			s.recycled++
		} else {
			e = new(flowEntry)
		}
		e.agg.Key, e.h = key, h
		s.flows.insert(e, slot)
		s.pushFront(e)
	case e != s.lru.next:
		e.prev.next, e.next.prev = e.next, e.prev
		s.pushFront(e)
	}
	e.last = now
	return &e.agg
}

// pushFront links an unlinked entry in as the most recently seen flow.
func (s *shard) pushFront(e *flowEntry) {
	e.prev, e.next = &s.lru, s.lru.next
	e.next.prev = e
	s.lru.next = e
}

// expire folds flows idle longer than the window into the rollup tiers.
// The LRU back is always the least recently seen flow, so expiry stops at
// the first still-fresh entry.
func (s *shard) expire(now time.Time) {
	if s.window <= 0 {
		return
	}
	for s.lru.prev != &s.lru && now.Sub(s.lru.prev.last) > s.window {
		s.foldOldest(&s.expired)
	}
}

// foldOldest removes the least recently seen flow and folds its aggregate
// one tier down: into its flow class, or — when the class tier is full and
// the class is not already tracked — straight into the router-level root.
// The emptied entry goes on the free list. The fold copies counters out of
// the entry (FlowAgg.merge never retains its argument's storage), so
// nothing in the rollup tiers aliases what the next tenant will overwrite.
func (s *shard) foldOldest(counter *uint64) {
	e := s.lru.prev
	if e == &s.lru {
		return
	}
	e.prev.next, e.next.prev = e.next, e.prev
	s.flows.remove(e)
	*counter++

	dst := &s.root
	class := e.agg.Key.Class()
	if c, ok := s.classes[class]; ok {
		dst = c
	} else if s.maxClasses <= 0 || len(s.classes) < s.maxClasses {
		dst = &FlowAgg{Key: class}
		s.classes[class] = dst
	}
	s.foldInto(dst, &e.agg)
	s.release(e)
}

// release resets a displaced entry and chains it on the free list. The
// sketch keeps its counter storage across the reset (stats.Sketch.Reset),
// which is most of what a new flow would otherwise allocate.
func (s *shard) release(e *flowEntry) {
	if s.maxFlows <= 0 && s.nfree >= uncappedFreeEntries {
		return
	}
	sk := e.agg.Sketch
	sk.Reset()
	*e = flowEntry{agg: FlowAgg{Sketch: sk}, next: s.free}
	s.free = e
	s.nfree++
}

// foldInto merges a displaced aggregate into a rollup tier aggregate,
// which keeps its own key.
func (s *shard) foldInto(dst, src *FlowAgg) {
	key := dst.Key
	dst.merge(src)
	dst.Key = key
}

func (s *shard) stats() TableStats {
	return TableStats{
		Flows:    s.flows.n,
		Classes:  len(s.classes),
		Evicted:  s.evicted,
		Expired:  s.expired,
		Recycled: s.recycled,
	}
}

// aggKey is the sort key of a run of aggregate pointers, for
// packet.SortByKey: the flow key, the canonical table order.
func aggKey(a **FlowAgg) packet.FlowKey { return (*a).Key }

// scratch is the storage of one read kept for the next: a shard's run of
// live-flow pointers and its sort's scratch, or the collector's merged
// order. A read's storage is held weakly in between (loadScratch), so a
// collector no one reads pins none of it.
type scratch struct {
	rows []*FlowAgg
	keys packet.KeyScratch
}

// loadScratch returns the scratch p points to, or a new one p then points
// to when a garbage collection has freed the last.
func loadScratch(p *weak.Pointer[scratch]) *scratch {
	sc := p.Value()
	if sc == nil {
		sc = new(scratch)
		*p = weak.Make(sc)
	}
	return sc
}

// sortedRun returns pointers to the shard's live flow aggregates in
// flow-key order, in sc's storage.
func (s *shard) sortedRun(sc *scratch) []*FlowAgg {
	sc.rows = s.appendLive(slices.Grow(sc.rows[:0], s.flows.n))
	packet.SortByKeyIn(sc.rows, aggKey, &sc.keys)
	return sc.rows
}

// appendLive appends pointers to the shard's live flow aggregates to run,
// in table order.
func (s *shard) appendLive(run []*FlowAgg) []*FlowAgg {
	for _, e := range s.flows.slots {
		if e != nil {
			run = append(run, &e.agg)
		}
	}
	return run
}

// rollup deep-copies the shard's class and root tiers.
func (s *shard) rollup() Rollup {
	r := Rollup{Root: cloneAgg(&s.root), Stats: s.stats()}
	r.Classes = make([]FlowAgg, 0, len(s.classes))
	for _, a := range s.classes {
		r.Classes = append(r.Classes, cloneAgg(a))
	}
	return r
}

// cloneAgg deep-copies one aggregate. FlowAgg holds a slice (the sketch's
// counter window), so a plain struct copy would alias live shard state —
// storage a shard grows in place and hands to another flow after eviction.
func cloneAgg(a *FlowAgg) FlowAgg {
	cp := *a
	cp.Sketch = a.Sketch.Clone()
	return cp
}

// Collector is the sharded aggregation plane. Ingest* methods are safe for
// concurrent use by multiple producers; View and Snapshot may run
// concurrently with ingestion and reflect at least everything the calling
// goroutine ingested beforehand.
type Collector struct {
	shards []*shard
	wg     sync.WaitGroup
	// mu serializes Close against Ingest*/View: senders hold it shared,
	// Close holds it exclusively, so no send can race a channel close and
	// reads of closed are properly synchronized.
	mu      sync.RWMutex
	closed  bool
	samples atomic.Uint64
	records atomic.Uint64

	// readMu serializes View: two reads that each held some of the shards
	// would wait on each other for the rest. It guards runs and order.
	readMu sync.Mutex
	runs   [][]*FlowAgg
	order  weak.Pointer[scratch]
	reads  atomic.Uint64
	heldNs atomic.Int64
}

// New starts a collector and its shard goroutines. Call Close to stop them.
func New(cfg Config) *Collector {
	cfg = cfg.withDefaults()
	c := &Collector{shards: make([]*shard, cfg.Shards), runs: make([][]*FlowAgg, 0, cfg.Shards)}
	for i := range c.shards {
		c.shards[i] = newShard(cfg)
		c.wg.Add(1)
		go c.shards[i].run(&c.wg)
	}
	return c
}

// shardOf routes a flow to its owning shard by its key's FastHash h.
// FastHash rather than the ECMP hashes: sharding must be uniform and
// deterministic, not path-consistent.
func (c *Collector) shardOf(h uint64) int {
	return int(h % uint64(len(c.shards)))
}

// Ingest routes one batch of samples to the owning shards. The batch is
// copied during partitioning — into buffers the shards recycle, so a
// steady-state call allocates nothing — and the caller may reuse it
// immediately. Blocks only when a shard's bounded queue is full
// (back-pressure).
func (c *Collector) Ingest(batch []Sample) {
	if len(batch) == 0 {
		return
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.closed {
		panic("collector: Ingest after Close")
	}
	var stack [stackParts][]hashedSample
	parts := c.parts(&stack)
	for i := range batch {
		c.place(parts, &batch[i])
	}
	c.dispatch(parts, len(batch))
}

// place appends one sample and its key's hash to its owning shard's
// partition, taking a buffer from that shard's pool on the partition's
// first sample. The key is hashed here once: the shard probes its table
// with the same hash.
func (c *Collector) place(parts [][]hashedSample, s *Sample) {
	h := s.Key.FastHash()
	i := c.shardOf(h)
	if parts[i] == nil {
		parts[i] = c.shards[i].buffer()
	}
	parts[i] = append(parts[i], hashedSample{*s, h})
}

// stackParts is the shard count up to which a partitioning call keeps its
// per-shard slice headers on the stack.
const stackParts = 16

// parts returns the zeroed per-shard slice headers one partitioning call
// fills: the caller's stack array when the shards fit in it.
func (c *Collector) parts(stack *[stackParts][]hashedSample) [][]hashedSample {
	if n := len(c.shards); n <= stackParts {
		return stack[:n]
	}
	return make([][]hashedSample, len(c.shards))
}

// dispatch sends each shard its partition of an n-sample batch; the shard
// returns the buffer to its pool once the samples are folded.
func (c *Collector) dispatch(parts [][]hashedSample, n int) {
	for i, p := range parts {
		if p != nil {
			c.shards[i].ch <- req{samples: p}
		}
	}
	// Counted only after every shard send: a goroutine that observes
	// SamplesIngested() == N may Snapshot and see all N samples, because its
	// snap requests queue behind the already-sent batches.
	c.samples.Add(uint64(n))
}

// IngestRecords routes one batch of NetFlow records to the owning shards,
// with the same copying and back-pressure semantics as Ingest.
func (c *Collector) IngestRecords(recs []netflow.Record) {
	if len(recs) == 0 {
		return
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.closed {
		panic("collector: IngestRecords after Close")
	}
	parts := make([][]netflow.Record, len(c.shards))
	for _, r := range recs {
		i := c.shardOf(r.Key.FastHash())
		parts[i] = append(parts[i], r)
	}
	for i, p := range parts {
		if len(p) > 0 {
			c.shards[i].ch <- req{records: p}
		}
	}
	// After the sends, for the same observe-then-Snapshot reason as Ingest.
	c.records.Add(uint64(len(recs)))
}

// IngestFrame decodes one wire frame (samples or records) and ingests it.
// It returns the number of bytes consumed, so back-to-back frames in one
// buffer can be drained in a loop. A samples frame is decoded record by
// record straight into the shards' buffers — no intermediate []Sample — so
// src may be reused as soon as the call returns.
func (c *Collector) IngestFrame(src []byte) (int, error) {
	msgType, count, body, err := parseHeader(src)
	if err != nil {
		return 0, err
	}
	if msgType == MsgSamples {
		c.ingestWire(body[:count*SampleWireSize])
		return FrameHeaderSize + count*SampleWireSize, nil
	}
	f, n, _ := DecodeFrame(src) // cannot fail: the header just parsed
	c.IngestRecords(f.Records)
	return n, nil
}

// ingestWire is Ingest over the body of a samples frame: whole encoded
// samples, partitioned as they are decoded.
func (c *Collector) ingestWire(body []byte) {
	if len(body) == 0 {
		return
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.closed {
		panic("collector: IngestFrame after Close")
	}
	var stack [stackParts][]hashedSample
	parts := c.parts(&stack)
	for off := 0; off < len(body); off += SampleWireSize {
		s := decodeSample(body[off:])
		c.place(parts, &s)
	}
	c.dispatch(parts, len(body)/SampleWireSize)
}

// SamplesIngested returns the number of samples enqueued to shards by
// Ingest calls so far. The count is advanced only after the batch's shard
// sends complete, so ANY goroutine that observes SamplesIngested() == N and
// then Snapshots sees at least those N samples — the wait-then-query
// pattern a streaming consumer uses.
func (c *Collector) SamplesIngested() uint64 { return c.samples.Load() }

// RecordsIngested returns the number of NetFlow records accepted so far.
func (c *Collector) RecordsIngested() uint64 { return c.records.Load() }

// Shards returns the shard count.
func (c *Collector) Shards() int { return len(c.shards) }

// QueueDepths returns each shard's queued request count right now — the
// length of its bounded channel, read without a request or a table copy. A
// queue pinned at Config.Depth means the shards bound ingest; one near zero
// means the producers (the connection read loops) do.
func (c *Collector) QueueDepths() []int {
	depths := make([]int, len(c.shards))
	for i, s := range c.shards {
		depths[i] = len(s.ch)
	}
	return depths
}

// View holds the flow table still at one cut and calls fn with every live
// flow aggregate, in flow-key order. Before Close the cut is consistent
// across all shards at once: each shard drains everything queued ahead of
// the read, so all batches ingested by the calling goroutine are included,
// then sorts its live flows on its own goroutine and holds still — ingesting
// nothing — until fn returns. After Close it reads the final state in
// place. The rows are the shards' own: fn must not modify them, keep them
// or call back into the collector, and should return promptly, since
// ingest waits for it. Reads are serialized.
func (c *Collector) View(fn func(rows []*FlowAgg)) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	c.readMu.Lock()
	defer c.readMu.Unlock()
	c.reads.Add(1)
	runs := c.runs[:0]
	if c.closed {
		for _, s := range c.shards {
			runs = append(runs, s.sortedRun(loadScratch(&s.scratch)))
		}
	} else {
		start := time.Now()
		for _, s := range c.shards {
			s.ch <- req{hold: true}
		}
		defer func() {
			for _, s := range c.shards {
				s.resume <- struct{}{}
			}
			c.heldNs.Add(int64(time.Since(start)))
		}()
		for _, s := range c.shards {
			runs = append(runs, <-s.held)
		}
	}
	if len(runs) == 1 {
		fn(runs[0])
		return
	}
	sc := loadScratch(&c.order)
	total := 0
	for _, r := range runs {
		total += len(r)
	}
	sc.rows = mergeOrder(slices.Grow(sc.rows[:0], total), runs)
	fn(sc.rows)
	runtime.KeepAlive(sc)
}

// Reads returns how many reads View has made of the flow table and, of an
// open collector, how long its shards held still for them in all: from each
// read's first hold request to its release.
func (c *Collector) Reads() (n uint64, held time.Duration) {
	return c.reads.Load(), time.Duration(c.heldNs.Load())
}

// Snapshot returns a deep copy of every flow aggregate, sorted by flow key:
// View's rows, cloned once into one table whose sketch windows share one
// slab.
func (c *Collector) Snapshot() []FlowAgg {
	var out []FlowAgg
	c.View(func(rows []*FlowAgg) {
		var m Merger
		out = m.mergeRuns([][]*FlowAgg{rows}, true)
	})
	if len(out) == 0 {
		return nil // an empty table renders as JSON null; the byte-identity pins hold that
	}
	return out
}

// Take hands a closed collector's flow table over, sorted by flow key: the
// rows Snapshot would return, moved instead of cloned. No key lives in two
// shards, so the shards' live flows form one run, sorted once by their
// packed keys (packet.SortByKey) rather than per shard and merged. The rows
// take over the shards' sketch windows, so the shards give their tables up:
// a later Take or Snapshot finds no flows. The rollup tiers, the eviction
// counters and the ingest counts stay.
func (c *Collector) Take() []FlowAgg {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.closed {
		panic("collector: Take before Close")
	}
	n := 0
	for _, s := range c.shards {
		n += s.flows.n
	}
	run := make([]*FlowAgg, 0, n)
	for _, s := range c.shards {
		run = s.appendLive(run)
		s.flows = flowTable{}
		s.lru.prev, s.lru.next = &s.lru, &s.lru
	}
	if n == 0 {
		return nil // as Snapshot returns an empty table
	}
	packet.SortByKey(run, aggKey)
	out := make([]FlowAgg, n)
	for i, a := range run {
		out[i] = *a
		if a.Sketch.Buckets() == 0 {
			// A recycled entry's empty window keeps its storage; a
			// clone's is the canonical nil, as Snapshot's rows have it.
			out[i].Sketch = a.Sketch.Clone()
		}
	}
	return out
}

// Stats returns the bounded flow table's tier sizes and lifetime eviction
// counters: the sum of ShardStats.
func (c *Collector) Stats() TableStats {
	var t TableStats
	for _, st := range c.ShardStats() {
		t.Add(st)
	}
	return t
}

// ShardStats returns each shard's tier sizes and lifetime eviction
// counters, in shard order: a consistent cut, answered by requests that
// queue behind pending batches — O(shards), never a table copy, so periodic
// health/metrics scrapes stay cheap at millions of flows.
func (c *Collector) ShardStats() []TableStats {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]TableStats, len(c.shards))
	if c.closed {
		for i, s := range c.shards {
			out[i] = s.stats()
		}
		return out
	}
	replies := make([]chan TableStats, len(c.shards))
	for i, s := range c.shards {
		replies[i] = make(chan TableStats, 1)
		s.ch <- req{count: replies[i]}
	}
	for i, ch := range replies {
		out[i] = <-ch
	}
	return out
}

// Flows returns the number of distinct flows currently tracked (excludes
// flows already folded into the rollup tiers).
func (c *Collector) Flows() int { return c.Stats().Flows }

// RollupSnapshot returns a deep copy of the rollup hierarchy below the live
// flow table: per-class aggregates sorted by class key, the router-level
// root, and the table stats at the same consistent cut. With no eviction
// configured (or none triggered yet) the rollup is empty and the live
// Snapshot alone covers the whole stream.
func (c *Collector) RollupSnapshot() Rollup {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var parts []Rollup
	if c.closed {
		for _, s := range c.shards {
			parts = append(parts, s.rollup())
		}
	} else {
		replies := make([]chan Rollup, len(c.shards))
		for i, s := range c.shards {
			replies[i] = make(chan Rollup, 1)
			s.ch <- req{roll: replies[i]}
		}
		for _, ch := range replies {
			parts = append(parts, <-ch)
		}
	}
	return MergeRollups(parts...)
}

// Close stops the shard goroutines after draining queued batches. The
// collector's final state remains readable (Snapshot, Flows); further
// Ingest calls panic.
func (c *Collector) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	// No sender can be mid-send here: Ingest*/Snapshot hold mu shared for
	// their whole send sequence.
	for _, s := range c.shards {
		close(s.ch)
	}
	c.wg.Wait()
	c.closed = true
}

// Merge combines flow-aggregate snapshots (for example, per-run collector
// snapshots of a multi-seed sweep, or a fleet's per-instance tables) into one
// sorted aggregate list. Same-key aggregates merge through the stats
// accumulators in argument order, so the result is deterministic for a fixed
// argument order. The result is a deep copy: it shares no storage with any
// input, and growing one of its sketches never writes into another's window.
// It is Merger.Move's merge, into an empty Merger and cloning rows instead of
// moving them.
func Merge(snaps ...[]FlowAgg) []FlowAgg {
	var m Merger
	return m.mergeRuns(m.keyRuns(snaps), true)
}

// Merger is the storage of a k-way merge — its pointer runs, its merge order
// and its result table — kept for the next merge: once it has grown to the
// tables it merges, merging allocates nothing. The zero value is ready to
// use; a Merger is not safe for concurrent use.
type Merger struct {
	refs  []*FlowAgg
	runs  [][]*FlowAgg
	order []*FlowAgg
	out   []FlowAgg
	slab  []uint64 // the result's sketch windows, when it is a clone
}

// Move is Merge into m's storage, moving rows instead of copying them: the
// result's sketch windows are the inputs' own (a fold into a row writes into
// its first table's window, or widens it into a fresh one), so the inputs
// must be the caller's to give up. The result is m's and is overwritten by
// the next Move.
func (m *Merger) Move(tables ...[]FlowAgg) []FlowAgg {
	return m.mergeRuns(m.keyRuns(tables), false)
}

// Bytes is the storage m holds for reuse, in bytes.
func (m *Merger) Bytes() int {
	const ptr, row = int(unsafe.Sizeof((*FlowAgg)(nil))), int(unsafe.Sizeof(FlowAgg{}))
	return (cap(m.refs)+cap(m.order))*ptr + cap(m.runs)*int(unsafe.Sizeof([]*FlowAgg(nil))) +
		cap(m.out)*row + cap(m.slab)*8
}

// grow returns s emptied and with room for n elements. A nil s — a Merger's
// first merge — gets exactly n, as a one-shot Merge always has; storage
// being reused grows the way append does, so a slowly growing table
// regrows it rarely.
func grow[E any](s []E, n int) []E {
	if s == nil {
		return make([]E, 0, n)
	}
	return slices.Grow(s[:0], n)
}

// keyRuns returns one run of aggregate pointers per table, each in flow-key
// order. Collector snapshots arrive sorted, which the gathering pass checks
// as it goes; a table that is not gets its run sorted stably, so aggregates
// that share a key keep their table order.
func (m *Merger) keyRuns(tables [][]FlowAgg) [][]*FlowAgg {
	total := 0
	for _, t := range tables {
		total += len(t)
	}
	m.refs = grow(m.refs, total)[:total]
	m.runs = grow(m.runs, len(tables))[:len(tables)]
	refs, runs := m.refs, m.runs
	for i, t := range tables {
		run := refs[:len(t):len(t)]
		refs = refs[len(t):]
		sorted := true
		for j := range t {
			run[j] = &t[j]
			sorted = sorted && (j == 0 || t[j-1].Key.Compare(t[j].Key) <= 0)
		}
		if !sorted {
			packet.SortByKey(run, aggKey)
		}
		runs[i] = run
	}
	return runs
}

// mergeOrder appends the aggregates of runs, each in flow-key order, to
// order in flow-key order — equal keys earliest run first, run order within
// a run, which is the order a loop over the runs would fold them in — and
// consumes the runs.
func mergeOrder(order []*FlowAgg, runs [][]*FlowAgg) []*FlowAgg {
	for {
		first := -1
		for i, r := range runs {
			if len(r) > 0 && (first < 0 || r[0].Key.Compare(runs[first][0].Key) < 0) {
				first = i // strictly smaller only: a tie stays with the earlier run
			}
		}
		if first < 0 {
			return order
		}
		order = append(order, runs[first][0])
		runs[first] = runs[first][1:]
	}
}

// mergeRuns is the k-way merge behind Merge, MergeRollups and
// Collector.Snapshot: it consumes runs, each in flow-key order, and returns their aggregates in flow-key
// order (mergeOrder's) with every group of equal keys folded into one, so
// Welford float bits come out as a loop over the runs would make them.
//
// With clone the result is a deep copy, paid once: the first pass fixes the
// merge order and sizes the result and one slab for all its sketch windows,
// the second writes each aggregate straight into its slot and carves its
// window capacity-limited from the slab (a window a later fold widens
// reallocates; it cannot reach its neighbour). Without clone the aggregates
// are moved: the pointees' sketch windows become the result's, so they must
// be the caller's own copies. The order, the result and the slab are m's
// storage, reused.
func (m *Merger) mergeRuns(runs [][]*FlowAgg, clone bool) []FlowAgg {
	total := 0
	for _, r := range runs {
		total += len(r)
	}
	order := mergeOrder(grow(m.order, total), runs)
	flows, window := 0, 0
	for i, a := range order {
		if i == 0 || order[i-1].Key != a.Key {
			flows++
			window += a.Sketch.Buckets()
		}
	}

	out := grow(m.out, flows)
	var slab []uint64
	if clone {
		m.slab = grow(m.slab, window)[:window]
		slab = m.slab
	}
	for _, a := range order {
		if n := len(out); n > 0 && out[n-1].Key == a.Key {
			out[n-1].merge(a)
			continue
		}
		out = append(out, *a)
		if clone {
			out[len(out)-1].Sketch, slab = a.Sketch.CloneIn(slab)
		}
	}
	m.order, m.out = order, out
	return out
}

// MergeRollups combines rollup snapshots (per-shard, per-run or per-fleet-
// instance) into one: classes merge by class key and sort canonically, the
// roots merge, and the table stats sum. The sketch tiers merge bit-exactly
// under any merge order; the rollup Welford tiers co-merge
// non-empty accumulators, so their float sums are exact in value but not
// guaranteed bit-identical across merge orders (see stats.Aggregate).
func MergeRollups(rolls ...Rollup) Rollup {
	var out Rollup
	classes := make([][]FlowAgg, len(rolls))
	for i := range rolls {
		classes[i] = rolls[i].Classes
		out.Root.merge(&rolls[i].Root) // merge copies counters, never retains its argument's storage
		out.Stats.Add(rolls[i].Stats)
	}
	var m Merger
	out.Classes = m.mergeRuns(m.keyRuns(classes), true)
	return out
}
