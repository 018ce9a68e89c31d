package trace

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"github.com/netmeasure/rlir/internal/packet"
	"github.com/netmeasure/rlir/internal/simtime"
)

// Config parameterizes the synthetic workload generator.
type Config struct {
	// Seed makes the trace fully deterministic.
	Seed int64
	// Duration is the trace length; records past it are not emitted.
	Duration time.Duration
	// TargetBps is the average offered load the generator calibrates its
	// flow arrival rate to.
	TargetBps float64
	// SrcPrefix and DstPrefix are the address pools flows draw endpoints
	// from. The paper distinguishes regular from cross traffic purely by IP
	// address ("We modify IP addresses of cross traffic"), so disjoint
	// prefixes per trace reproduce that.
	SrcPrefix packet.Prefix
	DstPrefix packet.Prefix
	// FlowLen is the packets-per-flow distribution.
	FlowLen FlowLenDist
	// Sizes is the packet-size mix.
	Sizes SizeMix
	// MeanGap is the mean in-flow packet spacing (exponentially
	// distributed). Together with FlowLen it sets per-flow durations.
	MeanGap time.Duration
	// Warmup starts the flow arrival process this long before the trace
	// window and discards pre-window records. With heavy-tailed flow
	// lengths, a cold start under-delivers the target rate badly (no
	// elephants are mid-flight at t=0); a warm-up of at least the longest
	// flow duration makes the window statistically stationary, like a
	// slice cut from a live link.
	Warmup time.Duration
}

// DefaultConfig returns a 2-second, 220 Mbps workload on a 10.1.0.0/16
// source pool — 22% of a 1 Gbps link, the base utilization the paper
// observes from regular traffic alone.
//
// The 2 ms in-flow gap keeps individual flows at a realistic few Mbps, so
// the aggregate multiplexes many concurrent flows rather than a couple of
// elephants taking turns; that is what keeps the offered rate stable and
// mirrors a backbone trace's aggregation level.
func DefaultConfig() Config {
	return Config{
		Seed:      1,
		Duration:  2 * time.Second,
		TargetBps: 220e6,
		SrcPrefix: packet.MustParsePrefix("10.1.0.0/16"),
		DstPrefix: packet.MustParsePrefix("10.200.0.0/16"),
		FlowLen:   DefaultFlowLenDist(),
		Sizes:     DefaultSizeMix(),
		MeanGap:   2 * time.Millisecond,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Duration <= 0 {
		return fmt.Errorf("trace: non-positive duration %v", c.Duration)
	}
	if c.TargetBps <= 0 {
		return fmt.Errorf("trace: non-positive target rate %v", c.TargetBps)
	}
	if c.MeanGap <= 0 {
		return fmt.Errorf("trace: non-positive mean gap %v", c.MeanGap)
	}
	if c.Warmup < 0 {
		return fmt.Errorf("trace: negative warmup %v", c.Warmup)
	}
	if err := c.Sizes.Validate(); err != nil {
		return err
	}
	return c.FlowLen.Validate()
}

// FlowArrivalRate returns the calibrated Poisson flow arrival rate in flows
// per second implied by the target load.
func (c Config) FlowArrivalRate() float64 {
	bytesPerFlow := c.FlowLen.Mean() * c.Sizes.Mean()
	return c.TargetBps / (bytesPerFlow * 8)
}

// Generator streams a synthetic trace in time order. It is a Source.
type Generator struct {
	cfg      Config
	rng      *rand.Rand
	events   genHeap
	nextFlow simtime.Time
	arrGap   float64 // mean inter-flow-arrival in seconds
	done     bool
	emitted  uint64

	// Hot-path accelerators, prepared once per generator: the flow-length
	// sampler hoists the bounded-Pareto transcendentals, sizeTotal hoists
	// the size-mix weight sum, and free recycles finished flowState records
	// so steady-state generation does not allocate per flow.
	lenSamp   *LenSampler
	sizeTotal float64
	free      []*flowState
	slab      []flowState // slab fresh flowStates are carved from
}

// flowState is one active flow's pending next packet.
type flowState struct {
	at        simtime.Time
	key       packet.FlowKey
	remaining int
	size      int
}

// genHeap is a monomorphic binary min-heap over pending flows, ordered by
// next-packet instant. Its sift procedures replicate container/heap's
// algorithm exactly (same comparisons, same swap sequence), so the
// arrangement — and therefore the emission order among flows whose next
// packets collide on the same instant — is bit-identical to the seed
// engine's, without the interface dispatch per comparison.
type genHeap []*flowState

func (h genHeap) Len() int           { return len(h) }
func (h genHeap) peek() simtime.Time { return h[0].at }

func (h *genHeap) push(fs *flowState) {
	*h = append(*h, fs)
	s := *h
	j := len(s) - 1
	for j > 0 {
		i := (j - 1) / 2
		if s[i].at <= s[j].at {
			break
		}
		s[i], s[j] = s[j], s[i]
		j = i
	}
}

func (h *genHeap) pop() *flowState {
	s := *h
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	s.down(0, n)
	fs := s[n]
	s[n] = nil
	*h = s[:n]
	return fs
}

// fixRoot restores the heap after the root's instant changed in place
// (container/heap.Fix(h, 0) equivalent: at the root, sifting down covers
// every case).
func (h genHeap) fixRoot() { h.down(0, len(h)) }

func (h genHeap) down(i0, n int) {
	i := i0
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && h[j2].at < h[j].at {
			j = j2
		}
		if h[i].at <= h[j].at {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

// NewGenerator builds a generator; it panics on invalid configuration since
// a malformed workload invalidates every downstream result.
func NewGenerator(cfg Config) *Generator {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	g := &Generator{
		cfg:       cfg,
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		arrGap:    1 / cfg.FlowArrivalRate(),
		lenSamp:   cfg.FlowLen.Sampler(),
		sizeTotal: cfg.Sizes.total(),
		events:    make(genHeap, 0, 256),
	}
	g.nextFlow = g.expAfter(simtime.Time(-int64(cfg.Warmup)), g.arrGap)
	return g
}

// StationaryWarmup returns the warm-up that makes the window stationary:
// the duration of the longest possible flow.
func (c Config) StationaryWarmup() time.Duration {
	return time.Duration(c.FlowLen.Max) * c.MeanGap
}

// CapFlowLen enables the stationary warm-up (flows already mid-flight at
// t=0, like a slice cut from a live link) and bounds flow lengths so the
// warm-up region stays affordable at short durations while leaving a heavy
// in-window tail. A flow can emit at most ~Duration/MeanGap packets inside
// the window, so capping lengths at twice that leaves in-window statistics
// intact while bounding the warm-up region to about two window lengths.
func (c *Config) CapFlowLen() {
	if limit := max(64, 2*int(c.Duration/c.MeanGap)); c.FlowLen.Max > limit {
		c.FlowLen.Max = limit
	}
	c.Warmup = c.StationaryWarmup()
}

// expAfter returns t plus an exponential variate with the given mean in
// seconds.
func (g *Generator) expAfter(t simtime.Time, meanSec float64) simtime.Time {
	d := g.rng.ExpFloat64() * meanSec
	return t.Add(time.Duration(d * float64(time.Second)))
}

// randAddr draws a uniform address inside prefix p, avoiding the all-zeros
// host (network address) where possible.
func (g *Generator) randAddr(p packet.Prefix) packet.Addr {
	hostBits := 32 - p.Len
	if hostBits == 0 {
		return p.Addr
	}
	span := uint64(1) << uint(hostBits)
	h := uint32(g.rng.Int63n(int64(span)))
	if h == 0 && span > 1 {
		h = 1
	}
	return packet.Addr(uint32(p.Addr)&p.Mask() | h)
}

// spawnFlow creates a new flow starting at the given instant.
func (g *Generator) spawnFlow(at simtime.Time) {
	n := g.lenSamp.Sample(g.rng.Float64())
	key := packet.FlowKey{
		Src:     g.randAddr(g.cfg.SrcPrefix),
		Dst:     g.randAddr(g.cfg.DstPrefix),
		SrcPort: uint16(1024 + g.rng.Intn(64512)),
		DstPort: uint16(1 + g.rng.Intn(65535)),
		Proto:   packet.ProtoTCP,
	}
	if g.rng.Float64() < 0.15 {
		key.Proto = packet.ProtoUDP
	}
	var fs *flowState
	if k := len(g.free); k > 0 {
		fs = g.free[k-1]
		g.free = g.free[:k-1]
	} else {
		// Carve from a slab: the free list only helps once flows finish, so
		// ramp-up still creates one record per concurrent flow. A full slab
		// is abandoned to its live pointers and replaced; addresses are
		// stable.
		if len(g.slab) == cap(g.slab) {
			g.slab = make([]flowState, 0, 128)
		}
		g.slab = append(g.slab, flowState{})
		fs = &g.slab[len(g.slab)-1]
	}
	*fs = flowState{at: at, key: key, remaining: n}
	fs.size = g.cfg.Sizes.sampleTotal(g.rng.Float64(), g.sizeTotal)
	g.events.push(fs)
}

// Next returns the next record in time order.
func (g *Generator) Next() (Rec, bool) {
	for {
		// Admit new flows that arrive before the earliest pending packet.
		for !g.done && (g.events.Len() == 0 || g.nextFlow <= g.events.peek()) {
			if g.nextFlow.Duration() >= g.cfg.Duration {
				g.done = true
				break
			}
			g.spawnFlow(g.nextFlow)
			g.nextFlow = g.expAfter(g.nextFlow, g.arrGap)
		}
		if g.events.Len() == 0 {
			return Rec{}, false
		}
		fs := g.events[0]
		if fs.at.Duration() >= g.cfg.Duration {
			// The earliest pending packet is past the trace window. In-flow
			// times only increase and the admit loop above has already run
			// nextFlow past every pending instant, so every other pending
			// packet is past the window too: the trace is complete.
			g.events = nil
			g.done = true
			return Rec{}, false
		}
		rec := Rec{At: fs.at, Key: fs.key, Size: fs.size}
		fs.remaining--
		if fs.remaining == 0 {
			g.events.pop()
			g.free = append(g.free, fs)
		} else {
			fs.at = g.expAfter(fs.at, g.cfg.MeanGap.Seconds())
			fs.size = g.cfg.Sizes.sampleTotal(g.rng.Float64(), g.sizeTotal)
			g.events.fixRoot()
		}
		if rec.At < 0 {
			// Warm-up record: generated for stationarity, not emitted.
			continue
		}
		g.emitted++
		return rec, true
	}
}

// Emitted returns the number of records produced so far.
func (g *Generator) Emitted() uint64 { return g.emitted }

// Stats summarizes a trace.
type Stats struct {
	Packets  uint64
	Bytes    uint64
	Flows    int
	First    simtime.Time
	Last     simtime.Time
	MeanBps  float64
	MeanSize float64
}

// Summarize drains a source and computes its statistics.
func Summarize(src Source) Stats {
	var s Stats
	flows := make(map[packet.FlowKey]struct{})
	first := true
	for {
		r, ok := src.Next()
		if !ok {
			break
		}
		if first {
			s.First = r.At
			first = false
		}
		s.Last = r.At
		s.Packets++
		s.Bytes += uint64(r.Size)
		flows[r.Key] = struct{}{}
	}
	s.Flows = len(flows)
	if s.Packets > 0 {
		s.MeanSize = float64(s.Bytes) / float64(s.Packets)
		if s.Last > s.First {
			s.MeanBps = simtime.Rate(int64(s.Bytes), s.First, s.Last)
		}
	}
	return s
}

func (s Stats) String() string {
	return fmt.Sprintf("packets=%d flows=%d bytes=%d span=[%v,%v] mean=%.1f Mbps meanSize=%.0fB",
		s.Packets, s.Flows, s.Bytes, s.First, s.Last, s.MeanBps/1e6, s.MeanSize)
}

// SliceSource adapts an in-memory record slice to a Source.
type SliceSource struct {
	recs []Rec
	i    int
}

// NewSliceSource wraps recs; the slice is not copied.
func NewSliceSource(recs []Rec) *SliceSource { return &SliceSource{recs: recs} }

// Next implements Source.
func (s *SliceSource) Next() (Rec, bool) {
	if s.i >= len(s.recs) {
		return Rec{}, false
	}
	r := s.recs[s.i]
	s.i++
	return r, true
}

// Collect drains a source into a slice, capped at limit records (0 = no
// cap). It verifies time ordering, panicking on regression: every consumer
// in this repository assumes sorted traces.
func Collect(src Source, limit int) []Rec {
	var out []Rec
	last := simtime.Time(math.MinInt64)
	for {
		r, ok := src.Next()
		if !ok {
			return out
		}
		if r.At < last {
			panic(fmt.Sprintf("trace: time regression %v after %v", r.At, last))
		}
		last = r.At
		out = append(out, r)
		if limit > 0 && len(out) >= limit {
			return out
		}
	}
}

// Rebase returns a copy of rec with its source and destination rewritten
// into the given prefixes, preserving host bits that fit. It reproduces the
// paper's "we modify IP addresses of cross traffic to distinguish from
// regular traffic".
func Rebase(rec Rec, src, dst packet.Prefix) Rec {
	rec.Key.Src = rebaseAddr(rec.Key.Src, src)
	rec.Key.Dst = rebaseAddr(rec.Key.Dst, dst)
	return rec
}

func rebaseAddr(a packet.Addr, p packet.Prefix) packet.Addr {
	m := p.Mask()
	return packet.Addr(uint32(p.Addr)&m | uint32(a)&^m)
}
