package scenario

import (
	"fmt"
	"sort"
	"time"

	"github.com/netmeasure/rlir/internal/core"
	"github.com/netmeasure/rlir/internal/eventsim"
	"github.com/netmeasure/rlir/internal/measure"
	"github.com/netmeasure/rlir/internal/netsim"
	"github.com/netmeasure/rlir/internal/packet"
	"github.com/netmeasure/rlir/internal/simtime"
	"github.com/netmeasure/rlir/internal/stats"
	"github.com/netmeasure/rlir/internal/topo"
	"github.com/netmeasure/rlir/internal/trace"
)

// This file is the one place a fat-tree RLIR deployment (paper §3.1,
// Figure 1) is built, instrumented, loaded, run and harvested. A run is five
// stages over one fatTreeRun: build -> instrument -> inject -> run ->
// harvest.

// upstreamSenderID identifies the sender at ToR(p,e) uplink j in a fat-tree
// of half-arity h.
func upstreamSenderID(h, p, e, j int) core.SenderID {
	return core.SenderID(1000 + ((p*h+e)*h + j))
}

// downstreamSenderID identifies the sender instances at core (j,i).
func downstreamSenderID(h, j, i int) core.SenderID {
	return core.SenderID(2000 + j*h + i)
}

// countingDemux audits a strategy against ground truth.
type countingDemux struct {
	inner  core.Demux
	oracle core.Demux
	agree  uint64
	total  uint64
}

func (c *countingDemux) Classify(p *packet.Packet) (core.SenderID, bool) {
	id, ok := c.inner.Classify(p)
	if ok {
		if truth, tok := c.oracle.Classify(p); tok {
			c.total++
			if truth == id {
				c.agree++
			}
		}
	}
	return id, ok
}

func (c *countingDemux) Name() string { return "counting(" + c.inner.Name() + ")" }

// misattribution aggregates the audit across the per-receiver counting
// demuxes.
func misattribution(cs []*countingDemux) float64 {
	var agree, total uint64
	for _, c := range cs {
		agree += c.agree
		total += c.total
	}
	if total == 0 {
		return 0
	}
	return 1 - float64(agree)/float64(total)
}

// routerRx pairs a receiver with its identity and tail accumulators.
type routerRx struct {
	name    string
	segment string
	rx      *core.Receiver
	rec     *routerRec
	// Downstream receivers carry their estimator and the monitored
	// (pod, tor); rli is nil for the upstream ones.
	tor [2]int
	rli *measure.RLI
}

// fatTreeRun is one fat-tree scenario run's state, threaded through the
// stages in order.
type fatTreeRun struct {
	spec Spec
	seed int64

	// build: the network under test.
	nw *netsim.Network
	ft *topo.FatTree
	// monitored lists the (pod, tor) pairs carrying downstream receivers;
	// monPods their distinct pods; sourcePods the pods whose ToRs send.
	monitored  [][2]int
	monPods    []int
	sourcePods []int
	emuPort    *netsim.Port // link-trace replay target, nil without one
	emuTrace   *trace.LinkTrace

	// instrument: the measurement plane.
	senders   []*core.Sender
	routers   []*routerRx // cores in (j,i) order, then monitored ToRs
	endPorts  []*netsim.Port
	countings []*countingDemux
	plane     *plane

	// inject: the offered workload, pulled as the run goes. A replicated
	// one logs its pairs as it generates them, and the segment-end tap
	// records each copy's edge arrival by packet ID.
	injected    int
	repPairs    []repPair
	repArrivals map[uint64]simtime.Time
}

// runFatTree composes and executes a fat-tree scenario.
func runFatTree(spec Spec, seed int64, cap *capture) (*Result, error) {
	r, err := buildFatTree(spec, seed)
	if err != nil {
		return nil, err
	}
	if err := r.instrument(cap); err != nil {
		return nil, err
	}
	r.inject()
	r.run()
	return r.harvest()
}

// buildFatTree is stage one: the engine, the topology, and everything the
// spec does to the network itself — path skew, fault windows, the
// compromised switch, link-trace replay — all as hooks: no event is
// scheduled here.
func buildFatTree(spec Spec, seed int64) (*fatTreeRun, error) {
	r := &fatTreeRun{spec: spec, seed: seed}
	eng := eventsim.New()
	r.nw = netsim.New(eng)
	tc := topo.DefaultConfig()
	tc.K = spec.Topology.K
	tc.LinkBps = spec.Topology.LinkBps
	tc.QueueBytes = spec.Topology.QueueBytes
	if spec.Topology.Propagation > 0 {
		tc.Propagation = spec.Topology.Propagation
	}
	if spec.Topology.ProcDelay > 0 {
		tc.ProcDelay = spec.Topology.ProcDelay
	}
	tc.MarkAtCores = spec.Deploy.Demux == DemuxMark
	ft, err := topo.Build(tc, r.nw)
	if err != nil {
		return nil, err
	}
	r.ft = ft
	r.nw.SetTracePaths(true) // oracle demux + misattribution audit

	k, h := spec.Topology.K, spec.half()
	r.monitored = spec.monitoredToRs()
	seenPod := make(map[int]bool, k)
	for _, m := range r.monitored {
		if !seenPod[m[0]] {
			seenPod[m[0]] = true
			r.monPods = append(r.monPods, m[0])
		}
	}
	for p := 0; p < k; p++ {
		if spec.Workload.Pattern != PatternAllPairs && seenPod[p] {
			continue // single-destination patterns: the monitored pod only receives
		}
		r.sourcePods = append(r.sourcePods, p)
	}

	// Physical path differentiation toward every monitored pod.
	if skew := spec.Topology.CoreSkew; skew > 0 {
		for _, p := range r.monPods {
			for j := 0; j < h; j++ {
				for i := 0; i < h; i++ {
					port := ft.CoreDownPort(j, i, p)
					port.SetPropagation(port.Propagation() + time.Duration(j*h+i)*skew)
				}
			}
		}
	}

	// Faults, each a pure function of the instant a packet meets it. A link
	// degrade is a term of its core down-port's RateFunc: a transmission
	// starting in [Start, End) serializes at RateFactor times the healthy
	// rate. A hop delay is a term of its aggregation switch's DelayFunc: a
	// packet arriving in [Start, End) pays Extra on top of the switch's
	// processing delay.
	delays := map[*netsim.Node][]netsim.DelayFunc{}
	degrades := map[*netsim.Port][]FaultSpec{}
	for _, f := range spec.sortedFaults() {
		switch f.Kind {
		case FaultLinkDegrade:
			port := ft.CoreDownPort(f.CoreJ, f.CoreI, f.DownPod)
			degrades[port] = append(degrades[port], f)
		case FaultHopDelay:
			node := ft.Aggs[f.AggPod][f.AggIdx]
			start, end := simtime.FromDuration(f.Start), simtime.FromDuration(f.End)
			delays[node] = append(delays[node], func(_ *packet.Packet, now simtime.Time) time.Duration {
				if now.Before(start) || !now.Before(end) {
					return 0
				}
				return f.Extra
			})
		}
	}
	healthy := spec.Topology.LinkBps
	for port, fs := range degrades {
		port.SetRate(func(now simtime.Time) float64 {
			for _, f := range fs { // validated not to overlap
				if t := now.Duration(); f.Start <= t && t < f.End {
					return healthy * f.RateFactor
				}
			}
			return healthy
		})
	}

	// Adversary: a compromised aggregation switch selectively delaying the
	// packets it predicts will go unmeasured, a term of the same DelayFunc.
	if a := spec.Adversary; a != nil {
		node := ft.Aggs[a.AggPod][a.AggIdx]
		start, end := simtime.FromDuration(a.Start), simtime.FromDuration(a.End)
		extra, rate := a.Extra, a.PredictRate
		delays[node] = append(delays[node], func(pk *packet.Packet, now simtime.Time) time.Duration {
			if now.Before(start) || !now.Before(end) {
				return 0
			}
			if pk.Kind != packet.Regular {
				return 0 // RLI references are identifiable on the wire: fly clean
			}
			if measure.PredictPeriodic(pk.ID, rate) {
				return 0 // spare the periodic sampler's predictable subset
			}
			return extra
		})
	}
	for node, terms := range delays {
		node.SetSelectiveDelay(sumDelays(terms))
	}

	// Link-trace replay: one core down-link's extra delay and loss driven by
	// a recorded time series. The drop decision is a pure keyed hash of the
	// packet ID, and the extra delay only ever adds to the configured
	// propagation.
	if l := spec.LinkTrace; l != nil {
		lt, err := l.trace()
		if err != nil {
			return nil, err
		}
		r.emuTrace = lt
		r.emuPort = ft.CoreDownPort(l.CoreJ, l.CoreI, l.DownPod)
		emuSeed := trace.SplitMix64(uint64(seed) ^ linkTraceSeedSalt)
		r.emuPort.SetEmulator(func(pk *packet.Packet, now simtime.Time) (time.Duration, bool) {
			return lt.Emulate(pk.ID, emuSeed, now.Duration())
		})
	}
	return r, nil
}

// sumDelays composes the delay terms one switch is given into its DelayFunc.
func sumDelays(terms []netsim.DelayFunc) netsim.DelayFunc {
	if len(terms) == 1 {
		return terms[0]
	}
	return func(pk *packet.Packet, now simtime.Time) time.Duration {
		var d time.Duration
		for _, t := range terms {
			d += t(pk, now)
		}
		return d
	}
}

// attachSender adds one RLI sender to the deployment; an adaptive one reads
// a meter on its own port.
func (r *fatTreeRun) attachSender(port *netsim.Port, cfg core.SenderConfig) error {
	cfg.Scheme = r.spec.scheme()
	cfg.Util = r.spec.utilization(port)
	s, err := core.AttachSender(port, cfg)
	if err != nil {
		return err
	}
	r.senders = append(r.senders, s)
	return nil
}

// demux builds the downstream strategy under test and the ground-truth
// oracle it is audited against.
func (r *fatTreeRun) demux() (strategy, oracle core.Demux) {
	ft, h := r.ft, r.spec.half()
	od := core.NewOracleDemux()
	for j := 0; j < h; j++ {
		for i := 0; i < h; i++ {
			od.Add(ft.Cores[j][i].ID(), downstreamSenderID(h, j, i))
		}
	}
	switch r.spec.Deploy.Demux {
	case DemuxNone:
		return core.SingleDemux{ID: downstreamSenderID(h, 0, 0)}, od
	case DemuxMark:
		md := core.NewMarkDemux()
		for j := 0; j < h; j++ {
			for i := 0; i < h; i++ {
				md.Add(ft.CoreMark(j, i), downstreamSenderID(h, j, i))
			}
		}
		return md, od
	case DemuxOracle:
		return od, od
	}
	return core.FuncDemux{ // "", DemuxReverseECMP
		Label: "reverse-ecmp",
		F: func(p *packet.Packet) (core.SenderID, bool) {
			j, i, err := ft.ResolveCore(p.Key)
			if err != nil {
				return 0, false
			}
			return downstreamSenderID(h, j, i), true
		},
	}, od
}

// instrument is stage two: the §3.1 deployment plus the measurement plane
// (streaming cap's export capture when non-nil), all attached as taps — no
// event is scheduled here.
func (r *fatTreeRun) instrument(cap *capture) (err error) {
	ft, h := r.ft, r.spec.half()
	interp, _ := r.spec.Deploy.interpolation() // validated
	clock := r.spec.Deploy.ReceiverClock.Clock()

	// The measurement plane. Downstream estimates stream through its
	// collector (upstream receivers keep local tails only, so one flow's
	// fleet aggregate is not a mix of two different segments), and every
	// mechanism the spec requests measures the same downstream (core ->
	// monitored ToR) segment on this single pass: the RLI receivers below
	// implement the measure API directly, and the baselines hang off the
	// plane's dispatch fed from the segment-start (core down-ports) and
	// segment-end (monitored ToR host ports) taps. Every receiver and
	// baseline tap is passive, so the RLI results are bit-identical whether
	// or not baselines attach.
	pl, err := newPlane(r.spec, r.seed, cap)
	if err != nil {
		return err
	}
	r.plane = pl
	defer func() {
		if err != nil {
			pl.release()
		}
	}()

	// Upstream: senders at source-ToR uplinks, receivers at cores (prefix
	// demux on source subnets).
	for _, p := range r.sourcePods {
		for e := 0; e < h; e++ {
			for j := 0; j < h; j++ {
				dsts := make([]packet.Addr, h)
				for i := 0; i < h; i++ {
					dsts[i] = ft.CoreAddr(j, i)
				}
				if err := r.attachSender(ft.ToRUplink(p, e, j), core.SenderConfig{
					ID:        upstreamSenderID(h, p, e, j),
					Addr:      ft.ToRAddr(p, e),
					Receivers: dsts,
				}); err != nil {
					return err
				}
			}
		}
	}
	for j := 0; j < h; j++ {
		for i := 0; i < h; i++ {
			pd := core.NewPrefixDemux()
			for _, p := range r.sourcePods {
				for e := 0; e < h; e++ {
					// Packets reaching core (j,i) from ToR (p,e) crossed that
					// ToR's uplink j by construction of core groups.
					pd.Add(ft.ToRSubnet(p, e), upstreamSenderID(h, p, e, j))
				}
			}
			addr := ft.CoreAddr(j, i)
			rec := &routerRec{}
			rx, err := core.NewReceiver(core.ReceiverConfig{
				Demux:      pd,
				Estimator:  interp,
				Clock:      clock,
				Accept:     func(p *packet.Packet) bool { return p.Kind == packet.Regular },
				AcceptRef:  func(p *packet.Packet) bool { return p.Key.Dst == addr },
				OnEstimate: func(_ packet.FlowKey, est, truth time.Duration) { rec.record(est, truth) },
			})
			if err != nil {
				return err
			}
			ft.Cores[j][i].OnReceive(pl.passive(rx.Observe))
			r.routers = append(r.routers, &routerRx{
				name:    ft.Cores[j][i].Name(),
				segment: "tor-uplink->core",
				rx:      rx,
				rec:     rec,
			})
		}
	}

	// Downstream: a sender at each core down-port toward a monitored pod
	// (references fanned to one anchor host per monitored ToR of that pod)
	// with the segment-start tap beside it, and one receiver per monitored
	// ToR spanning its host ports, demultiplexing with the strategy under
	// test.
	monitored := make([]bool, r.spec.Topology.K*h) // by pod*h + tor
	for _, m := range r.monitored {
		monitored[m[0]*h+m[1]] = true
	}
	startAccept := func(pk *packet.Packet) bool {
		if pk.Kind != packet.Regular {
			return false
		}
		dp, de, _, ok := ft.LocateHost(pk.Key.Dst)
		if !ok || !monitored[dp*h+de] {
			return false
		}
		sp, _, _, sok := ft.LocateHost(pk.Key.Src)
		return sok && sp != dp
	}
	segStart := pl.passive(func(pk *packet.Packet, now simtime.Time) {
		if startAccept(pk) {
			pl.tapStart(pk, now)
		}
	})
	for _, p := range r.monPods {
		var refs []packet.Addr
		for _, m := range r.monitored {
			if m[0] == p {
				refs = append(refs, ft.HostAddr(m[0], m[1], 0))
			}
		}
		for j := 0; j < h; j++ {
			for i := 0; i < h; i++ {
				port := ft.CoreDownPort(j, i, p)
				if err := r.attachSender(port, core.SenderConfig{
					ID:        downstreamSenderID(h, j, i),
					Addr:      ft.CoreAddr(j, i),
					Receivers: refs,
				}); err != nil {
					return err
				}
				port.OnTxStart(segStart)
			}
		}
	}

	strategy, oracle := r.demux()
	for _, m := range r.monitored {
		p, e := m[0], m[1]
		rec := &routerRec{}
		counting := &countingDemux{inner: strategy, oracle: oracle}
		r.countings = append(r.countings, counting)
		accept := func(pk *packet.Packet) bool {
			// Inter-pod regular traffic only: packets from inside the pod
			// never cross a core, so no reference stream measures them.
			sp, _, _, ok := ft.LocateHost(pk.Key.Src)
			return pk.Kind == packet.Regular && ok && sp != p
		}
		rli, err := measure.NewRLI(ft.ToRs[p][e].Name(), core.ReceiverConfig{
			Demux:     counting,
			Estimator: interp,
			Clock:     clock,
			Accept:    accept,
			OnEstimate: func(key packet.FlowKey, est, truth time.Duration) {
				rec.record(est, truth)
				pl.estimate(key, est, truth)
			},
		})
		if err != nil {
			return err
		}
		// One record per packet serves both of the ToR's segment-end taps.
		segEnd := pl.passive(func(pk *packet.Packet, now simtime.Time) {
			rli.Tap(pk, now)
			if accept(pk) {
				pl.tapEnd(pk, now)
				if r.repArrivals != nil {
					// Every regular packet is a copy of a pair.
					r.repArrivals[pk.ID] = now
				}
			}
		})
		for hh := 0; hh < h; hh++ {
			port := ft.ToRHostPort(p, e, hh)
			port.OnTxStart(segEnd)
			r.endPorts = append(r.endPorts, port)
		}
		r.routers = append(r.routers, &routerRx{
			name:    ft.ToRs[p][e].Name(),
			segment: "core->tor",
			rx:      rli.Receiver(),
			rec:     rec,
			tor:     m,
			rli:     rli,
		})
	}
	return nil
}

// inject is stage three: the spec's traffic pattern as one pulled source,
// generated ahead on the plane's producer while the simulator makes each
// packet as the network pulls it. The map the consumer fills is made here,
// before the run.
func (r *fatTreeRun) inject() {
	if r.spec.Workload.Replicate {
		r.repArrivals = map[uint64]simtime.Time{}
	}
	produce, build := r.workload()
	r.plane.pull(r.nw, produce, build)
}

// workload returns the run's workload as its two halves. produce generates
// the trace and remaps each record onto fat-tree hosts; it runs on the
// producer. build makes each record's packet — and a replicated workload's
// copy — on the simulator, where packet IDs are the network-wide dense
// counter, in generation order.
func (r *fatTreeRun) workload() (produce func(*workRec) bool, build func(*workRec) (pk, dup *packet.Packet)) {
	spec, nw, ft := r.spec, r.nw, r.ft
	k, h := spec.Topology.K, spec.half()
	q, e0 := spec.destPod(), spec.Workload.DestToR
	lb := spec.Topology.LinkBps

	var targetBps float64
	switch spec.Workload.Pattern {
	case PatternIncast:
		targetBps = spec.Workload.LoadFrac * lb
	case PatternAllPairs:
		targetBps = spec.Workload.LoadFrac * lb * float64(h) * float64(k*h)
	default: // converging, hotspot
		targetBps = spec.Workload.LoadFrac * lb * float64(h)
	}
	gen := spec.burstGate(trace.NewGenerator(spec.traceConfig(r.seed, targetBps*spec.dutyBoost())), r.seed)

	// Incast source host list: the first IncastFanIn hosts outside the
	// destination pod, in (pod, tor, host) order.
	var incastSrc []packet.Addr
	if spec.Workload.Pattern == PatternIncast {
		for p := 0; p < k && len(incastSrc) < spec.Workload.IncastFanIn; p++ {
			if p == q {
				continue
			}
			for e := 0; e < h && len(incastSrc) < spec.Workload.IncastFanIn; e++ {
				for hh := 0; hh < h && len(incastSrc) < spec.Workload.IncastFanIn; hh++ {
					incastSrc = append(incastSrc, ft.HostAddr(p, e, hh))
				}
			}
		}
	}
	hotPod := (q + 1) % k // hotspot: every skewed flow sources under this pod's ToR 0

	produce = func(w *workRec) bool {
		rec, ok := gen.Next()
		if !ok {
			return false
		}
		hash := rec.Key.FastHash()
		key := rec.Key
		switch spec.Workload.Pattern {
		case PatternAllPairs:
			sp := int(hash % uint64(k))
			se := int(hash >> 8 % uint64(h))
			sh := int(hash >> 16 % uint64(h))
			dp := int(hash >> 24 % uint64(k-1))
			if dp >= sp {
				dp++ // inter-pod only: same-pod pairs never cross a core
			}
			de := int(hash >> 32 % uint64(h))
			dh := int(hash >> 40 % uint64(h))
			key.Src = ft.HostAddr(sp, se, sh)
			key.Dst = ft.HostAddr(dp, de, dh)
		case PatternIncast:
			key.Src = incastSrc[int(hash%uint64(len(incastSrc)))]
			key.Dst = ft.HostAddr(q, e0, 0)
		case PatternHotspot:
			dh := int(hash >> 24 % uint64(h))
			key.Dst = ft.HostAddr(q, e0, dh)
			// A HotspotSkew fraction of flows source under the hot ToR.
			if float64(hash>>40&0xFFFF)/65536.0 < spec.Workload.HotspotSkew {
				key.Src = ft.HostAddr(hotPod, 0, int(hash>>16%uint64(h)))
			} else {
				sp := int(hash % uint64(k-1))
				if sp >= q {
					sp++
				}
				key.Src = ft.HostAddr(sp, int(hash>>8%uint64(h)), int(hash>>16%uint64(h)))
			}
		default: // converging
			sp := int(hash % uint64(k-1))
			if sp >= q {
				sp++
			}
			se := int(hash >> 8 % uint64(h))
			sh := int(hash >> 16 % uint64(h))
			dh := int(hash >> 24 % uint64(h))
			key.Src = ft.HostAddr(sp, se, sh)
			key.Dst = ft.HostAddr(q, e0, dh)
		}
		sp, se, sh, ok := ft.LocateHost(key.Src)
		if !ok {
			panic(fmt.Sprintf("scenario: remapped source %v is not a fat-tree host", key.Src))
		}
		*w = workRec{at: rec.At, host: ft.Hosts[sp][se][sh], key: key, size: rec.Size}
		return true
	}

	var slab packet.Slab
	build = func(w *workRec) (*packet.Packet, *packet.Packet) {
		pk := slab.New()
		*pk = packet.Packet{ID: nw.NewPacketID(), Key: w.key, Size: w.size, Kind: packet.Regular}
		r.injected++
		if !spec.Workload.Replicate {
			return pk, nil
		}
		// RepFlow-style replica: the same payload under a source port
		// differing in one bit, so ECMP usually hashes the copy onto a
		// different core path. First arrival wins at harvest.
		rkey := w.key
		rkey.SrcPort ^= 1
		rp := slab.New()
		*rp = packet.Packet{ID: nw.NewPacketID(), Key: rkey, Size: w.size, Kind: packet.Regular}
		r.injected++
		oj, oi, oerr := ft.ResolveCore(w.key)
		rj, ri, rerr := ft.ResolveCore(rkey)
		r.repPairs = append(r.repPairs, repPair{
			orig:     pk.ID,
			rep:      rp.ID,
			at:       w.at,
			distinct: oerr == nil && rerr == nil && (oj != rj || oi != ri),
		})
		return pk, rp
	}
	return produce, build
}

// run is stage four: the engine runs to empty beside the plane's passive
// consumer, which has drained when run returns.
func (r *fatTreeRun) run() { r.plane.run(func() { r.nw.Engine().Run() }) }

// harvest is stage five: it folds the receivers into the Result while the
// plane folds its estimators, collector and capture beside them.
func (r *fatTreeRun) harvest() (*Result, error) {
	res := &Result{Spec: r.spec, Seed: r.seed, Injected: r.injected}
	if err := r.plane.harvest(res, func() measure.Report { return r.foldReceivers(res) }); err != nil {
		return nil, err
	}
	if spec := r.spec; spec.Adversary != nil {
		// Detection needs a paired clean run: the same spec and seed minus
		// the adversary, so every difference between the two results is the
		// compromised switch's doing. Telemetry and fleet re-scoring do not
		// move the comparison table, so the clean run skips them.
		clean := spec
		clean.Adversary = nil
		clean.Telemetry = nil
		clean.Fleet = nil
		cleanRes, err := runFatTree(clean, r.seed, nil)
		if err != nil {
			return nil, err
		}
		res.Detection = buildDetection(*spec.Adversary, res, cleanRes)
	}
	return res, nil
}

// foldReceivers is harvest's half on the caller's goroutine: the senders'
// and receivers' counters, per-router and per-segment accuracy, and the
// run's link reports. It returns the comparison table's RLI row, the fleet
// merge of every monitored ToR's receiver.
func (r *fatTreeRun) foldReceivers(res *Result) measure.Report {
	spec := r.spec
	var upResults, downResults []core.FlowResult
	var rliReps []measure.Report
	var estAll, trueAll stats.Histogram
	type segKey struct{ j, i, p, e int }
	segFlows := map[segKey][]core.FlowResult{}
	for _, s := range r.senders {
		res.Sender.Add(s.Counters())
	}
	for _, rr := range r.routers {
		res.Receiver.Add(rr.rx.Counters())
		results := rr.rx.Results(1)
		rs := RouterStats{Router: rr.name, Segment: rr.segment, Summary: core.Summarize(results)}
		rr.rec.fill(&rs)
		res.Routers = append(res.Routers, rs)
		if rr.rli == nil {
			upResults = append(upResults, results...)
			continue
		}
		downResults = append(downResults, results...)
		rliReps = append(rliReps, rr.rli.ReportFrom(results))
		estAll.Merge(&rr.rec.estH)
		trueAll.Merge(&rr.rec.trueH)
		for _, fr := range results {
			j, i, err := r.ft.ResolveCore(fr.Key)
			if err != nil {
				continue
			}
			sk := segKey{j, i, rr.tor[0], rr.tor[1]}
			segFlows[sk] = append(segFlows[sk], fr)
		}
	}
	sort.Slice(res.Routers, func(a, b int) bool { return res.Routers[a].Router < res.Routers[b].Router })
	res.Results = downResults
	res.Overall = core.Summarize(downResults)
	res.Upstream = core.Summarize(upResults)
	res.EstP50, res.EstP99 = estAll.Quantile(0.5), estAll.Quantile(0.99)
	res.TrueP50, res.TrueP99 = trueAll.Quantile(0.5), trueAll.Quantile(0.99)
	res.Misattribution = misattribution(r.countings)

	for sk, frs := range segFlows {
		name := fmt.Sprintf("core%d.%d->tor%d.%d", sk.j, sk.i, sk.p, sk.e)
		res.Segments = append(res.Segments, segmentStats(name, frs))
	}
	sort.Slice(res.Segments, func(a, b int) bool { return res.Segments[a].Name < res.Segments[b].Name })

	// Hottest monitored access link.
	for _, port := range r.endPorts {
		c := port.Counters()
		u := simtime.Rate(int64(c.TxBytes), 0, simtime.FromDuration(spec.Duration)) / spec.Topology.LinkBps
		if u > res.HotLinkUtil {
			res.HotLinkUtil = u
		}
	}

	if spec.LinkTrace != nil {
		res.LinkTrace = buildLinkTraceReport(*spec.LinkTrace, r.emuTrace, r.emuPort.Counters().EmuDrops)
	}
	if spec.Workload.Replicate {
		res.RepFlow = buildRepFlow(r.repPairs, r.repArrivals)
	}
	return measure.MergeReports("rli", rliReps...)
}

// segmentStats folds one core->ToR segment's flows.
func segmentStats(name string, frs []core.FlowResult) SegmentStats {
	seg := SegmentStats{Name: name, Flows: len(frs)}
	var estW, trueW float64
	errs := make([]float64, 0, len(frs))
	for _, fr := range frs {
		seg.Estimates += fr.N
		estW += float64(fr.EstMean) * float64(fr.N)
		trueW += float64(fr.TrueMean) * float64(fr.N)
		errs = append(errs, fr.RelErrMean)
	}
	if seg.Estimates > 0 {
		seg.EstMean = time.Duration(estW / float64(seg.Estimates))
		seg.TrueMean = time.Duration(trueW / float64(seg.Estimates))
	}
	seg.MedianRelErr = stats.NewCDF(errs).Median()
	return seg
}
