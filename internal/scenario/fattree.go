package scenario

import (
	"fmt"
	"sort"
	"time"

	"github.com/netmeasure/rlir/internal/collector"
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

// routerRx pairs a receiver with its identity and tail accumulators. A core
// folds its flows in up; a monitored ToR streams them to the plane's
// collector.
type routerRx struct {
	name string
	rx   *core.Receiver
	rec  *routerRec
	up   *measure.RLI // nil on the monitored ToRs
	tor  [2]int
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
	// refs counts the reference packets the monitored ToRs' segment-end
	// taps saw: the RLI row's overhead.
	refs measure.Overhead

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
	res, err := r.harvest()
	if err == nil {
		err = res.Diagnostics.count(r.nw)
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// buildFatTree is stage one: the engine, the topology, and everything the
// spec does to the network itself — path skew, fault windows and link-trace
// replay as port Links, the hop-delay fault and the compromised switch as
// selective delays: no event is scheduled here.
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
					w := port.Link().(netsim.Wire)
					w.Propagation += time.Duration(j*h+i) * skew
					port.SetLink(w)
				}
			}
		}
	}

	// Faults, each a pure function of the instant a packet meets it. A link
	// degrade wraps its core down-port's Link (windows validated not to
	// overlap): a transmission starting in [Start, End) serializes at
	// RateFactor times the rate beneath. A hop delay is a term of its
	// aggregation switch's DelayFunc: a packet arriving in [Start, End) pays
	// Extra on top of the switch's processing delay.
	delays := map[*netsim.Node][]netsim.DelayFunc{}
	for _, f := range spec.sortedFaults() {
		switch f.Kind {
		case FaultLinkDegrade:
			port := ft.CoreDownPort(f.CoreJ, f.CoreI, f.DownPod)
			port.SetLink(degraded{port.Link(), f})
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
		r.emuPort.SetLink(traced{r.emuPort.Link(), lt, trace.SplitMix64(uint64(seed) ^ linkTraceSeedSalt)})
	}
	return r, nil
}

// degraded is one link-degrade fault over the link beneath.
type degraded struct {
	netsim.Link
	f FaultSpec
}

func (d degraded) Rate(start simtime.Time) float64 {
	if t := start.Duration(); d.f.Start <= t && t < d.f.End {
		return d.Link.Rate(start) * d.f.RateFactor
	}
	return d.Link.Rate(start)
}

// traced is link-trace replay over the link beneath.
type traced struct {
	netsim.Link
	lt   *trace.LinkTrace
	seed uint64
}

func (t traced) Flight(p *packet.Packet, end simtime.Time) (time.Duration, bool) {
	d, drop := t.Link.Flight(p, end)
	extra, lost := t.lt.Emulate(p.ID, t.seed, end.Duration())
	return d + extra, drop || lost
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
	// collector, the one fold of their flows (upstream receivers fold their
	// own, so one flow's fleet aggregate is not a mix of two different
	// segments), and every mechanism the spec requests measures the same
	// downstream (core -> monitored ToR) segment on this single pass: the
	// RLI row is built from the collector's flows, and the baselines hang
	// off the plane's dispatch fed from the segment-start (core down-ports)
	// and segment-end (monitored ToR host ports) taps. Every receiver and
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
			up, err := measure.NewRLI(core.ReceiverConfig{
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
			ft.Cores[j][i].OnReceive(pl.passive(up.Receiver().Observe))
			r.routers = append(r.routers, &routerRx{name: ft.Cores[j][i].Name(), rx: up.Receiver(), rec: rec, up: up})
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
		rr := &routerRx{name: ft.ToRs[p][e].Name(), rec: &routerRec{}, tor: m}
		counting := &countingDemux{inner: strategy, oracle: oracle}
		r.countings = append(r.countings, counting)
		accept := func(pk *packet.Packet) bool {
			// Inter-pod regular traffic only: packets from inside the pod
			// never cross a core, so no reference stream measures them.
			sp, _, _, ok := ft.LocateHost(pk.Key.Src)
			return pk.Kind == packet.Regular && ok && sp != p
		}
		rx, err := core.NewReceiver(core.ReceiverConfig{
			Demux:     counting,
			Estimator: interp,
			Clock:     clock,
			Accept:    accept,
			OnEstimate: func(key packet.FlowKey, est, truth time.Duration) {
				rr.rec.record(est, truth)
				pl.estimate(key, est, truth)
			},
		})
		if err != nil {
			return err
		}
		rr.rx = rx
		// One record per packet serves both of the ToR's segment-end taps.
		segEnd := pl.passive(func(pk *packet.Packet, now simtime.Time) {
			if pk.Kind == packet.Reference {
				r.refs.InjectedPkts++
				r.refs.InjectedBytes += uint64(pk.Size)
			}
			rx.Observe(pk, now)
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
		r.routers = append(r.routers, rr)
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
	if err := r.plane.harvest(res, r.foldReceivers); err != nil {
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

// foldReceivers is harvest's half on the caller's goroutine: counters, the
// cores' upstream flows and the run's link reports, then, from the
// collector's rows, per-segment, per-router and overall downstream accuracy.
// Each flow's error is sorted once, in its finest group; a summary over a
// union merges its parts' sorted runs. It returns the references the
// monitored ToRs saw, the RLI row's overhead.
func (r *fatTreeRun) foldReceivers(res *Result, rows func() []collector.FlowAgg) measure.Overhead {
	spec := r.spec
	for _, s := range r.senders {
		res.Sender.Add(s.Counters())
	}
	var upstream core.Run
	down := r.routers[len(r.routers)-len(r.monitored):] // in r.monitored order
	for _, rr := range r.routers {
		res.Receiver.Add(rr.rx.Counters())
		if rr.up == nil {
			continue
		}
		run := rr.up.Run()
		rs := RouterStats{Router: rr.name, Segment: "tor-uplink->core", Summary: run.Summary()}
		rr.rec.fill(&rs)
		res.Routers = append(res.Routers, rs)
		upstream = upstream.Merge(run)
	}
	res.Upstream = upstream.Summary()
	res.Misattribution = misattribution(r.countings)

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

	// Group the collector's key-sorted rows twice with stable counting
	// sorts, so every group stays in key order: by the monitored ToR each
	// flow ends under, in down's order, for Results; and within each ToR by
	// the core its path came down, the segment, with the flows no core
	// resolves in a last part of their own.
	flows, h := rows(), spec.half()
	cores := h * h
	parts := cores + 1                     // per ToR
	slot := make([]int, spec.Topology.K*h) // down's index by pod*h + tor
	for t, rr := range down {
		slot[rr.tor[0]*h+rr.tor[1]] = t
	}
	partOf := make([]int32, len(flows)) // ToR t's part c is t*parts + c
	torEnd := make([]int, len(down)+1)  // ToR t's next slot; its share's end once placed
	partEnd := make([]int, len(down)*parts+1)
	for i := range flows {
		key := flows[i].Key
		p, e, _, _ := r.ft.LocateHost(key.Dst)
		t, c := slot[p*h+e], cores
		if j, ci, err := r.ft.ResolveCore(key); err == nil {
			c = j*h + ci
		}
		partOf[i] = int32(t*parts + c)
		torEnd[t+1]++
		partEnd[t*parts+c+1]++
	}
	for t := range down {
		torEnd[t+1] += torEnd[t]
	}
	for p := range len(down) * parts {
		partEnd[p+1] += partEnd[p]
	}
	downResults := make([]core.FlowResult, len(flows))
	byPart := make([]int32, len(flows)) // indexes into downResults
	for i := range flows {
		p := partOf[i]
		t := p / int32(parts)
		downResults[torEnd[t]] = core.FlowResultOf(flows[i].Key, &flows[i].Est, &flows[i].True)
		byPart[partEnd[p]] = int32(torEnd[t])
		torEnd[t]++
		partEnd[p]++
	}

	var overall core.Run
	var estAll, trueAll stats.Sketch
	start := 0
	for t, rr := range down {
		var run core.Run
		for c := range parts {
			idx := byPart[start:partEnd[t*parts+c]]
			start += len(idx)
			if len(idx) == 0 {
				continue
			}
			part := core.RunFunc(len(idx), func(i int) *core.FlowResult { return &downResults[idx[i]] })
			run = run.Merge(part)
			if c == cores {
				continue
			}
			seg := SegmentStats{Name: fmt.Sprintf("core%d.%d->tor%d.%d", c/h, c%h, rr.tor[0], rr.tor[1]), Summary: part.Summary()}
			var estW float64
			for _, i := range idx {
				estW += float64(downResults[i].EstMean) * float64(downResults[i].N)
			}
			seg.EstMean = time.Duration(estW / float64(seg.Summary.Estimates))
			res.Segments = append(res.Segments, seg)
		}
		rs := RouterStats{Router: rr.name, Segment: "core->tor", Summary: run.Summary()}
		rr.rec.fill(&rs)
		res.Routers = append(res.Routers, rs)
		estAll.Merge(&rr.rec.est)
		trueAll.Merge(&rr.rec.truth)
		overall = overall.Merge(run)
	}
	sort.Slice(res.Routers, func(a, b int) bool { return res.Routers[a].Router < res.Routers[b].Router })
	sort.Slice(res.Segments, func(a, b int) bool { return res.Segments[a].Name < res.Segments[b].Name })
	res.Results = downResults
	res.Overall = overall.Summary()
	res.EstP50, res.EstP99 = estAll.QuantileDuration(0.5), estAll.QuantileDuration(0.99)
	res.TrueP50, res.TrueP99 = trueAll.QuantileDuration(0.5), trueAll.QuantileDuration(0.99)
	return r.refs
}
