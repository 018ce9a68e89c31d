package core

import (
	"testing"
	"time"

	"github.com/netmeasure/rlir/internal/eventsim"
	"github.com/netmeasure/rlir/internal/netsim"
	"github.com/netmeasure/rlir/internal/packet"
	"github.com/netmeasure/rlir/internal/simtime"
	"github.com/netmeasure/rlir/internal/trace"
)

// tandem wires the paper's Figure 3: a traffic source feeding switch1,
// cross traffic merging at switch2, RLI sender on switch1's egress and
// receiver at switch2's egress.
type tandem struct {
	eng      *eventsim.Engine
	nw       *netsim.Network
	sw1, sw2 *netsim.Node
	sink     *netsim.Node
	sender   *Sender
	receiver *Receiver
}

func newTandem(t *testing.T, scheme InjectionScheme, linkBps float64, queueBytes int) *tandem {
	t.Helper()
	td := &tandem{eng: eventsim.New()}
	td.nw = netsim.New(td.eng)
	td.sw1 = td.nw.AddNode(netsim.NodeConfig{Name: "sw1", ProcDelay: 500 * time.Nanosecond})
	td.sw2 = td.nw.AddNode(netsim.NodeConfig{Name: "sw2", ProcDelay: 500 * time.Nanosecond})
	td.sink = td.nw.AddNode(netsim.NodeConfig{Name: "sink"})
	td.nw.Connect(td.sw1, td.sw2, netsim.LinkConfig{RateBps: linkBps, Propagation: time.Microsecond, QueueBytes: queueBytes})
	td.nw.Connect(td.sw2, td.sink, netsim.LinkConfig{RateBps: linkBps, Propagation: time.Microsecond, QueueBytes: queueBytes})
	out0 := func(n *netsim.Node, p *packet.Packet) int { return 0 }
	td.sw1.SetForward(out0)
	td.sw2.SetForward(out0)

	var err error
	td.sender, err = AttachSender(td.sw1.Port(0), SenderConfig{
		ID:        1,
		Addr:      packet.MustParseAddr("10.1.255.254"),
		Receivers: []packet.Addr{packet.MustParseAddr("10.200.255.254")},
		Scheme:    scheme,
	})
	if err != nil {
		t.Fatal(err)
	}
	td.receiver, err = NewReceiver(ReceiverConfig{
		Demux:  SingleDemux{ID: 1},
		Accept: func(p *packet.Packet) bool { return p.Kind == packet.Regular },
	})
	if err != nil {
		t.Fatal(err)
	}
	td.sw2.Port(0).OnTxStart(td.receiver.Observe)
	return td
}

func (td *tandem) replay(src trace.Source, kind packet.Kind, into *netsim.Node) int {
	n := 0
	for {
		rec, ok := src.Next()
		if !ok {
			return n
		}
		p := &packet.Packet{
			ID: td.nw.NewPacketID(), Key: rec.Key, Size: rec.Size, Kind: kind,
		}
		td.nw.Inject(into, p, rec.At)
		n++
	}
}

// warmedCfg builds a stationary workload config for the tandem tests.
func warmedCfg(seed int64, dur time.Duration, bps float64, src string) trace.Config {
	cfg := trace.DefaultConfig()
	cfg.Seed = seed
	cfg.Duration = dur
	cfg.TargetBps = bps
	cfg.FlowLen.Max = 400
	cfg.Warmup = cfg.StationaryWarmup()
	if src != "" {
		cfg.SrcPrefix = packet.MustParsePrefix(src)
	}
	return cfg
}

func TestTandemEndToEndAccuracy(t *testing.T) {
	// Heavy congestion at switch2 from merged cross traffic; verify the
	// receiver's per-flow mean estimates track ground truth closely.
	td := newTandem(t, Static{N: 50}, 100e6, 256<<10)

	reg := warmedCfg(11, 400*time.Millisecond, 22e6, "") // 22% of 100 Mbps
	cross := warmedCfg(22, 400*time.Millisecond, 68e6, "172.16.0.0/16")

	td.replay(trace.NewGenerator(reg), packet.Regular, td.sw1)
	td.replay(trace.NewGenerator(cross), packet.Cross, td.sw2)
	td.eng.Run()

	c := td.receiver.Counters()
	if c.RefsSeen == 0 {
		t.Fatal("no reference packets arrived")
	}
	if c.Estimated == 0 {
		t.Fatal("no estimates produced")
	}
	if c.Filtered == 0 {
		t.Fatal("cross traffic should have been filtered at the receiver")
	}

	results := td.receiver.Results(1)
	if len(results) < 50 {
		t.Fatalf("only %d flows measured", len(results))
	}
	sum := Summarize(results)
	if sum.MedianRelErr > 0.6 {
		t.Fatalf("median relative error %.3f too high: estimation broken", sum.MedianRelErr)
	}
	// Ground-truth delays must be positive and include queueing.
	if sum.TrueMeanDelay <= 0 {
		t.Fatalf("true mean delay = %v", sum.TrueMeanDelay)
	}
}

func TestTandemDenseFlowsEstimateBetter(t *testing.T) {
	// Flows with many packets average out interpolation noise: their mean
	// relative error should beat single-packet flows'.
	td := newTandem(t, Static{N: 50}, 100e6, 256<<10)
	reg := trace.DefaultConfig()
	reg.Duration = 400 * time.Millisecond
	reg.TargetBps = 40e6
	reg.Seed = 33
	td.replay(trace.NewGenerator(reg), packet.Regular, td.sw1)
	td.eng.Run()

	all := td.receiver.Results(1)
	dense := td.receiver.Results(20)
	if len(dense) == 0 || len(all) <= len(dense) {
		t.Skipf("degenerate split: %d all, %d dense", len(all), len(dense))
	}
	if MeanErrCDF(dense).Median() > MeanErrCDF(all).Median()*1.5 {
		t.Fatalf("dense flows estimate worse (%.3f) than all flows (%.3f)",
			MeanErrCDF(dense).Median(), MeanErrCDF(all).Median())
	}
}

func TestTandemHigherInjectionRateMoreAccurate(t *testing.T) {
	// The paper's core observation (Fig 4a): more reference packets, lower
	// relative error. 1-and-10 must beat 1-and-300 on the same workload.
	// Stationary (warmed-up) traffic keeps the bottleneck out of degenerate
	// all-or-nothing plateaus, and the duration gives the sparse scheme a
	// meaningful number of interpolation windows.
	run := func(scheme InjectionScheme) float64 {
		td := newTandem(t, scheme, 100e6, 256<<10)
		reg := trace.DefaultConfig()
		reg.Duration = 600 * time.Millisecond
		reg.TargetBps = 22e6
		reg.Seed = 44
		reg.FlowLen.Max = 400
		reg.Warmup = reg.StationaryWarmup()
		cross := trace.DefaultConfig()
		cross.Duration = 600 * time.Millisecond
		cross.TargetBps = 55e6
		cross.Seed = 55
		cross.SrcPrefix = packet.MustParsePrefix("172.16.0.0/16")
		cross.FlowLen.Max = 400
		cross.Warmup = cross.StationaryWarmup()
		td.replay(trace.NewGenerator(reg), packet.Regular, td.sw1)
		td.replay(trace.NewGenerator(cross), packet.Cross, td.sw2)
		td.eng.Run()
		return Summarize(td.receiver.Results(1)).MedianRelErr
	}
	aggressive := run(Static{N: 10})
	sparse := run(Static{N: 300})
	if aggressive >= sparse {
		t.Fatalf("1-and-10 median err %.4f should beat 1-and-300's %.4f", aggressive, sparse)
	}
}

func TestTandemReferenceDelaysAreExact(t *testing.T) {
	// Reference packet delay computed by the receiver must equal the
	// simulator's ground truth for the same packet: hardware timestamp at
	// tx start, receiver clock at observation, perfect sync.
	td := newTandem(t, Static{N: 5}, 1e9, 0)
	reg := trace.DefaultConfig()
	reg.Duration = 10 * time.Millisecond
	reg.TargetBps = 50e6
	td.replay(trace.NewGenerator(reg), packet.Regular, td.sw1)

	// Independent check tap at the same observation point.
	var maxDiff time.Duration
	td.sw2.Port(0).OnTxStart(func(p *packet.Packet, now simtime.Time) {
		if p.Kind != packet.Reference {
			return
		}
		measured := p.Ref.Delay(now)
		truth := now.Sub(p.SegmentStart)
		diff := measured - truth
		if diff < 0 {
			diff = -diff
		}
		if diff > maxDiff {
			maxDiff = diff
		}
	})
	td.eng.Run()
	if td.receiver.Counters().RefsSeen == 0 {
		t.Fatal("no refs observed")
	}
	if maxDiff != 0 {
		t.Fatalf("reference delay deviates from ground truth by %v", maxDiff)
	}
}

func TestTandemEstimateBracketedByRefDelays(t *testing.T) {
	// System-level convexity: every per-packet estimate lies within the
	// [min,max] of all reference delays seen (linear interpolation cannot
	// extrapolate).
	td := newTandem(t, Static{N: 20}, 100e6, 128<<10)
	reg := trace.DefaultConfig()
	reg.Duration = 100 * time.Millisecond
	reg.TargetBps = 60e6
	var n int
	var maxEst time.Duration
	td.receiver.cfg.OnEstimate = func(_ packet.FlowKey, est, _ time.Duration) {
		n++
		if est > maxEst {
			maxEst = est
		}
	}
	td.replay(trace.NewGenerator(reg), packet.Regular, td.sw1)
	td.eng.Run()

	if n == 0 {
		t.Fatal("no estimates")
	}
	// All reference delays pass through the same span; estimates are
	// convex combinations, so the largest estimate cannot exceed the largest
	// reference delay, which stays below the queue drain bound (queue bytes /
	// rate + serialization + prop + proc).
	bound := time.Duration(float64(128<<10*8)/100e6*float64(time.Second)) +
		2*time.Millisecond // generous slack for serialization chains
	if maxEst > bound {
		t.Fatalf("estimate %v exceeds physical bound %v", maxEst, bound)
	}
}

func TestTandemDeterminism(t *testing.T) {
	run := func() (uint64, float64) {
		td := newTandem(t, Static{N: 25}, 100e6, 64<<10)
		reg := trace.DefaultConfig()
		reg.Duration = 50 * time.Millisecond
		reg.TargetBps = 70e6
		reg.Seed = 99
		td.replay(trace.NewGenerator(reg), packet.Regular, td.sw1)
		td.eng.Run()
		s := Summarize(td.receiver.Results(1))
		return td.receiver.Counters().Estimated, s.MedianRelErr
	}
	n1, m1 := run()
	n2, m2 := run()
	if n1 != n2 || m1 != m2 {
		t.Fatalf("nondeterministic: (%d,%v) vs (%d,%v)", n1, m1, n2, m2)
	}
}
