package scenario

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"
)

func validSpec() Spec {
	s := DefaultSpec()
	s.Duration = 50 * time.Millisecond
	return s
}

func TestValidateAcceptsDefault(t *testing.T) {
	if err := validSpec().Validate(); err != nil {
		t.Fatalf("default spec invalid: %v", err)
	}
}

// TestValidateRejections walks the spec's whole rejection surface: every
// malformed field must fail validation with a message naming the problem.
func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Spec)
		want string // substring of the expected error
	}{
		{"wrong version", func(s *Spec) { s.Version = 99 }, "version"},
		{"zero duration", func(s *Spec) { s.Duration = 0 }, "duration"},
		{"negative duration", func(s *Spec) { s.Duration = -time.Second }, "duration"},
		{"unknown topology", func(s *Spec) { s.Topology.Kind = "ring" }, "topology kind"},
		{"odd K", func(s *Spec) { s.Topology.K = 5 }, "even"},
		{"K too small", func(s *Spec) { s.Topology.K = 2 }, "core paths"},
		{"K too big", func(s *Spec) { s.Topology.K = 256 }, "address plan"},
		{"negative link rate", func(s *Spec) { s.Topology.LinkBps = -1 }, "rate"},
		{"zero link rate", func(s *Spec) { s.Topology.LinkBps = 0 }, "rate"},
		{"negative propagation", func(s *Spec) { s.Topology.Propagation = -time.Microsecond }, "negative topology delay"},
		{"negative core skew", func(s *Spec) { s.Topology.CoreSkew = -1 }, "negative topology delay"},
		{"negative queue", func(s *Spec) { s.Topology.QueueBytes = -1 }, "queue"},
		{"zero load", func(s *Spec) { s.Workload.LoadFrac = 0 }, "load fraction"},
		{"absurd load", func(s *Spec) { s.Workload.LoadFrac = 5 }, "load fraction"},
		{"negative flow alpha", func(s *Spec) { s.Workload.FlowAlpha = -0.5 }, "flow-length"},
		{"unknown pattern", func(s *Spec) { s.Workload.Pattern = "broadcast" }, "pattern"},
		{"incast without fan-in", func(s *Spec) { s.Workload.Pattern = PatternIncast }, "fan-in"},
		{"incast fan-in too big", func(s *Spec) {
			s.Workload.Pattern = PatternIncast
			s.Workload.IncastFanIn = 1000
		}, "fan-in"},
		{"hotspot without skew", func(s *Spec) { s.Workload.Pattern = PatternHotspot }, "skew"},
		{"hotspot skew over 1", func(s *Spec) {
			s.Workload.Pattern = PatternHotspot
			s.Workload.HotspotSkew = 1.5
		}, "skew"},
		{"burst on without period", func(s *Spec) { s.Workload.BurstOn = time.Millisecond }, "burst"},
		{"burst on exceeds period", func(s *Spec) {
			s.Workload.BurstOn = 2 * time.Millisecond
			s.Workload.BurstPeriod = time.Millisecond
		}, "burst"},
		{"dest pod out of range", func(s *Spec) { s.Workload.DestPod = 4 }, "destination pod"},
		{"dest tor out of range", func(s *Spec) { s.Workload.DestToR = 2 }, "destination ToR"},
		{"unknown scheme", func(s *Spec) { s.Deploy.Scheme = "fibonacci" }, "scheme"},
		{"inverted adaptive gaps", func(s *Spec) {
			s.Deploy.Scheme = SchemeAdaptive
			s.Deploy.MinGap, s.Deploy.MaxGap = 300, 10
		}, "adaptive gaps"},
		// An unset gap takes its default: each of these validated and then
		// panicked in the sender.
		{"max gap under the default min", func(s *Spec) {
			s.Deploy.Scheme = SchemeAdaptive
			s.Deploy.MaxGap = 5
		}, "built as [10, 5]"},
		{"min gap over the default max", func(s *Spec) {
			s.Deploy.Scheme = SchemeAdaptive
			s.Deploy.MinGap = 400
		}, "built as [400, 300]"},
		{"negative static gap", func(s *Spec) { s.Deploy.StaticN = -3 }, "negative static gap"},
		{"unknown demux", func(s *Spec) { s.Deploy.Demux = "clairvoyant" }, "demux"},
		// A fat-tree has no uninstrumented form: same text as any unknown
		// scheme, listing only the two it runs.
		{"no sender on a fat-tree", func(s *Spec) { s.Deploy.Scheme = SchemeNone }, `injection scheme "none" (valid: static, adaptive)`},
		{"unknown scheme on a tandem", func(s *Spec) {
			s.Topology = TopologySpec{Kind: TopoTandem, LinkBps: 1e9}
			s.Deploy.Scheme = "fibonacci"
		}, "(valid: static, adaptive, none)"},
		{"unknown interpolation", func(s *Spec) { s.Deploy.Interpolation = "cubic" }, `estimator "cubic" (valid: linear, left, right, nearest)`},
		{"negative sync interval", func(s *Spec) { s.Deploy.ReceiverClock = &ClockSpec{SyncInterval: -1} }, "negative receiver clock"},
		{"jitter without sync", func(s *Spec) { s.Deploy.ReceiverClock = &ClockSpec{SyncJitter: time.Microsecond} }, "needs a sync_interval_ns"},
		{"offset on a PTP clock", func(s *Spec) {
			s.Deploy.ReceiverClock = &ClockSpec{Offset: time.Microsecond, SyncInterval: time.Millisecond}
		}, "does not apply"},
		{"budget too small", func(s *Spec) { s.Deploy.MaxInstances = 3 }, "budget"},
		{"unknown fault kind", func(s *Spec) {
			s.Faults = []FaultSpec{{Kind: "power-cut", Start: 1, End: 2}}
		}, "unknown kind"},
		{"fault core out of grid", func(s *Spec) {
			s.Faults = []FaultSpec{{Kind: FaultLinkDegrade, CoreJ: 7, RateFactor: 0.5, Start: 1, End: 2}}
		}, "core grid"},
		{"fault agg out of range", func(s *Spec) {
			s.Faults = []FaultSpec{{Kind: FaultHopDelay, AggPod: 9, Extra: time.Microsecond, Start: 1, End: 2}}
		}, "aggregation switch"},
		{"fault empty window", func(s *Spec) {
			s.Faults = []FaultSpec{{Kind: FaultHopDelay, Extra: time.Microsecond, Start: 5, End: 5}}
		}, "window"},
		{"fault negative start", func(s *Spec) {
			s.Faults = []FaultSpec{{Kind: FaultHopDelay, Extra: time.Microsecond, Start: -1, End: 2}}
		}, "window"},
		{"fault past run end", func(s *Spec) {
			s.Faults = []FaultSpec{{Kind: FaultHopDelay, Extra: time.Microsecond, Start: 0, End: time.Hour}}
		}, "past"},
		{"degrade factor out of range", func(s *Spec) {
			s.Faults = []FaultSpec{{Kind: FaultLinkDegrade, RateFactor: 1.5, Start: 1, End: 2}}
		}, "rate factor"},
		{"degrade pod out of range", func(s *Spec) {
			s.Faults = []FaultSpec{{Kind: FaultLinkDegrade, RateFactor: 0.5, DownPod: 9, Start: 1, End: 2}}
		}, "down-pod"},
		{"hop delay without extra", func(s *Spec) {
			s.Faults = []FaultSpec{{Kind: FaultHopDelay, Start: 1, End: 2}}
		}, "non-positive delay"},
		{"overlapping fault windows", func(s *Spec) {
			s.Faults = []FaultSpec{
				{Kind: FaultHopDelay, Extra: time.Microsecond, Start: 0, End: 10 * time.Millisecond},
				{Kind: FaultHopDelay, Extra: 2 * time.Microsecond, Start: 5 * time.Millisecond, End: 15 * time.Millisecond},
			}
		}, "overlaps"},
		{"faults on tandem", func(s *Spec) {
			s.Topology = TopologySpec{Kind: TopoTandem, LinkBps: 1e9}
			s.Faults = []FaultSpec{{Kind: FaultHopDelay, Extra: time.Microsecond, Start: 1, End: 2}}
		}, "fattree"},
		{"unknown cross model", func(s *Spec) {
			s.Topology = TopologySpec{Kind: TopoTandem, LinkBps: 1e9}
			s.Workload.CrossModel = "fractal"
		}, `cross model "fractal" (valid: uniform, bursty, none)`},
		{"cross util over 1", func(s *Spec) {
			s.Topology = TopologySpec{Kind: TopoTandem, LinkBps: 1e9}
			s.Workload.CrossUtil = 1.2
		}, "cross utilization"},
		// The deprecated engine fields select nothing, but they are outside
		// input until they are deleted.
		{"unknown engine", func(s *Spec) { s.Engine = "optimistic" }, "unknown engine"},
		{"partitions without parallel", func(s *Spec) { s.Partitions = 2 }, "requires engine"},
		{"partitions over K+1", func(s *Spec) { s.Engine, s.Partitions = EngineParallel, 6 }, "partitions 6 outside"},
		{"negative partitions", func(s *Spec) { s.Engine, s.Partitions = EngineParallel, -1 }, "partitions -1 outside"},
		{"parallel on tandem", func(s *Spec) {
			s.Topology = TopologySpec{Kind: TopoTandem, LinkBps: 1e9}
			s.Engine = EngineParallel
		}, "requires a fattree"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := validSpec()
			tc.mut(&s)
			err := s.Validate()
			if err == nil {
				t.Fatalf("Validate accepted a spec with %s", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestClockSpecShapes pins the ClockSpec -> simtime clock mapping A3's row
// labels are read from.
func TestClockSpecShapes(t *testing.T) {
	for _, tc := range []struct {
		c    *ClockSpec
		want string
	}{
		{nil, "perfect"},
		{&ClockSpec{}, "perfect"},
		{&ClockSpec{Offset: 10 * time.Microsecond}, "offset(10µs)"},
		{&ClockSpec{DriftPPM: 10}, "drift(0s,10.00ppm)"},
		{&ClockSpec{Offset: time.Microsecond, DriftPPM: -5}, "drift(1µs,-5.00ppm)"},
		{&ClockSpec{DriftPPM: 10, SyncInterval: 100 * time.Millisecond, SyncJitter: 500 * time.Nanosecond}, "ptp(10.00ppm,sync=100ms,jitter=500ns)"},
	} {
		if got := tc.c.Clock().Name(); got != tc.want {
			t.Errorf("%+v.Clock() = %s, want %s", tc.c, got, tc.want)
		}
	}
}

// TestFaultWindowsSameSiteOnly pins that the overlap check is per site:
// simultaneous faults at different cores are legal.
func TestFaultWindowsSameSiteOnly(t *testing.T) {
	s := validSpec()
	s.Faults = []FaultSpec{
		{Kind: FaultHopDelay, AggPod: 0, AggIdx: 0, Extra: time.Microsecond, Start: 0, End: 10 * time.Millisecond},
		{Kind: FaultHopDelay, AggPod: 1, AggIdx: 1, Extra: time.Microsecond, Start: 0, End: 10 * time.Millisecond},
		{Kind: FaultLinkDegrade, CoreJ: 0, CoreI: 0, DownPod: 3, RateFactor: 0.5, Start: 0, End: 10 * time.Millisecond},
		// Back-to-back windows at one site are adjacent, not overlapping.
		{Kind: FaultHopDelay, AggPod: 0, AggIdx: 0, Extra: time.Microsecond, Start: 10 * time.Millisecond, End: 20 * time.Millisecond},
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("disjoint-site faults rejected: %v", err)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	s := validSpec()
	s.Name = "round-trip"
	s.Faults = []FaultSpec{{Kind: FaultHopDelay, AggPod: 1, AggIdx: 0, Extra: 250 * time.Microsecond,
		Start: time.Millisecond, End: 2 * time.Millisecond}}
	// Pod 0 is the value the -1 "last pod" decode default must not swallow.
	pod0 := s
	pod0.Workload.DestPod = 0
	for _, s := range []Spec{s, pod0} {
		data, err := s.EncodeJSON()
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeJSON(data)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, s) {
			t.Fatalf("round trip changed the spec:\n in: %+v\nout: %+v", s, got)
		}
		if got.destPod() != s.destPod() {
			t.Fatalf("round trip moved the monitored pod from %d to %d", s.destPod(), got.destPod())
		}
	}
}

// TestDecodeJSONDestPodDefault pins the documented default: a spec that
// omits dest_pod monitors the LAST pod (the -1 sentinel), while an
// explicit "dest_pod": 0 still selects pod 0.
func TestDecodeJSONDestPodDefault(t *testing.T) {
	base := `{"version":1,
		"topology":{"kind":"fattree","k":4,"link_bps":1e9},
		"workload":{"load_frac":0.5%s},
		"deploy":{"scheme":"static"},
		"duration_ns":1000000,"seed":1}`
	omitted, err := DecodeJSON([]byte(fmt.Sprintf(base, "")))
	if err != nil {
		t.Fatal(err)
	}
	if omitted.Workload.DestPod != -1 || omitted.destPod() != 3 {
		t.Fatalf("omitted dest_pod = %d (resolves to pod %d), want sentinel -1 -> pod 3",
			omitted.Workload.DestPod, omitted.destPod())
	}
	explicit, err := DecodeJSON([]byte(fmt.Sprintf(base, `,"dest_pod":0`)))
	if err != nil {
		t.Fatal(err)
	}
	if explicit.destPod() != 0 {
		t.Fatalf("explicit dest_pod 0 resolves to pod %d, want 0", explicit.destPod())
	}
}

func TestDecodeJSONRejectsInvalid(t *testing.T) {
	if _, err := DecodeJSON([]byte("{")); err == nil {
		t.Fatal("malformed JSON accepted")
	}
	if _, err := DecodeJSON([]byte(`{"version": 1, "topology": {"kind": "ring"}}`)); err == nil {
		t.Fatal("invalid spec accepted")
	}
	// A misspelled knob must fail loudly, not silently run a different
	// scenario than the one written.
	data, err := validSpec().EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	bad := strings.Replace(string(data), `"load_frac"`, `"load_fraction"`, 1)
	if _, err := DecodeJSON([]byte(bad)); err == nil {
		t.Fatal("unknown spec field accepted")
	}
}

// TestInstancesBudget pins the deployment-size arithmetic the budget check
// uses: for k=4 converging, 3 source pods x 2 ToRs x 2 uplink senders,
// 4 core receivers, 4 downstream core senders, 1 ToR receiver.
func TestInstancesBudget(t *testing.T) {
	s := validSpec()
	if got, want := s.Instances(), 3*2*2+4+4+1; got != want {
		t.Fatalf("Instances() = %d, want %d", got, want)
	}
	s.Deploy.MaxInstances = s.Instances()
	if err := s.Validate(); err != nil {
		t.Fatalf("exact budget rejected: %v", err)
	}
	s.Deploy.MaxInstances--
	if err := s.Validate(); err == nil {
		t.Fatal("over-budget deployment accepted")
	}
	all := s
	all.Deploy.MaxInstances = 0
	all.Workload.Pattern = PatternAllPairs
	// allpairs: 8 source ToRs x 2 uplinks, 4 cores, 4 pods x 4 core
	// down-senders, 8 ToR receivers.
	if got, want := all.Instances(), 8*2+4+4*4+8; got != want {
		t.Fatalf("allpairs Instances() = %d, want %d", got, want)
	}
}
