package core

import (
	"fmt"

	"github.com/netmeasure/rlir/internal/netsim"
	"github.com/netmeasure/rlir/internal/packet"
	"github.com/netmeasure/rlir/internal/simtime"
)

// SenderID identifies an RLI sender instance network-wide. It rides in the
// reference packet payload so receivers can demultiplex reference streams.
type SenderID = uint32

// RLIPort is the UDP port reference packets are addressed to.
const RLIPort = 9544

// DefaultRefSize is the reference packet frame size: minimum-size frames
// perturb the measured queues least.
const DefaultRefSize = packet.MinSize

// UtilizationSource supplies the sender's view of its own link utilization.
// netsim.UtilMeter implements it; tests substitute fixed values.
type UtilizationSource interface {
	Utilization() float64
}

// FixedUtilization is a constant UtilizationSource.
type FixedUtilization float64

// Utilization implements UtilizationSource.
func (f FixedUtilization) Utilization() float64 { return float64(f) }

// SenderConfig configures an RLI sender instance.
type SenderConfig struct {
	// ID is the instance identity carried in reference payloads.
	ID SenderID
	// Addr is the address of the interface the sender sits on; reference
	// packets use it as their source.
	Addr packet.Addr
	// Receivers lists the destinations of the reference fan-out: one
	// reference packet per receiver per injection event. Under RLIR a
	// sender references every receiver its traffic can reach ("each sender
	// sends reference packets to all intermediate receivers", §3.1).
	Receivers []packet.Addr
	// Scheme is the injection scheme (static or adaptive).
	Scheme InjectionScheme
	// Util is the utilization estimate driving an adaptive scheme. nil is
	// treated as zero utilization (most aggressive adaptive gap).
	Util UtilizationSource
	// Clock is the sender's local clock used for hardware timestamps.
	Clock simtime.Clock
	// RefSize overrides the reference frame size (default DefaultRefSize).
	RefSize int
	// CountKinds selects which transiting packets advance the 1-and-n
	// counter. Empty means Regular and Cross (everything that is not a
	// reference packet), matching a hardware implementation that counts
	// frames, not flows.
	CountKinds []packet.Kind
}

// SenderCounters reports a sender's activity.
type SenderCounters struct {
	Counted  uint64 // packets that advanced the 1-and-n counter
	Injected uint64 // reference packets injected (fan-out counted per copy)
	Events   uint64 // injection events (one per gap expiry)
}

// Add sums o into c (a deployment's senders into one view).
func (c *SenderCounters) Add(o SenderCounters) {
	c.Counted += o.Counted
	c.Injected += o.Injected
	c.Events += o.Events
}

// Sender is an RLI sender instance attached to a netsim port.
type Sender struct {
	cfg      SenderConfig
	port     *netsim.Port
	seq      uint32
	sinceRef int
	ctr      SenderCounters
	countAll bool
	counts   [3]bool
}

// AttachSender installs an RLI sender on port. It observes every frame at
// transmit start (egress hardware timestamping semantics), stamps ground
// truth segment starts, and injects reference packets into the same port.
func AttachSender(port *netsim.Port, cfg SenderConfig) (*Sender, error) {
	if cfg.Scheme == nil {
		return nil, fmt.Errorf("core: sender %d has no injection scheme", cfg.ID)
	}
	if len(cfg.Receivers) == 0 {
		return nil, fmt.Errorf("core: sender %d has no receivers", cfg.ID)
	}
	if cfg.Clock == nil {
		cfg.Clock = simtime.PerfectClock{}
	}
	if cfg.RefSize == 0 {
		cfg.RefSize = DefaultRefSize
	}
	if cfg.RefSize < packet.MinSize || cfg.RefSize > packet.MaxSize {
		return nil, fmt.Errorf("core: reference size %d out of range", cfg.RefSize)
	}
	s := &Sender{cfg: cfg, port: port}
	if len(cfg.CountKinds) == 0 {
		s.countAll = true
	} else {
		for _, k := range cfg.CountKinds {
			if k == packet.Reference {
				return nil, fmt.Errorf("core: reference packets cannot advance the injection counter")
			}
			s.counts[k] = true
		}
	}
	port.OnTxStart(s.onTxStart)
	return s, nil
}

// Counters returns a snapshot of the sender's counters.
func (s *Sender) Counters() SenderCounters { return s.ctr }

// ID returns the sender's identity.
func (s *Sender) ID() SenderID { return s.cfg.ID }

// CurrentGap returns the 1-and-n gap the scheme chooses right now.
func (s *Sender) CurrentGap() int { return s.cfg.Scheme.Gap(s.utilization()) }

func (s *Sender) utilization() float64 {
	if s.cfg.Util == nil {
		return 0
	}
	return s.cfg.Util.Utilization()
}

// onTxStart runs for every frame beginning transmission on the port.
func (s *Sender) onTxStart(p *packet.Packet, now simtime.Time) {
	if p.Kind == packet.Reference {
		if p.Ref.Sender == s.cfg.ID {
			// Hardware egress timestamping: the wire timestamp is written
			// the instant the frame starts serializing, after any queueing
			// it suffered behind regular traffic.
			p.Ref.Timestamp = s.cfg.Clock.Read(now)
			p.SegmentStart = now
		}
		// Foreign reference packets transit untouched and uncounted.
		return
	}
	// Ground truth: this packet's measured segment starts here.
	p.SegmentStart = now
	if !s.countAll && !s.counts[p.Kind] {
		return
	}
	s.ctr.Counted++
	s.sinceRef++
	if s.sinceRef < s.cfg.Scheme.Gap(s.utilization()) {
		return
	}
	s.sinceRef = 0
	s.ctr.Events++
	s.seq++
	for _, dst := range s.cfg.Receivers {
		ref := &packet.Packet{
			ID:   s.port.Node().NewPacketID(),
			Kind: packet.Reference,
			Size: s.cfg.RefSize,
			Key: packet.FlowKey{
				Src:     s.cfg.Addr,
				Dst:     dst,
				SrcPort: RLIPort,
				DstPort: RLIPort,
				Proto:   packet.ProtoUDP,
			},
			Ref: packet.RefPayload{Sender: s.cfg.ID, Seq: s.seq},
		}
		s.ctr.Injected++
		s.port.Enqueue(ref)
	}
}
