package netsim

import (
	"time"

	"github.com/netmeasure/rlir/internal/packet"
	"github.com/netmeasure/rlir/internal/simtime"
)

// UtilMeter estimates the utilization of a port's link with a periodically
// sampled exponentially weighted moving average — the "estimated link
// utilization at the interface" an RLI sender adapts its injection rate to
// (paper §1, §3.2). Crucially, it sees only the bytes leaving its own port:
// it is structurally blind to cross traffic joining at downstream queues,
// which is exactly the failure mode the paper studies.
//
// The meter schedules nothing. The port's byte count only moves when a
// packet starts transmission, so the meter folds every period boundary up to
// that instant from an OnTxStart tap, before the packet's bytes count, and
// again whenever Utilization is read: each boundary sees exactly the bytes a
// sampling event at that instant would have seen.
type UtilMeter struct {
	port   *Port
	alpha  float64
	period time.Duration

	next      simtime.Time // the next period boundary to fold (Never before Start)
	lastBytes uint64
	lastAt    simtime.Time
	ewma      float64
	sampled   bool
}

// NewUtilMeter creates a meter over port with the given sampling period and
// EWMA smoothing factor alpha in (0, 1]; alpha = 1 keeps only the latest
// window.
func NewUtilMeter(port *Port, period time.Duration, alpha float64) *UtilMeter {
	if period <= 0 {
		panic("netsim: UtilMeter requires a positive period")
	}
	if alpha <= 0 || alpha > 1 {
		panic("netsim: UtilMeter alpha must be in (0,1]")
	}
	return &UtilMeter{port: port, alpha: alpha, period: period, next: simtime.Never}
}

// Start begins sampling: the first period boundary is one period after the
// network engine's current instant. It attaches the meter's tap to the port.
func (m *UtilMeter) Start() {
	now := m.port.node.net.eng.Now()
	m.lastBytes = m.port.ctr.TxBytes
	m.lastAt = now
	m.next = now.Add(m.period)
	m.port.OnTxStart(func(_ *packet.Packet, now simtime.Time) { m.fold(now) })
}

// fold samples every period boundary at or before now.
func (m *UtilMeter) fold(now simtime.Time) {
	for ; m.next <= now; m.next = m.next.Add(m.period) {
		cur := m.port.ctr.TxBytes
		inst := simtime.Rate(int64(cur-m.lastBytes), m.lastAt, m.next) / m.port.link.Rate(m.next)
		if inst > 1 {
			inst = 1
		}
		if !m.sampled {
			m.ewma = inst
			m.sampled = true
		} else {
			m.ewma = m.alpha*inst + (1-m.alpha)*m.ewma
		}
		m.lastBytes = cur
		m.lastAt = m.next
	}
}

// Utilization returns the current EWMA estimate in [0, 1], folded up to the
// engine's current instant. Before the first period boundary it returns 0,
// which makes a freshly started adaptive sender begin at its most aggressive
// rate — matching the paper's observation that low estimated utilization
// triggers the highest injection rate.
func (m *UtilMeter) Utilization() float64 {
	m.fold(m.port.node.net.eng.Now())
	return m.ewma
}
