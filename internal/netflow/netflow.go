// Package netflow implements flow metering in the style of YAF/NetFlow: the
// substrate the paper's simulator is built around (§4.1 cites YAF [2]) and
// the data source for the Multiflow baseline estimator [12], which exploits
// "the two timestamps already stored on a per-flow basis within NetFlow".
//
// A Meter observes packets at one measurement point and maintains per-flow
// records carrying first/last packet timestamps and packet/byte counts.
// Records expire by idle timeout or active (maximum lifetime) timeout and
// are handed to an export callback, as in a real flow exporter.
package netflow

import (
	"fmt"
	"time"

	"github.com/netmeasure/rlir/internal/packet"
	"github.com/netmeasure/rlir/internal/simtime"
)

// Record is one flow's accumulated state at a measurement point.
type Record struct {
	Key     packet.FlowKey
	First   simtime.Time
	Last    simtime.Time
	Packets uint64
	Bytes   uint64
}

// Duration returns the observed flow duration.
func (r Record) Duration() time.Duration { return r.Last.Sub(r.First) }

func (r Record) String() string {
	return fmt.Sprintf("flow{%s pkts=%d bytes=%d span=[%v,%v]}", r.Key, r.Packets, r.Bytes, r.First, r.Last)
}

// Config sets the meter's expiry behaviour.
type Config struct {
	// IdleTimeout expires a flow with no traffic for this long. Zero
	// disables idle expiry.
	IdleTimeout time.Duration
	// ActiveTimeout expires (and re-opens) a flow that has been active
	// longer than this, as NetFlow does to bound record latency. Zero
	// disables active expiry.
	ActiveTimeout time.Duration
	// Export receives expired records. May be nil.
	Export func(Record)
}

// Meter accumulates flow records from observed packets.
type Meter struct {
	cfg    Config
	flows  map[packet.FlowKey]*Record
	slab   []Record // backing for new flows' records, carved in order
	seen   uint64
	expire uint64
}

// NewMeter creates a meter.
func NewMeter(cfg Config) *Meter {
	return &Meter{cfg: cfg, flows: make(map[packet.FlowKey]*Record)}
}

// Observe feeds one packet observation.
func (m *Meter) Observe(key packet.FlowKey, size int, at simtime.Time) {
	m.seen++
	r, ok := m.flows[key]
	if !ok {
		// First packet of a flow is a hot event (tens of thousands per run
		// across a deployment's meters), so records are carved from a slab
		// instead of allocated one by one. A full slab is abandoned to the
		// map's pointers and replaced, so carved addresses never move.
		if len(m.slab) == cap(m.slab) {
			m.slab = make([]Record, 0, 128)
		}
		m.slab = append(m.slab, Record{Key: key, First: at})
		r = &m.slab[len(m.slab)-1]
		m.flows[key] = r
	}
	r.Last = at
	r.Packets++
	r.Bytes += uint64(size)
}

// Sweep expires flows per the configured timeouts as of instant now and
// returns how many were expired. Call it periodically (e.g. from an
// eventsim ticker).
func (m *Meter) Sweep(now simtime.Time) int {
	var expired int
	for k, r := range m.flows {
		idle := m.cfg.IdleTimeout > 0 && now.Sub(r.Last) >= m.cfg.IdleTimeout
		active := m.cfg.ActiveTimeout > 0 && now.Sub(r.First) >= m.cfg.ActiveTimeout
		if idle || active {
			m.export(*r)
			delete(m.flows, k)
			expired++
		}
	}
	m.expire += uint64(expired)
	return expired
}

// FlushAll expires every remaining flow (end of measurement interval).
func (m *Meter) FlushAll() int {
	n := len(m.flows)
	for k, r := range m.flows {
		m.export(*r)
		delete(m.flows, k)
	}
	m.expire += uint64(n)
	return n
}

func (m *Meter) export(r Record) {
	if m.cfg.Export != nil {
		m.cfg.Export(r)
	}
}

// BatchExport adapts a batch-oriented sink (the collector plane's natural
// ingest unit, like a NetFlow export packet carrying many records) to the
// Meter's per-record Export callback. Records buffer until n accumulate,
// then sink receives the batch; flush hands over any partial batch — call it
// after FlushAll ends the measurement interval. The slice passed to sink is
// reused across batches, so the sink must copy or encode before returning
// (collector.Ingest and the wire encoders both do).
func BatchExport(n int, sink func([]Record)) (export func(Record), flush func()) {
	if n < 1 {
		n = 1
	}
	buf := make([]Record, 0, n)
	export = func(r Record) {
		buf = append(buf, r)
		if len(buf) >= n {
			sink(buf)
			buf = buf[:0]
		}
	}
	flush = func() {
		if len(buf) > 0 {
			sink(buf)
			buf = buf[:0]
		}
	}
	return export, flush
}

// Active returns the number of open flow records.
func (m *Meter) Active() int { return len(m.flows) }

// Lookup returns a copy of the open record for key.
func (m *Meter) Lookup(key packet.FlowKey) (Record, bool) {
	r, ok := m.flows[key]
	if !ok {
		return Record{}, false
	}
	return *r, true
}

// Seen returns total packets observed.
func (m *Meter) Seen() uint64 { return m.seen }

// Expired returns total records expired (including FlushAll).
func (m *Meter) Expired() uint64 { return m.expire }

// Snapshot returns copies of all open records, in unspecified order.
func (m *Meter) Snapshot() []Record {
	out := make([]Record, 0, len(m.flows))
	for _, r := range m.flows {
		out = append(out, *r)
	}
	return out
}
