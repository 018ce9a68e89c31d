// Package netflow implements flow metering in the style of YAF/NetFlow: the
// substrate the paper's simulator is built around (§4.1 cites YAF [2]) and
// the data source for the Multiflow baseline estimator [12], which exploits
// "the two timestamps already stored on a per-flow basis within NetFlow".
//
// A Meter observes packets at one measurement point and maintains per-flow
// records carrying first/last packet timestamps and packet/byte counts.
// Records stay open for the whole measurement interval (a simulation run);
// Sorted reads them out at its end.
package netflow

import (
	"fmt"
	"sync"
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

// Meter accumulates flow records from observed packets. One goroutine
// observes; Sorted may then be called from any number of goroutines.
type Meter struct {
	flows map[packet.FlowKey]*Record
	slabs [][]Record // backing for new flows' records, carved in order
	seen  uint64

	// sorted is the key-sorted run Sorted built when seen was sortedAt.
	mu       sync.Mutex
	sorted   []Record
	sortedAt uint64
}

// NewMeter creates a meter.
func NewMeter() *Meter {
	return &Meter{flows: make(map[packet.FlowKey]*Record)}
}

// Observe feeds one packet observation.
func (m *Meter) Observe(key packet.FlowKey, size int, at simtime.Time) {
	m.seen++
	r, ok := m.flows[key]
	if !ok {
		// First packet of a flow is a hot event (tens of thousands per run
		// across a deployment's meters), so records are carved from a slab
		// instead of allocated one by one. A full slab is followed by a new
		// one, so carved addresses never move, and the slabs hold every
		// record in first-packet order.
		n := len(m.slabs)
		if n == 0 || len(m.slabs[n-1]) == cap(m.slabs[n-1]) {
			m.slabs = append(m.slabs, make([]Record, 0, 128))
			n++
		}
		m.slabs[n-1] = append(m.slabs[n-1], Record{Key: key, First: at})
		r = &m.slabs[n-1][len(m.slabs[n-1])-1]
		m.flows[key] = r
	}
	r.Last = at
	r.Packets++
	r.Bytes += uint64(size)
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

// Sorted returns copies of all open records sorted by flow key. The run is
// built once per observed state and shared: every call until the next
// Observe returns the same slice, which callers must not modify.
func (m *Meter) Sorted() []Record {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.sorted == nil || m.sortedAt != m.seen {
		m.sorted = make([]Record, 0, len(m.flows))
		for _, slab := range m.slabs {
			m.sorted = append(m.sorted, slab...)
		}
		packet.SortByKey(m.sorted, func(r *Record) packet.FlowKey { return r.Key })
		m.sortedAt = m.seen
	}
	return m.sorted
}
