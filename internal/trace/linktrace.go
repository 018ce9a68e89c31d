package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Link-trace format: a recorded per-link time series of extra one-way delay
// and loss probability, replayed by the simulator instead of a synthetic
// distribution. Two interchangeable encodings, both tracegen-producible:
//
//	JSON: {"version":1,"samples":[{"t_ns":0,"delay_ns":50000,"loss":0.01},...]}
//	CSV:  t_ns,delay_ns,loss        (header required, one row per sample)
//
// Rows are a step function: sample i is in effect from t_ns[i] until the
// next row, and the last row holds forever. Timestamps are offsets from
// trace start and must be strictly increasing; delay must be >= 0, loss in
// [0, 1], and no field may be NaN or infinite. ParseLinkTrace rejects any
// violation with an error naming the offending row — it never panics, which
// the FuzzParseLinkTrace target enforces.

// LinkSample is one row of a link trace: the link's extra delay and drop
// probability from instant At (offset from trace start) until the next row.
type LinkSample struct {
	// At is the offset from trace start at which this row takes effect.
	At time.Duration
	// Delay is extra one-way delay added on top of the link's configured
	// propagation while the row is in effect.
	Delay time.Duration
	// Loss is the probability in [0, 1] that the link drops a packet.
	Loss float64
}

// LinkTrace is a parsed link time series. The zero value (no samples) is an
// identity emulator: no extra delay, no loss.
type LinkTrace struct {
	// Samples holds the rows in strictly increasing At order.
	Samples []LinkSample
}

// At returns the row in effect at offset d: the last sample with At <= d,
// or a zero sample before the first row.
func (lt *LinkTrace) At(d time.Duration) LinkSample {
	i := sort.Search(len(lt.Samples), func(i int) bool { return lt.Samples[i].At > d })
	if i == 0 {
		return LinkSample{}
	}
	return lt.Samples[i-1]
}

// Emulate evaluates the trace for one packet: the extra delay in effect at
// offset d, and a seeded keyed-hash drop decision against the row's loss
// probability. The decision is a pure function of (pktID, seed, row), so
// replay is deterministic and independent of evaluation order.
func (lt *LinkTrace) Emulate(pktID, seed uint64, d time.Duration) (extra time.Duration, drop bool) {
	s := lt.At(d)
	if s.Loss > 0 {
		// Map the keyed hash to [0, 1) and drop below the loss probability.
		u := float64(SplitMix64(pktID^seed)>>11) / float64(1<<53)
		if u < s.Loss {
			return 0, true
		}
	}
	return s.Delay, false
}

// Duration returns the offset of the last row (the point after which the
// trace holds its final value), or zero for an empty trace.
func (lt *LinkTrace) Duration() time.Duration {
	if len(lt.Samples) == 0 {
		return 0
	}
	return lt.Samples[len(lt.Samples)-1].At
}

// NewLinkTrace builds a trace from in-memory rows, applying the same
// validation as the file parser (strictly increasing offsets, delay >= 0,
// finite loss in [0, 1], at least one row). Scenario specs carrying inline
// rows route through it.
func NewLinkTrace(samples []LinkSample) (*LinkTrace, error) {
	lt := &LinkTrace{}
	for i, s := range samples {
		if err := lt.append(s.At.Nanoseconds(), s.Delay.Nanoseconds(), s.Loss); err != nil {
			return nil, fmt.Errorf("trace: link trace sample %d: %w", i, err)
		}
	}
	return lt.finish()
}

// linkTraceJSON is the JSON encoding of a link trace.
type linkTraceJSON struct {
	Version int              `json:"version"`
	Samples []linkSampleJSON `json:"samples"`
}

type linkSampleJSON struct {
	TNs     int64   `json:"t_ns"`
	DelayNs int64   `json:"delay_ns"`
	Loss    float64 `json:"loss"`
}

// LinkTraceVersion is the current link-trace file format version.
const LinkTraceVersion = 1

// ParseLinkTrace parses a link trace in either encoding, sniffing JSON by
// its leading '{'. Every structural or semantic violation — unknown fields,
// truncation, out-of-order or duplicate timestamps, negative delay, loss
// outside [0, 1], NaN or infinite values — is an error; the parser never
// panics on any input.
func ParseLinkTrace(data []byte) (*LinkTrace, error) {
	trimmed := bytes.TrimLeft(data, " \t\r\n")
	if len(trimmed) == 0 {
		return nil, fmt.Errorf("trace: empty link trace")
	}
	if trimmed[0] == '{' {
		return parseLinkTraceJSON(trimmed)
	}
	return parseLinkTraceCSV(trimmed)
}

func parseLinkTraceJSON(data []byte) (*LinkTrace, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var f linkTraceJSON
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("trace: link trace JSON: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("trace: link trace JSON: trailing data after document")
	}
	if f.Version != LinkTraceVersion {
		return nil, fmt.Errorf("trace: link trace version %d (supported: %d)", f.Version, LinkTraceVersion)
	}
	lt := &LinkTrace{}
	for i, s := range f.Samples {
		if err := lt.append(s.TNs, s.DelayNs, s.Loss); err != nil {
			return nil, fmt.Errorf("trace: link trace sample %d: %w", i, err)
		}
	}
	return lt.finish()
}

func parseLinkTraceCSV(data []byte) (*LinkTrace, error) {
	lines := strings.Split(string(data), "\n")
	if strings.TrimRight(lines[0], "\r") != "t_ns,delay_ns,loss" {
		return nil, fmt.Errorf("trace: link trace CSV: missing header %q", "t_ns,delay_ns,loss")
	}
	lt := &LinkTrace{}
	for i, line := range lines[1:] {
		line = strings.TrimRight(line, "\r")
		if line == "" {
			continue
		}
		fields := strings.Split(line, ",")
		if len(fields) != 3 {
			return nil, fmt.Errorf("trace: link trace CSV row %d: %d fields (want 3: t_ns,delay_ns,loss)", i+1, len(fields))
		}
		tNs, err := strconv.ParseInt(strings.TrimSpace(fields[0]), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("trace: link trace CSV row %d: t_ns: %v", i+1, err)
		}
		delayNs, err := strconv.ParseInt(strings.TrimSpace(fields[1]), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("trace: link trace CSV row %d: delay_ns: %v", i+1, err)
		}
		loss, err := strconv.ParseFloat(strings.TrimSpace(fields[2]), 64)
		if err != nil {
			return nil, fmt.Errorf("trace: link trace CSV row %d: loss: %v", i+1, err)
		}
		if err := lt.append(tNs, delayNs, loss); err != nil {
			return nil, fmt.Errorf("trace: link trace CSV row %d: %w", i+1, err)
		}
	}
	return lt.finish()
}

// append validates one decoded row and adds it to the trace.
func (lt *LinkTrace) append(tNs, delayNs int64, loss float64) error {
	if tNs < 0 {
		return fmt.Errorf("t_ns %d < 0", tNs)
	}
	if n := len(lt.Samples); n > 0 && time.Duration(tNs) <= lt.Samples[n-1].At {
		return fmt.Errorf("t_ns %d not strictly increasing (previous %d)", tNs, lt.Samples[n-1].At.Nanoseconds())
	}
	if delayNs < 0 {
		return fmt.Errorf("delay_ns %d < 0", delayNs)
	}
	if math.IsNaN(loss) || math.IsInf(loss, 0) {
		return fmt.Errorf("loss %v is not finite", loss)
	}
	if loss < 0 || loss > 1 {
		return fmt.Errorf("loss %v outside [0, 1]", loss)
	}
	lt.Samples = append(lt.Samples, LinkSample{
		At:    time.Duration(tNs),
		Delay: time.Duration(delayNs),
		Loss:  loss,
	})
	return nil
}

func (lt *LinkTrace) finish() (*LinkTrace, error) {
	if len(lt.Samples) == 0 {
		return nil, fmt.Errorf("trace: link trace has no samples")
	}
	return lt, nil
}

// EncodeJSON renders the trace in the JSON encoding ParseLinkTrace accepts.
func (lt *LinkTrace) EncodeJSON() ([]byte, error) {
	f := linkTraceJSON{Version: LinkTraceVersion, Samples: make([]linkSampleJSON, len(lt.Samples))}
	for i, s := range lt.Samples {
		f.Samples[i] = linkSampleJSON{TNs: s.At.Nanoseconds(), DelayNs: s.Delay.Nanoseconds(), Loss: s.Loss}
	}
	return json.MarshalIndent(f, "", "  ")
}

// EncodeCSV renders the trace in the CSV encoding ParseLinkTrace accepts.
func (lt *LinkTrace) EncodeCSV() []byte {
	var b strings.Builder
	b.WriteString("t_ns,delay_ns,loss\n")
	for _, s := range lt.Samples {
		fmt.Fprintf(&b, "%d,%d,%g\n", s.At.Nanoseconds(), s.Delay.Nanoseconds(), s.Loss)
	}
	return []byte(b.String())
}

// LinkTraceConfig configures synthetic link-trace generation — the
// deterministic stand-in for a recorded link time series (tracegen's link
// emit mode).
type LinkTraceConfig struct {
	// Seed drives the deterministic delay/loss walk.
	Seed int64
	// Duration is the span the rows cover.
	Duration time.Duration
	// Step is the row spacing.
	Step time.Duration
	// BaseDelay is the floor every row's delay sits on.
	BaseDelay time.Duration
	// MaxExtra bounds the random delay excursion above BaseDelay.
	MaxExtra time.Duration
	// MaxLoss bounds each row's loss probability.
	MaxLoss float64
}

// Validate checks the config.
func (c LinkTraceConfig) Validate() error {
	if c.Duration <= 0 {
		return fmt.Errorf("trace: link trace duration %v <= 0", c.Duration)
	}
	if c.Step <= 0 {
		return fmt.Errorf("trace: link trace step %v <= 0", c.Step)
	}
	if c.BaseDelay < 0 || c.MaxExtra < 0 {
		return fmt.Errorf("trace: negative link trace delay bounds (base %v, extra %v)", c.BaseDelay, c.MaxExtra)
	}
	if math.IsNaN(c.MaxLoss) || c.MaxLoss < 0 || c.MaxLoss > 1 {
		return fmt.Errorf("trace: link trace max loss %v outside [0, 1]", c.MaxLoss)
	}
	return nil
}

// GenLinkTrace synthesizes a link trace from the config: a seeded bounded
// random walk over delay with occasional loss episodes, one row per Step.
// The same config always produces the same trace.
func GenLinkTrace(c LinkTraceConfig) (*LinkTrace, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	lt := &LinkTrace{}
	state := uint64(c.Seed)
	// level walks in [0, 1]; loss episodes trigger on a keyed coin.
	level := 0.5
	for at := time.Duration(0); at <= c.Duration; at += c.Step {
		state = SplitMix64(state + splitmix64Gamma)
		stepU := float64(state>>11)/float64(1<<53)*2 - 1 // [-1, 1)
		level += 0.35 * stepU
		if level < 0 {
			level = -level
		}
		if level > 1 {
			level = 2 - level
		}
		state = SplitMix64(state + splitmix64Gamma)
		lossU := float64(state>>11) / float64(1<<53)
		loss := 0.0
		if lossU < 0.2 { // a fifth of the rows are loss episodes
			loss = c.MaxLoss * lossU * 5
		}
		lt.Samples = append(lt.Samples, LinkSample{
			At:    at,
			Delay: c.BaseDelay + time.Duration(level*float64(c.MaxExtra)),
			Loss:  loss,
		})
	}
	return lt, nil
}
