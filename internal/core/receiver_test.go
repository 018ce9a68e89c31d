package core

import (
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"github.com/netmeasure/rlir/internal/packet"
	"github.com/netmeasure/rlir/internal/simtime"
	"github.com/netmeasure/rlir/internal/stats"
)

var testKey = packet.FlowKey{
	Src: packet.MustParseAddr("10.1.0.5"), Dst: packet.MustParseAddr("10.2.0.9"),
	SrcPort: 1000, DstPort: 80, Proto: packet.ProtoTCP,
}

// refPkt builds a reference packet from sender sid transmitted at tx.
func refPkt(sid SenderID, seq uint32, tx simtime.Time) *packet.Packet {
	return &packet.Packet{
		ID: uint64(seq), Kind: packet.Reference, Size: 64,
		Ref:          packet.RefPayload{Sender: sid, Seq: seq, Timestamp: tx},
		SegmentStart: tx,
	}
}

// regPkt builds a regular packet that entered the segment at start.
func regPkt(id uint64, key packet.FlowKey, start simtime.Time) *packet.Packet {
	return &packet.Packet{ID: id, Kind: packet.Regular, Size: 1000, Key: key, SegmentStart: start}
}

// testRx is a receiver with a test-only per-flow fold over its estimates:
// what a collector does with the stream.
type testRx struct {
	*Receiver
	flows map[packet.FlowKey]*flowAcc
}

// flowAcc accumulates one flow's estimated and true per-packet delays.
type flowAcc struct{ Est, True stats.Welford }

// newRx builds a receiver whose estimates fold into the returned testRx's
// flows before reaching cfg.OnEstimate, if set.
func newRx(t *testing.T, cfg ReceiverConfig) *testRx {
	t.Helper()
	if cfg.Demux == nil {
		cfg.Demux = SingleDemux{ID: 1}
	}
	tr := &testRx{flows: map[packet.FlowKey]*flowAcc{}}
	next := cfg.OnEstimate
	cfg.OnEstimate = func(key packet.FlowKey, est, truth time.Duration) {
		acc, ok := tr.flows[key]
		if !ok {
			acc = &flowAcc{}
			tr.flows[key] = acc
		}
		acc.Est.Add(float64(est))
		acc.True.Add(float64(truth))
		if next != nil {
			next(key, est, truth)
		}
	}
	r, err := NewReceiver(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr.Receiver = r
	return tr
}

// Flow returns one flow's folded estimates.
func (r *testRx) Flow(key packet.FlowKey) (*flowAcc, bool) {
	acc, ok := r.flows[key]
	return acc, ok
}

// Results is every folded flow with at least minPackets estimates, sorted
// by flow key.
func (r *testRx) Results(minPackets int64) []FlowResult {
	var out []FlowResult
	for key, acc := range r.flows {
		if acc.Est.N() >= minPackets {
			out = append(out, FlowResultOf(key, &acc.Est, &acc.True))
		}
	}
	slices.SortFunc(out, func(a, b FlowResult) int { return a.Key.Compare(b.Key) })
	return out
}

func at(us int) simtime.Time { return simtime.FromDuration(time.Duration(us) * time.Microsecond) }

func TestLinearInterpolationExact(t *testing.T) {
	r := newRx(t, ReceiverConfig{})
	// Left ref: sent 0, received 100us -> delay 100us.
	r.Observe(refPkt(1, 1, at(0)), at(100))
	// Regular packet arrives at 150us (halfway to the next ref arrival).
	r.Observe(regPkt(10, testKey, at(100)), at(150))
	// Right ref: sent 100us, received 200us -> delay 100us... make delays
	// differ: right ref sent 60us received 200us -> delay 140us.
	r.Observe(refPkt(1, 2, at(60)), at(200))

	acc, ok := r.Flow(testKey)
	if !ok {
		t.Fatal("flow missing")
	}
	if acc.Est.N() != 1 {
		t.Fatalf("estimates = %d", acc.Est.N())
	}
	// Linear: dL=100us at t=100us, dR=140us at t=200us, packet at 150us ->
	// 100 + 0.5*40 = 120us.
	if got := time.Duration(acc.Est.Mean()); got != 120*time.Microsecond {
		t.Fatalf("estimate = %v, want 120µs", got)
	}
	// Ground truth: entered 100us, observed 150us -> 50µs.
	if got := time.Duration(acc.True.Mean()); got != 50*time.Microsecond {
		t.Fatalf("truth = %v, want 50µs", got)
	}
}

func TestInterpolationAtEndpoints(t *testing.T) {
	r := newRx(t, ReceiverConfig{})
	r.Observe(refPkt(1, 1, at(0)), at(100))
	// A packet arriving exactly with the left reference gets the left delay;
	// exactly with the right reference, the right delay.
	k2 := testKey
	k2.SrcPort = 2000
	r.Observe(regPkt(10, testKey, at(50)), at(100))
	r.Observe(regPkt(11, k2, at(120)), at(200))
	r.Observe(refPkt(1, 2, at(40)), at(200)) // delay 160us

	if got := time.Duration(mustFlow(t, r, testKey).Est.Mean()); got != 100*time.Microsecond {
		t.Fatalf("left-endpoint estimate = %v, want 100µs", got)
	}
	if got := time.Duration(mustFlow(t, r, k2).Est.Mean()); got != 160*time.Microsecond {
		t.Fatalf("right-endpoint estimate = %v, want 160µs", got)
	}
}

func mustFlow(t *testing.T, r *testRx, k packet.FlowKey) *flowAcc {
	t.Helper()
	acc, ok := r.Flow(k)
	if !ok {
		t.Fatalf("flow %v missing", k)
	}
	return acc
}

func TestInterpolationConvexityProperty(t *testing.T) {
	// The linear estimate always lies between the bracketing reference
	// delays, for any arrival order and any delays.
	f := func(dLus, dRus uint16, fracRaw uint16) bool {
		left := refSample{arrival: at(100), delay: time.Duration(dLus) * time.Microsecond}
		right := refSample{arrival: at(300), delay: time.Duration(dRus) * time.Microsecond}
		frac := float64(fracRaw) / 65535
		arr := left.arrival.Add(time.Duration(frac * float64(right.arrival.Sub(left.arrival))))
		got := interpolate(left, right, arr)
		lo, hi := left.delay, right.delay
		if lo > hi {
			lo, hi = hi, lo
		}
		return got >= lo && got <= hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestInterpolationDegenerateSpan(t *testing.T) {
	left := refSample{arrival: at(100), delay: 10 * time.Microsecond}
	right := refSample{arrival: at(100), delay: 30 * time.Microsecond}
	if got := interpolate(left, right, at(100)); got != 20*time.Microsecond {
		t.Fatalf("degenerate span = %v, want midpoint 20µs", got)
	}
}

func TestPacketsBeforeFirstRefDropped(t *testing.T) {
	r := newRx(t, ReceiverConfig{})
	r.Observe(regPkt(1, testKey, at(0)), at(10))
	r.Observe(regPkt(2, testKey, at(5)), at(15))
	r.Observe(refPkt(1, 1, at(0)), at(100))
	if got := r.Counters().BeforeFirstRef; got != 2 {
		t.Fatalf("BeforeFirstRef = %d, want 2", got)
	}
	if _, ok := r.Flow(testKey); ok {
		t.Fatal("no estimates should exist")
	}
	// After the first ref, estimation proceeds.
	r.Observe(regPkt(3, testKey, at(110)), at(150))
	r.Observe(refPkt(1, 2, at(100)), at(200))
	if got := r.Counters().Estimated; got != 1 {
		t.Fatalf("Estimated = %d", got)
	}
}

func TestEstimatorVariants(t *testing.T) {
	// dL = 100µs (ref at t=100), dR = 200µs (ref at t=200).
	// Packet arrives at t=130 (closer to left).
	cases := []struct {
		est  Estimator
		want time.Duration
	}{
		{Linear, 130 * time.Microsecond},
		{LeftRef, 100 * time.Microsecond},
		{RightRef, 200 * time.Microsecond},
		{Nearest, 100 * time.Microsecond},
	}
	for _, c := range cases {
		r := newRx(t, ReceiverConfig{Estimator: c.est})
		r.Observe(refPkt(1, 1, at(0)), at(100))
		r.Observe(regPkt(10, testKey, at(100)), at(130))
		r.Observe(refPkt(1, 2, at(0)), at(200))
		got := time.Duration(mustFlow(t, r, testKey).Est.Mean())
		if got != c.want {
			t.Errorf("%v: estimate = %v, want %v", c.est, got, c.want)
		}
	}
}

func TestNearestPicksRight(t *testing.T) {
	r := newRx(t, ReceiverConfig{Estimator: Nearest})
	r.Observe(refPkt(1, 1, at(0)), at(100))
	r.Observe(regPkt(10, testKey, at(100)), at(180)) // closer to right (200)
	r.Observe(refPkt(1, 2, at(0)), at(200))
	if got := time.Duration(mustFlow(t, r, testKey).Est.Mean()); got != 200*time.Microsecond {
		t.Fatalf("estimate = %v, want right ref 200µs", got)
	}
}

func TestRightAndNearestWorkBeforeFirstLeftRef(t *testing.T) {
	for _, est := range []Estimator{RightRef, Nearest} {
		r := newRx(t, ReceiverConfig{Estimator: est})
		r.Observe(regPkt(1, testKey, at(0)), at(50))
		r.Observe(refPkt(1, 1, at(0)), at(100))
		if got := r.Counters().Estimated; got != 1 {
			t.Fatalf("%v: estimated = %d, want 1", est, got)
		}
		if got := time.Duration(mustFlow(t, r, testKey).Est.Mean()); got != 100*time.Microsecond {
			t.Fatalf("%v: estimate = %v, want 100µs", est, got)
		}
	}
}

func TestStreamsIsolatedBySender(t *testing.T) {
	// Two senders, a demux that routes by source prefix: stream state must
	// not bleed between them.
	d := NewPrefixDemux().
		Add(packet.MustParsePrefix("10.1.0.0/16"), 1).
		Add(packet.MustParsePrefix("10.9.0.0/16"), 2)
	r := newRx(t, ReceiverConfig{Demux: d})

	otherKey := testKey
	otherKey.Src = packet.MustParseAddr("10.9.0.1")

	// Sender 1's refs have small delays; sender 2's huge.
	r.Observe(refPkt(1, 1, at(0)), at(100))  // delay 100µs
	r.Observe(refPkt(2, 1, at(0)), at(1000)) // delay 1000µs
	r.Observe(regPkt(10, testKey, at(0)), at(1100))
	r.Observe(regPkt(11, otherKey, at(0)), at(1100))
	r.Observe(refPkt(1, 2, at(1100)), at(1200)) // delay 100µs
	r.Observe(refPkt(2, 2, at(300)), at(1300))  // delay 1000µs

	got1 := time.Duration(mustFlow(t, r, testKey).Est.Mean())
	got2 := time.Duration(mustFlow(t, r, otherKey).Est.Mean())
	if got1 != 100*time.Microsecond {
		t.Fatalf("sender-1 flow = %v, want 100µs", got1)
	}
	if got2 != 1000*time.Microsecond {
		t.Fatalf("sender-2 flow = %v, want 1000µs", got2)
	}
	// Each stream closed its own window: one estimate per sender.
	perSender := map[SenderID]int64{}
	for key, acc := range r.flows {
		sid, _ := d.Classify(&packet.Packet{Key: key})
		perSender[sid] += acc.Est.N()
	}
	if len(perSender) != 2 || perSender[1] != 1 || perSender[2] != 1 {
		t.Fatalf("estimates per sender = %v, want one each from senders 1 and 2", perSender)
	}
}

func TestUnattributedCounted(t *testing.T) {
	d := NewPrefixDemux().Add(packet.MustParsePrefix("10.1.0.0/16"), 1)
	r := newRx(t, ReceiverConfig{Demux: d})
	alien := testKey
	alien.Src = packet.MustParseAddr("192.168.0.1")
	r.Observe(regPkt(1, alien, at(0)), at(10))
	if got := r.Counters().Unattributed; got != 1 {
		t.Fatalf("Unattributed = %d", got)
	}
}

func TestAcceptFilter(t *testing.T) {
	r := newRx(t, ReceiverConfig{
		Accept: func(p *packet.Packet) bool { return p.Kind == packet.Regular },
	})
	cross := regPkt(1, testKey, at(0))
	cross.Kind = packet.Cross
	r.Observe(cross, at(10))
	if got := r.Counters().Filtered; got != 1 {
		t.Fatalf("Filtered = %d", got)
	}
	if got := r.Counters().RegularSeen; got != 0 {
		t.Fatalf("RegularSeen = %d", got)
	}
}

func TestAcceptRefFilter(t *testing.T) {
	myAddr := packet.MustParseAddr("10.3.0.1")
	r := newRx(t, ReceiverConfig{
		AcceptRef: func(p *packet.Packet) bool { return p.Key.Dst == myAddr },
	})
	foreign := refPkt(1, 1, at(0))
	foreign.Key.Dst = packet.MustParseAddr("10.4.0.1")
	r.Observe(foreign, at(100))
	if got := r.Counters(); got.RefsForeign != 1 || got.RefsSeen != 0 {
		t.Fatalf("counters = %+v", got)
	}
	mine := refPkt(1, 2, at(0))
	mine.Key.Dst = myAddr
	r.Observe(mine, at(100))
	if got := r.Counters().RefsSeen; got != 1 {
		t.Fatalf("RefsSeen = %d", got)
	}
}

func TestInterpolationBufferEviction(t *testing.T) {
	var truths []time.Duration
	r := newRx(t, ReceiverConfig{
		OnEstimate: func(_ packet.FlowKey, _, truth time.Duration) { truths = append(truths, truth) },
	})
	r.Observe(refPkt(1, 1, at(0)), at(100))
	const n = DefaultMaxPending + 6
	for i := 0; i < n; i++ {
		// Packet i's true delay, i ns, names it in the estimate stream.
		r.Observe(regPkt(uint64(i), testKey, at(100)), at(100).Add(time.Duration(i)))
	}
	if got := r.Counters().Evicted; got != 6 {
		t.Fatalf("Evicted = %d, want 6", got)
	}
	r.Observe(refPkt(1, 2, at(100)), at(200))
	if got := r.Counters().Estimated; got != DefaultMaxPending {
		t.Fatalf("Estimated = %d, want the %d freshest", got, DefaultMaxPending)
	}
	// The freshest survived, oldest first.
	if len(truths) != DefaultMaxPending {
		t.Fatalf("%d estimates streamed, want %d", len(truths), DefaultMaxPending)
	}
	for i, truth := range truths {
		if want := time.Duration(i + 6); truth != want {
			t.Fatalf("estimate %d is packet %d's, want packet %d's: eviction should drop oldest", i, truth, want)
		}
	}
}

// BenchmarkReceiverEviction times Observe on a stream whose references
// stopped: the buffer is full, so every op evicts the oldest packet, and
// ns/op is ns per evicted packet.
func BenchmarkReceiverEviction(b *testing.B) {
	r, err := NewReceiver(ReceiverConfig{Demux: SingleDemux{ID: 1}})
	if err != nil {
		b.Fatal(err)
	}
	r.Observe(refPkt(1, 1, at(0)), at(100))
	p := regPkt(1, testKey, at(100))
	for range DefaultMaxPending {
		r.Observe(p, at(110))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		r.Observe(p, at(110))
	}
	b.StopTimer()
	if got := r.Counters().Evicted; got != uint64(b.N) {
		b.Fatalf("Evicted = %d after %d full-buffer observations", got, b.N)
	}
}

func TestClockOffsetShiftsDelays(t *testing.T) {
	// Receiver clock 50µs ahead: every reference delay inflates by 50µs,
	// and so do the estimates.
	r := newRx(t, ReceiverConfig{Clock: simtime.FixedOffsetClock{Offset: 50 * time.Microsecond}})
	r.Observe(refPkt(1, 1, at(0)), at(100))
	r.Observe(regPkt(1, testKey, at(100)), at(150))
	r.Observe(refPkt(1, 2, at(100)), at(200))
	got := time.Duration(mustFlow(t, r, testKey).Est.Mean())
	// True delays are 100µs at both refs -> estimate would be 100µs with
	// perfect clocks; offset adds 50µs.
	if got != 150*time.Microsecond {
		t.Fatalf("estimate = %v, want 150µs with +50µs offset", got)
	}
	// Ground truth is unaffected (simulator truth, not clock-derived).
	if tr := time.Duration(mustFlow(t, r, testKey).True.Mean()); tr != 50*time.Microsecond {
		t.Fatalf("truth = %v, want 50µs", tr)
	}
}

func TestResultsAndSummary(t *testing.T) {
	r := newRx(t, ReceiverConfig{})
	r.Observe(refPkt(1, 1, at(0)), at(100))
	for i := 0; i < 5; i++ {
		r.Observe(regPkt(uint64(i), testKey, at(100+10*i)), at(120+10*i))
	}
	r.Observe(refPkt(1, 2, at(100)), at(200))

	res := r.Results(1)
	if len(res) != 1 {
		t.Fatalf("results = %d", len(res))
	}
	fr := res[0]
	if fr.N != 5 || fr.Key != testKey {
		t.Fatalf("result = %+v", fr)
	}
	if fr.RelErrMean < 0 || math.IsNaN(fr.RelErrMean) {
		t.Fatalf("RelErrMean = %v", fr.RelErrMean)
	}
	if got := r.Results(6); len(got) != 0 {
		t.Fatal("minPackets filter ignored")
	}
	sum := Summarize(res)
	if sum.Flows != 1 || sum.Estimates != 5 {
		t.Fatalf("summary = %+v", sum)
	}
	if Summarize(nil).Flows != 0 {
		t.Fatal("empty summary")
	}
	if sum.String() == "" {
		t.Fatal("empty rendering")
	}
}

func TestResultsDeterministicOrder(t *testing.T) {
	r := newRx(t, ReceiverConfig{})
	r.Observe(refPkt(1, 1, at(0)), at(100))
	for i := 0; i < 20; i++ {
		k := testKey
		k.SrcPort = uint16(5000 - i*7)
		r.Observe(regPkt(uint64(i), k, at(100)), at(110+i))
	}
	r.Observe(refPkt(1, 2, at(100)), at(200))
	a, b := r.Results(1), r.Results(1)
	for i := range a {
		if a[i].Key != b[i].Key {
			t.Fatal("Results order nondeterministic")
		}
	}
	for i := 1; i < len(a); i++ {
		if a[i-1].Key.Compare(a[i].Key) >= 0 {
			t.Fatal("Results not sorted")
		}
	}
}

func TestCDFBuilders(t *testing.T) {
	results := []FlowResult{
		{N: 5, RelErrMean: 0.1, RelErrStd: 0.2, TrueStd: time.Microsecond},
		{N: 1, RelErrMean: 0.3, RelErrStd: 0.0, TrueStd: 0},
		{N: 9, RelErrMean: 0.05, RelErrStd: 0.5, TrueStd: time.Microsecond},
	}
	if got := MeanErrCDF(results).N(); got != 3 {
		t.Fatalf("MeanErrCDF N = %d", got)
	}
	// Std CDF excludes single-packet flows and zero true std.
	if got := StdErrCDF(results).N(); got != 2 {
		t.Fatalf("StdErrCDF N = %d, want 2", got)
	}
}

func TestReceiverValidation(t *testing.T) {
	if _, err := NewReceiver(ReceiverConfig{}); err == nil {
		t.Fatal("nil demux should fail")
	}
	if _, err := NewReceiver(ReceiverConfig{Demux: SingleDemux{}, Estimator: Estimator(99)}); err == nil {
		t.Fatal("unknown estimator should fail")
	}
}

func TestEstimatorString(t *testing.T) {
	for _, e := range []Estimator{Linear, LeftRef, RightRef, Nearest, Estimator(42)} {
		if e.String() == "" {
			t.Fatal("empty estimator name")
		}
	}
}

// TestParseEstimator: ParseEstimator inverts String for every variant and
// rejects anything else with an error listing the valid names.
func TestParseEstimator(t *testing.T) {
	for e := Linear; e < numEstimators; e++ {
		if got, err := ParseEstimator(e.String()); err != nil || got != e {
			t.Fatalf("ParseEstimator(%q) = %v, %v", e.String(), got, err)
		}
	}
	_, err := ParseEstimator("cubic")
	if err == nil {
		t.Fatal("unknown estimator accepted")
	}
	for _, want := range []string{`"cubic"`, "linear", "left", "right", "nearest"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not mention %s", err, want)
		}
	}
}

// TestOnEstimateHook pins the export hook, the receiver's one output: every
// produced estimate is surfaced exactly once, and a second consumer chained
// behind the test fold sees the same values the fold accumulated.
func TestOnEstimateHook(t *testing.T) {
	type sample struct {
		key        packet.FlowKey
		est, truth time.Duration
	}
	var exported []sample
	r := newRx(t, ReceiverConfig{
		OnEstimate: func(key packet.FlowKey, est, truth time.Duration) {
			exported = append(exported, sample{key, est, truth})
		},
	})
	r.Observe(refPkt(1, 1, at(0)), at(100))
	r.Observe(regPkt(10, testKey, at(100)), at(150))
	r.Observe(regPkt(11, testKey, at(120)), at(180))
	r.Observe(refPkt(1, 2, at(60)), at(200))

	if got, want := uint64(len(exported)), r.Counters().Estimated; got != want {
		t.Fatalf("hook fired %d times, receiver estimated %d", got, want)
	}
	acc, ok := r.Flow(testKey)
	if !ok {
		t.Fatal("flow missing")
	}
	var estSum, truthSum float64
	for _, s := range exported {
		if s.key != testKey {
			t.Fatalf("hook saw key %v, want %v", s.key, testKey)
		}
		estSum += float64(s.est)
		truthSum += float64(s.truth)
	}
	if got := acc.Est.Mean() * float64(acc.Est.N()); math.Abs(got-estSum) > 1e-6*math.Abs(got) {
		t.Fatalf("exported estimate sum %v != accumulator sum %v", estSum, got)
	}
	if got := acc.True.Mean() * float64(acc.True.N()); math.Abs(got-truthSum) > 1e-6*math.Abs(got) {
		t.Fatalf("exported truth sum %v != accumulator sum %v", truthSum, got)
	}
}
