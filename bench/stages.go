package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"time"

	"github.com/netmeasure/rlir/internal/measure"
	"github.com/netmeasure/rlir/internal/queryapi"
	"github.com/netmeasure/rlir/internal/scenario"
	"github.com/netmeasure/rlir/internal/swp"
)

const (
	// rounds is how many times a run cycles through its stages. Each stage
	// gets a slice of its share in every round, so every metric's
	// repetitions are spread over the whole run and a slow spell of the
	// host lands on all of them, not on whichever stage was running.
	rounds = 10
	// setupRepsPerRound is how many times each round brings a fleet up and
	// down just to time it; setup_s is the median over all bring-ups.
	setupRepsPerRound = 8
	// ingestSegment is how long the closed-loop replay routes before it
	// settles and takes one rate sample: long enough that the settle wait
	// is a per cent or two of it, short enough that a run's median is over
	// many samples.
	ingestSegment = 150 * time.Millisecond
	// stageShare is the part of --seconds the stages share out; the rest is
	// left for calibration and the timed bring-ups, so that a run ends about
	// when --seconds says.
	stageShare = 0.92
)

// runner carries one workload run: its inputs, its span recorder (nil with
// tracing off), the operation and failure counts, the fleets the stages
// keep between rounds, and every measurement the stages take.
type runner struct {
	w      workload
	seed   int64
	budget time.Duration
	// elapsed is the wall time of the stage rounds, set-up and calibration
	// included, probes excluded.
	elapsed time.Duration
	rec     *recorder
	cal     *calibrator
	root    int
	log     io.Writer

	attempted, failed int64
	problems          []string // distinct failure messages, in order of first occurrence

	// capture is the first sequential export; every later stage replays it.
	capture *scenario.Trace
	// quiet is the latest pass's fleet: exactly one copy of the capture,
	// nothing arriving. quietFlows and quietComparison are its verified
	// answers, which every later answer must equal byte for byte.
	quiet           *pipeline
	quietFlows      []byte
	quietComparison []byte
	// ingestFleet and mixedFleet live across rounds; mixedOff is where the
	// open-loop generator stopped in the capture.
	ingestFleet *pipeline
	mixedFleet  *pipeline
	mixedOff    int

	stages []*stage
	m      measurements
	probes probes // traced runs only
}

// stage is one of the six kinds of work a run cycles through: its share of
// the run, the function that does units of it until an allowance is used,
// and the time it has used so far.
type stage struct {
	name  string
	share float64
	run   func(parent int, st *stage, allowance time.Duration) error
	used  time.Duration
	units int
}

// due reports whether the stage may start another unit of work: always its
// first, and after that only while it has used less than its allowance so
// far. A unit that overruns is paid back by running fewer in later rounds.
func (st *stage) due(allowance time.Duration) bool {
	return st.units == 0 || st.used < allowance
}

func (st *stage) add(d time.Duration) {
	st.used += d
	st.units++
}

// measurements is what the stages record, one value per repetition. The
// series feed the end-to-end metrics: each repetition keeps the interval it
// was measured over, so that it can be corrected to nominal host speed, and
// the reported metric is the median (or the named percentile) of the
// corrected repetitions. The plain slices feed per-layer metrics, which are
// reported as measured.
type measurements struct {
	setupS       series
	exportS      []float64 // host seconds inside scenario.Export, sequential
	simPPS       series
	pipelinePPS  series
	parPPS       series
	settleMs     []float64
	flowsMs      series
	comparisonMs series

	ingestSPS      series    // closed loop; the traced slices of a traced run
	ingestPlainSPS []float64 // the slices a traced run took with the recorder paused
	ingestFrames   uint64
	ingestDropped  uint64
	ingestCounters map[string]uint64
	ingestSwp      swp.SenderStats

	mixedSPS      []float64
	mixedAchieved []float64
	mixedLateMs   []float64
	mixedFlowsMs  series
}

// check counts one verification; a false ok is a failed operation and makes
// the run incorrect.
func (r *runner) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		msg := fmt.Sprintf(format, args...)
		if !slices.Contains(r.problems, msg) {
			r.problems = append(r.problems, msg)
			fmt.Fprintln(r.log, "FAILED:", msg)
		}
	}
}

// used returns the wall time the named stage has used.
func (r *runner) used(name string) time.Duration {
	for _, st := range r.stages {
		if st.name == name {
			return st.used
		}
	}
	return 0
}

// run cycles through the stages, then verifies the fleets that lived across
// rounds. An error means the harness could not measure (a listener failed,
// the fleet lost samples); a failed check is recorded and the run carries
// on, so the report shows everything that is wrong.
func (r *runner) run() error {
	r.root = r.rec.begin("bench.run", -1)
	defer r.rec.end(r.root)
	defer r.closeFleets()
	sh := r.w.shares
	r.stages = []*stage{
		{name: "sim", share: sh.sim, run: r.simSlice},
		{name: "par", share: sh.par, run: r.parSlice},
		{name: "flows", share: sh.flows, run: r.flowsSlice},
		{name: "comparison", share: sh.comparison, run: r.comparisonSlice},
		{name: "ingest", share: sh.ingest, run: r.ingestSlice},
		{name: "mixed", share: sh.mixed, run: r.mixedSlice},
	}
	start := time.Now()
	for round := 1; round <= rounds; round++ {
		r.cal.tick()
		if err := r.setupSlice(); err != nil {
			return fmt.Errorf("stage setup: %w", err)
		}
		for _, st := range r.stages {
			allowance := time.Duration(float64(r.budget) * stageShare * st.share * float64(round) / rounds)
			if !st.due(allowance) {
				continue
			}
			r.cal.tick()
			id := r.rec.begin("stage."+st.name, r.root)
			err := st.run(id, st, allowance)
			r.rec.end(id)
			if err != nil {
				return fmt.Errorf("stage %s: %w", st.name, err)
			}
		}
	}
	r.cal.tick()
	r.elapsed = time.Since(start)
	if err := r.finishFleets(); err != nil {
		return err
	}
	if r.rec != nil {
		id := r.rec.begin("stage.probes", r.root)
		defer r.rec.end(id)
		return r.probeStage(id, r.quiet)
	}
	return nil
}

func (r *runner) closeFleets() {
	for _, p := range []*pipeline{r.quiet, r.ingestFleet, r.mixedFleet} {
		if p != nil {
			p.close()
		}
	}
}

// setupSlice times fleet bring-up: constructors, listeners, dial, hello and
// the first /healthz through the front-end.
func (r *runner) setupSlice() error {
	for i := 0; i < setupRepsPerRound; i++ {
		p, err := r.start(r.root)
		if err != nil {
			return err
		}
		p.close()
	}
	return nil
}

// start brings one pipeline up and records the bring-up as a setup sample.
func (r *runner) start(parent int) (*pipeline, error) {
	id := r.rec.begin("fleet.start", parent)
	t0 := time.Now()
	p, err := startPipeline(r.w)
	r.rec.end(id)
	if err != nil {
		return nil, err
	}
	d := time.Since(t0)
	r.m.setupS.add(t0, d, d.Seconds())
	return p, nil
}

// simSlice repeats the whole pipeline on the sequential engine — export,
// stream once, settle, first /flows — each pass on a fresh fleet. The
// latest pass's fleet becomes the quiet fleet the query stages use.
func (r *runner) simSlice(parent int, st *stage, allowance time.Duration) error {
	spec, err := r.w.spec(scenario.EngineSequential)
	if err != nil {
		return err
	}
	for st.due(allowance) {
		r.cal.tick()
		u0 := time.Now()
		if r.quiet != nil {
			r.quiet.close()
		}
		p, err := r.start(parent)
		if err != nil {
			return err
		}
		r.quiet = p
		countAllocs := r.rec != nil && r.capture == nil
		var before runtime.MemStats
		if countAllocs {
			runtime.ReadMemStats(&before)
		}
		pass := r.rec.begin("bench.pass", parent)
		t0 := time.Now()
		id := r.rec.begin("scenario.Export", pass)
		tr, err := scenario.Export(spec, r.seed)
		r.rec.end(id)
		exportDur := time.Since(t0)
		if err != nil {
			return fmt.Errorf("export: %w", err)
		}
		if countAllocs {
			r.recordAllocs(&before, tr.Result.Injected)
		}
		if r.capture == nil {
			r.capture = tr
		}
		p.route(tr.Samples, r.rec, pass)
		settle, err := p.flushAndSettle(r.rec, pass)
		if err != nil {
			return err
		}
		id = r.rec.begin("fleet.GET_flows", pass)
		status, body, err := p.get("/flows")
		r.rec.end(id)
		passDur := time.Since(t0)
		r.rec.end(pass)
		if err != nil {
			return fmt.Errorf("GET /flows: %w", err)
		}
		pkts := float64(tr.Result.Injected)
		r.m.exportS = append(r.m.exportS, exportDur.Seconds())
		r.m.simPPS.add(t0, exportDur, pkts/exportDur.Seconds())
		r.m.pipelinePPS.add(t0, passDur, pkts/passDur.Seconds())
		r.m.settleMs = append(r.m.settleMs, settle.Seconds()*1e3)
		r.check(reflect.DeepEqual(tr.Samples, r.capture.Samples), "the same seed exported a different capture")
		r.verifyTable(p, status, body, 1)
		r.quietFlows = body
		st.add(time.Since(u0))
	}
	return nil
}

// parSlice re-runs the capture spec on the parallel engine and requires a
// result bit-identical to the sequential one.
func (r *runner) parSlice(parent int, st *stage, allowance time.Duration) error {
	spec, err := r.w.spec(scenario.EngineParallel)
	if err != nil {
		return err
	}
	if n := runtime.NumCPU(); n < parPartitions && st.units == 0 {
		fmt.Fprintf(r.log, "note: nproc=%d < %d partitions; sim_par2_pkts_per_s is not a multi-core number on this host\n", n, parPartitions)
	}
	for st.due(allowance) {
		r.cal.tick()
		u0 := time.Now()
		id := r.rec.begin("scenario.Export_par2", parent)
		tr, err := scenario.Export(spec, r.seed)
		dur := time.Since(u0)
		r.rec.end(id)
		if err != nil {
			return fmt.Errorf("parallel export: %w", err)
		}
		r.m.parPPS.add(u0, dur, float64(tr.Result.Injected)/dur.Seconds())
		r.check(sameResult(tr.Result, r.capture.Result), "parallel-%d result differs from the sequential result", parPartitions)
		r.check(reflect.DeepEqual(tr.Samples, r.capture.Samples), "parallel-%d capture differs from the sequential capture", parPartitions)
		st.add(time.Since(u0))
	}
	return nil
}

// flowsSlice is one closed-loop client asking the quiet fleet for /flows
// back to back.
func (r *runner) flowsSlice(parent int, st *stage, allowance time.Duration) error {
	return r.queryLoop("/flows", "fleet.GET_flows", parent, st, allowance, r.quietFlows, &r.m.flowsMs)
}

// comparisonSlice does the same for /comparison: the same fetch and merge,
// one row rendered.
func (r *runner) comparisonSlice(parent int, st *stage, allowance time.Duration) error {
	if r.quietComparison == nil {
		status, body, err := r.quiet.get("/comparison")
		if err != nil {
			return err
		}
		r.verifyComparison(status, body)
		r.quietComparison = body
	}
	return r.queryLoop("/comparison", "fleet.GET_comparison", parent, st, allowance, r.quietComparison, &r.m.comparisonMs)
}

// queryLoop issues GET path on the quiet fleet while the stage is due and
// records the client-side latencies in ms, body fully read, in lat. The
// table does not change, so a non-200 or a body that differs from the
// verified want is a failed operation.
func (r *runner) queryLoop(path, spanName string, parent int, st *stage, allowance time.Duration, want []byte, lat *series) error {
	for st.due(allowance) {
		r.cal.tick()
		id := r.rec.begin(spanName, parent)
		t0 := time.Now()
		status, body, err := r.quiet.get(path)
		dur := time.Since(t0)
		r.rec.end(id)
		if err != nil {
			return fmt.Errorf("GET %s: %w", path, err)
		}
		lat.add(t0, dur, dur.Seconds()*1e3)
		r.check(status == http.StatusOK && bytes.Equal(body, want), "GET %s: status %d, %d bytes; want 200 and the %d verified bytes", path, status, len(body), len(want))
		st.add(time.Since(t0))
	}
	return nil
}

// ingestSlice replays whole copies of the capture closed loop at line rate:
// the router's bounded queues are the only pacing. It routes in segments of
// ingestSegment; a segment's rate runs from its first RouteSamples to the
// instant the instances have ingested everything sent. A traced run pauses
// the recorder on every other segment, so the two sets of rates give the
// tracing overhead.
func (r *runner) ingestSlice(parent int, st *stage, allowance time.Duration) error {
	if r.ingestFleet == nil {
		p, err := r.start(parent)
		if err != nil {
			return err
		}
		r.ingestFleet = p
	}
	p := r.ingestFleet
	defer r.rec.pause(false)
	for st.due(allowance) {
		r.cal.tick()
		plain := r.rec != nil && len(r.m.ingestPlainSPS) <= len(r.m.ingestSPS.v)
		r.rec.pause(plain)
		t0 := time.Now()
		sentBefore := p.sent
		for first := true; first || (st.due(allowance) && time.Since(t0) < ingestSegment); first = false {
			u0 := time.Now()
			p.route(r.capture.Samples, r.rec, parent)
			st.add(time.Since(u0))
		}
		settle, err := p.flushAndSettle(r.rec, parent)
		if err != nil {
			return err
		}
		st.used += settle
		dur := time.Since(t0)
		rate := float64(p.sent-sentBefore) / dur.Seconds()
		if plain {
			r.m.ingestPlainSPS = append(r.m.ingestPlainSPS, rate)
		} else {
			r.m.ingestSPS.add(t0, dur, rate)
			r.m.settleMs = append(r.m.settleMs, settle.Seconds()*1e3)
		}
	}
	return nil
}

// mixedSlice runs reads beside writes for one window: a generator
// goroutine replays the capture as an open loop at the workload's rate, one
// frameSamples batch per due instant, while this goroutine queries /flows
// back to back. The fleet is preloaded with one copy of the capture so the
// first query sees a full table. The window's ingest rate counts every
// sample sent in it over the time until the last of them is ingested.
func (r *runner) mixedSlice(parent int, st *stage, allowance time.Duration) error {
	u0 := time.Now()
	if r.mixedFleet == nil {
		p, err := r.start(parent)
		if err != nil {
			return err
		}
		r.mixedFleet = p
		p.route(r.capture.Samples, r.rec, parent)
		if _, err := p.flushAndSettle(r.rec, parent); err != nil {
			return err
		}
	}
	p := r.mixedFleet
	interval := time.Duration(float64(frameSamples) / r.w.openRate * float64(time.Second))
	window := max(allowance-st.used, interval)
	scheduled := int64(window / interval)
	sentBefore := p.sent
	start := time.Now()
	end := start.Add(window)

	var wg sync.WaitGroup
	var genErr error
	var drained time.Duration // window start to the last sent sample ingested
	wg.Add(1)
	go func() { // generator: sends each scheduled batch that comes due before the window ends, then drains
		defer wg.Done()
		defer func() {
			_, genErr = p.flushAndSettle(r.rec, parent)
			drained = time.Since(start)
		}()
		samples := r.capture.Samples
		batch := min(frameSamples, len(samples))
		pc := newPacer(start, interval)
		for k := int64(0); k < scheduled; k++ {
			_, late := pc.next()
			if k > 0 && !time.Now().Before(end) {
				return
			}
			r.m.mixedLateMs = append(r.m.mixedLateMs, late.Seconds()*1e3)
			if r.mixedOff+batch > len(samples) {
				r.mixedOff = 0 // every batch is full: skip the capture's short tail
			}
			p.route(samples[r.mixedOff:r.mixedOff+batch], r.rec, parent)
			r.mixedOff += batch
		}
	}()

	wantRows := len(r.capture.Result.Fleet)
	var qErr error
	for i := 0; i == 0 || time.Now().Before(end); i++ {
		id := r.rec.begin("fleet.GET_flows_under_ingest", parent)
		t0 := time.Now()
		status, body, err := p.get("/flows")
		r.rec.end(id)
		if err != nil {
			qErr = fmt.Errorf("GET /flows under ingest: %w", err)
			break
		}
		dur := time.Since(t0)
		r.m.mixedFlowsMs.add(t0, dur, dur.Seconds()*1e3)
		rows := bytes.Count(body, []byte(`"src_port"`))
		if r.w.maxFlows == 0 {
			r.check(status == http.StatusOK && rows == wantRows, "GET /flows under ingest: status %d, %d rows; want 200 and %d", status, rows, wantRows)
		} else {
			r.check(status == http.StatusOK && rows > 0, "GET /flows under ingest: status %d, %d rows", status, rows)
		}
	}
	wg.Wait()
	if qErr != nil {
		return qErr
	}
	if genErr != nil {
		return genErr
	}
	sent := float64(p.sent - sentBefore)
	r.m.mixedSPS = append(r.m.mixedSPS, sent/drained.Seconds())
	r.m.mixedAchieved = append(r.m.mixedAchieved, sent/float64(scheduled*frameSamples))
	st.add(time.Since(u0))
	return nil
}

// finishFleets verifies the tables of the fleets that lived across rounds
// against everything sent into them, and collects their counters.
func (r *runner) finishFleets() error {
	for _, p := range []*pipeline{r.ingestFleet, r.mixedFleet} {
		status, body, err := p.get("/flows")
		if err != nil {
			return err
		}
		r.verifyTable(p, status, body, 0)
	}
	p := r.ingestFleet
	r.m.ingestDropped, r.m.ingestFrames = p.dropped()
	var err error
	r.m.ingestCounters, err = p.instanceCounters("rlird_frames_total", "rlird_decode_errors_total")
	if err != nil {
		return err
	}
	p.close() // TransportStats is only valid once the workers have stopped
	r.m.ingestSwp, _ = p.router.TransportStats()
	r.mixedFleet.close()
	return nil
}

// verifyTable checks one /flows answer and the fleet's accounting behind
// it. copies is how many times the capture has been streamed into this
// fleet when that is exactly known to be 1, else 0.
//
//   - Always: status 200, no dropped samples at the router, no decode
//     errors, and rlird_samples_total summed over instances = samples sent.
//   - Uncapped, one copy: every row equals queryapi.FlowRow over the batch
//     engine's table (Result.Fleet), field for field.
//   - Uncapped, more copies: one row per distinct flow of the capture, and
//     the rows' sample counts sum to the samples sent.
//   - Capped: sample conservation — live rows + /rollup classes + root =
//     samples sent.
func (r *runner) verifyTable(p *pipeline, status int, body []byte, copies int) {
	r.check(status == http.StatusOK, "GET /flows: status %d", status)
	var rows []queryapi.FlowJSON
	if err := json.Unmarshal(body, &rows); err != nil {
		r.check(false, "GET /flows: undecodable body: %v", err)
		return
	}
	var inRows int64
	for i := range rows {
		inRows += rows[i].Samples
	}
	batch := r.capture.Result.Fleet
	switch {
	case r.w.maxFlows == 0 && copies == 1:
		same := len(rows) == len(batch)
		for i := 0; same && i < len(rows); i++ {
			same = rows[i] == queryapi.FlowRow(&batch[i])
		}
		r.check(same, "/flows rows (%d) differ from queryapi.FlowRow over the batch table (%d flows)", len(rows), len(batch))
	case r.w.maxFlows == 0:
		r.check(len(rows) == len(batch) && uint64(inRows) == p.sent,
			"/flows holds %d rows with %d samples; want %d distinct flows and %d samples", len(rows), inRows, len(batch), p.sent)
	default:
		status, rb, err := p.get("/rollup")
		var rolls []queryapi.RollupJSON
		if err == nil {
			err = json.Unmarshal(rb, &rolls)
		}
		if err != nil || status != http.StatusOK {
			r.check(false, "GET /rollup: status %d: %v", status, err)
			break
		}
		total := inRows
		for _, roll := range rolls {
			for _, c := range roll.Classes {
				total += c.Samples
			}
			total += roll.Router.Samples
		}
		r.check(uint64(total) == p.sent, "conservation: live flows + rollup classes + root hold %d samples, %d were sent", total, p.sent)
	}
	dropped, _ := p.dropped()
	r.check(dropped == 0, "router dropped %d samples", dropped)
	counters, err := p.instanceCounters("rlird_samples_total", "rlird_decode_errors_total")
	if err != nil {
		r.check(false, "scrape /metrics: %v", err)
		return
	}
	r.check(counters["rlird_samples_total"] == p.sent, "rlird_samples_total = %d over the fleet, %d were sent", counters["rlird_samples_total"], p.sent)
	r.check(counters["rlird_decode_errors_total"] == 0, "rlird_decode_errors_total = %d", counters["rlird_decode_errors_total"])
}

// verifyComparison checks one /comparison answer. On uncapped tables it
// must equal measure.CompareFlowAggs over the batch table field for field;
// capped tables answer for their live flows only, so just the shape is
// checked.
func (r *runner) verifyComparison(status int, body []byte) {
	var rows []queryapi.ComparisonJSON
	if err := json.Unmarshal(body, &rows); err != nil || status != http.StatusOK || len(rows) != 1 {
		r.check(false, "GET /comparison: status %d, %d rows: %v", status, len(rows), err)
		return
	}
	if r.w.maxFlows != 0 {
		r.check(rows[0].Estimator == "rli" && rows[0].AggSamples > 0, "/comparison row is empty: %+v", rows[0])
		return
	}
	want := queryapi.ComparisonRow(measure.CompareFlowAggs("rli", r.capture.Result.Fleet))
	// Compare through the wire form: the optional error fields are
	// pointers, and JSON floats round-trip exactly.
	wantJSON, _ := json.Marshal(want) // plain struct of numbers: cannot fail
	gotJSON, _ := json.Marshal(rows[0])
	r.check(bytes.Equal(gotJSON, wantJSON), "/comparison = %s; measure.CompareFlowAggs over the batch table = %s", gotJSON, wantJSON)
}

// sameResult reports whether two engines produced the same result: every
// field reflect.DeepEqual, except that
//
//   - the engine-selection fields of the spec are ignored;
//   - NaN floats (an estimator with no samples reports NaN error quantiles)
//     compare equal, through a sentinel, since NaN never equals itself;
//   - each comparison row's aggregate mean and its relative error may
//     differ by a rounding step (1 ns, 1e-3). The pair-sampling estimators
//     fold their per-flow means in Go map order (measure's
//     pairCore.finalize), so these two floats already differ in the last
//     bits between two runs of one engine.
func sameResult(a, b *scenario.Result) bool {
	na, nb := normalizedResult(a), normalizedResult(b)
	if len(na.Comparison) != len(nb.Comparison) {
		return false
	}
	for i := range na.Comparison {
		ca, cb := &na.Comparison[i], &nb.Comparison[i]
		if d := ca.AggMean - cb.AggMean; d < -time.Nanosecond || d > time.Nanosecond {
			return false
		}
		if math.Abs(ca.AggRelErr-cb.AggRelErr) > 1e-3 {
			return false
		}
		cb.AggMean, cb.AggRelErr = ca.AggMean, ca.AggRelErr
	}
	return reflect.DeepEqual(na, nb)
}

// normalizedResult returns a copy of res with the engine-selection fields
// blanked and NaNs replaced. The flow table holds no settable floats and is
// left out of the walk.
func normalizedResult(res *scenario.Result) *scenario.Result {
	cp := *res
	cp.Spec.Engine, cp.Spec.Partitions = "", 0
	cp.Comparison = append([]measure.Comparison(nil), res.Comparison...)
	cp.Routers = append([]scenario.RouterStats(nil), res.Routers...)
	cp.Segments = append([]scenario.SegmentStats(nil), res.Segments...)
	cp.Fleet = nil
	replaceNaN(reflect.ValueOf(&cp).Elem())
	cp.Fleet = res.Fleet
	return &cp
}

func replaceNaN(v reflect.Value) {
	switch v.Kind() {
	case reflect.Float64, reflect.Float32:
		if math.IsNaN(v.Float()) && v.CanSet() {
			v.SetFloat(-123456789.5)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			replaceNaN(v.Field(i))
		}
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			replaceNaN(v.Index(i))
		}
	case reflect.Ptr:
		if !v.IsNil() {
			replaceNaN(v.Elem())
		}
	}
}
