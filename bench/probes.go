package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"time"

	"github.com/netmeasure/rlir/internal/collector"
	"github.com/netmeasure/rlir/internal/core"
	"github.com/netmeasure/rlir/internal/eventsim"
	"github.com/netmeasure/rlir/internal/measure"
	"github.com/netmeasure/rlir/internal/packet"
	"github.com/netmeasure/rlir/internal/queryapi"
	"github.com/netmeasure/rlir/internal/scenario"
	"github.com/netmeasure/rlir/internal/simtime"
	"github.com/netmeasure/rlir/internal/stats"
	"github.com/netmeasure/rlir/internal/swp"
	"github.com/netmeasure/rlir/internal/trace"
)

// Layer probes run only in a traced run. Each one drives a single layer
// through its public functions over the workload's own capture (or, for the
// simulator's inner layers, a fixed synthetic stream), so its number is that
// layer's cost with nothing else in the way. Probe sizes scale with the
// run's budget; at the benchmark's run length the probes take about a sixth
// of the run.

// probes is what probeStage records, keyed by per-layer metric name.
type probes map[string]float64

// probeReferenceSeconds is the run length the probe sizes below are for.
const probeReferenceSeconds = 24

// probeN scales a probe's operation count to the run's budget.
func (r *runner) probeN(n int) int {
	return max(int(float64(n)*r.budget.Seconds()/probeReferenceSeconds), 1000)
}

// recordAllocs turns a MemStats delta around one sequential export into
// per-packet figures.
func (r *runner) recordAllocs(before *runtime.MemStats, injected int) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	r.probes["scenario.allocs_per_pkt"] = float64(after.Mallocs-before.Mallocs) / float64(injected)
	r.probes["scenario.bytes_per_pkt"] = float64(after.TotalAlloc-before.TotalAlloc) / float64(injected)
}

// timed runs fn under a span and returns its duration.
func (r *runner) timed(name string, parent int, fn func()) time.Duration {
	id := r.rec.begin(name, parent)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	r.rec.end(id)
	return d
}

func (r *runner) probeStage(parent int, quiet *pipeline) error {
	if err := r.probeQueryBudget(parent, quiet); err != nil {
		return err
	}
	if err := r.probeSimulator(parent); err != nil {
		return err
	}
	r.probeCollector(parent)
	return r.probeSwp(parent)
}

// probeQueryBudget takes the front-end's /flows answer apart from outside:
// after each timed front-end query it repeats the front-end's own steps one
// by one — fetch each instance's /snapshot (the slower of the two bounds a
// parallel fan-out), decode and version-check, unpack, merge, render and
// encode — so the per-layer budget can be summed against the whole.
// fleet.unattributed_ms is what the steps do not explain: the front-end's
// HTTP handling, its goroutine fan-out and the client's read.
func (r *runner) probeQueryBudget(parent int, p *pipeline) error {
	const reps = 9
	ms := func(d time.Duration) float64 { return d.Seconds() * 1e3 }
	var query, fetch, decode, aggs, merge, render, snap []float64
	for i := 0; i < reps; i++ {
		q := r.rec.begin("fleet.GET_flows", parent)
		t0 := time.Now()
		status, flowsBody, err := p.get("/flows")
		query = append(query, ms(time.Since(t0)))
		r.rec.end(q)
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("probe GET /flows: status %d: %v", status, err)
		}

		step := r.rec.begin("bench.query_steps", parent)
		var slowest time.Duration
		bodies := make([][]byte, len(p.instURLs))
		for j, u := range p.instURLs {
			var err error
			var status int
			d := r.timed("service.GET_snapshot", step, func() { status, bodies[j], err = httpGet(p.client, u+"/snapshot") })
			if err != nil || status != http.StatusOK {
				return fmt.Errorf("probe GET %s/snapshot: status %d: %v", u, status, err)
			}
			slowest = max(slowest, d)
			r.probes["queryapi.snapshot_bytes"] = float64(len(bodies[j]))
		}
		fetch = append(fetch, ms(slowest))

		snaps := make([]queryapi.Snapshot, len(bodies))
		var decodeErr error
		decode = append(decode, ms(r.timed("queryapi.decode", step, func() {
			for j, b := range bodies {
				if err := json.Unmarshal(b, &snaps[j]); err != nil {
					decodeErr = err
				} else if err := snaps[j].Check(); err != nil {
					decodeErr = err
				}
			}
		})))
		if decodeErr != nil {
			return fmt.Errorf("probe decode /snapshot: %w", decodeErr)
		}
		parts := make([][]collector.FlowAgg, len(snaps))
		aggs = append(aggs, ms(r.timed("queryapi.Aggs", step, func() {
			for j := range snaps {
				parts[j] = snaps[j].Aggs()
			}
		})))
		var merged []collector.FlowAgg
		merge = append(merge, ms(r.timed("collector.Merge", step, func() { merged = collector.Merge(parts...) })))
		var rendered int
		render = append(render, ms(r.timed("queryapi.render", step, func() {
			rows := make([]queryapi.FlowJSON, 0, len(merged))
			for j := range merged {
				rows = append(rows, queryapi.FlowRow(&merged[j]))
			}
			enc := json.NewEncoder(countWriter{&rendered})
			enc.SetIndent("", "  ")
			_ = enc.Encode(rows) // the writer cannot fail
		})))
		r.check(rendered == len(flowsBody), "re-rendered /flows is %d bytes, the front-end served %d", rendered, len(flowsBody))
		snap = append(snap, ms(r.timed("collector.Snapshot", step, func() {
			for _, s := range p.servers {
				_ = s.Collector().Snapshot()
			}
		}))/float64(len(p.servers)))
		r.rec.end(step)
		r.probes["queryapi.rows"] = float64(len(merged))
	}
	pr := r.probes
	pr["fleet.query_ms"] = median(query)
	pr["fleet.fetch_ms"] = median(fetch)
	pr["queryapi.decode_ms"] = median(decode)
	pr["queryapi.aggs_ms"] = median(aggs)
	pr["collector.merge_ms"] = median(merge)
	pr["queryapi.render_ms"] = median(render)
	pr["collector.snapshot_ms"] = median(snap)
	pr["fleet.unattributed_ms"] = pr["fleet.query_ms"] - (pr["fleet.fetch_ms"] + pr["queryapi.decode_ms"] + pr["queryapi.aggs_ms"] + pr["collector.merge_ms"] + pr["queryapi.render_ms"])
	return nil
}

// countWriter counts bytes written and keeps none.
type countWriter struct{ n *int }

func (w countWriter) Write(p []byte) (int, error) {
	*w.n += len(p)
	return len(p), nil
}

// probeSimulator prices the simulator's inner layers: the capture spec with
// only the RLI estimator attached (what forwarding costs without the tap
// fan-out), the shared tap alone over a synthetic packet stream, typed event
// dispatch alone, and the workload generator alone.
func (r *runner) probeSimulator(parent int) error {
	spec, err := r.w.spec(scenario.EngineSequential)
	if err != nil {
		return err
	}
	spec.Deploy.Estimators = []string{"rli"}
	var tr *scenario.Trace
	rliOnly := r.timed("scenario.Export_rli_only", parent, func() { tr, err = scenario.Export(spec, r.seed) })
	if err != nil {
		return fmt.Errorf("rli-only export: %w", err)
	}
	full := median(r.m.exportS)
	r.probes["netsim.ns_per_pkt_rli_only"] = float64(rliOnly.Nanoseconds()) / float64(tr.Result.Injected)
	r.probes["measure.tap_share"] = (full - rliOnly.Seconds()) / full

	// The shared tap, as BenchmarkSharedTap drives it: every registered
	// estimator behind one Dispatch, 256 flows, one start and one end
	// observation per packet.
	ests, err := measure.NewSet(measure.Names(), measure.Config{
		Seed:     r.seed,
		Receiver: core.ReceiverConfig{Demux: core.SingleDemux{ID: 1}},
	})
	if err != nil {
		return fmt.Errorf("build estimator set: %w", err)
	}
	d := measure.NewDispatch(measure.NewTruth(), ests...)
	pkts := make([]packet.Packet, 256)
	for i := range pkts {
		pkts[i] = packet.Packet{
			ID:   uint64(i + 1),
			Key:  packet.FlowKey{Src: 0x0a010001, Dst: packet.Addr(0x0ac80000 + i), SrcPort: 1000, DstPort: 2000, Proto: packet.ProtoUDP},
			Size: 1000,
			Kind: packet.Regular,
		}
	}
	n := r.probeN(400_000)
	at := simtime.Time(0)
	tap := r.timed("measure.Dispatch", parent, func() {
		for i := 0; i < n; i++ {
			p := &pkts[i%len(pkts)]
			at = at.Add(time.Microsecond)
			p.SegmentStart = at
			d.TapStart(p, at)
			d.TapEnd(p, at.Add(100*time.Microsecond))
		}
	})
	r.probes["measure.tap_ns_per_pkt"] = float64(tap.Nanoseconds()) / float64(n)

	n = r.probeN(2_000_000)
	e := eventsim.New()
	var fired int
	kind := e.RegisterKind(func(a, _ any) { *a.(*int)++ })
	ev := r.timed("eventsim.Run", parent, func() {
		for i := 0; i < n; i++ {
			e.AfterKind(time.Duration(i%1000)*time.Nanosecond, kind, &fired, nil)
			if e.Pending() > 1024 {
				e.Run()
			}
		}
		e.Run()
	})
	r.check(fired == n, "eventsim ran %d of %d scheduled events", fired, n)
	r.probes["eventsim.ns_per_event"] = float64(ev.Nanoseconds()) / float64(n)

	// The generator config scenario derives for this spec (all-pairs load
	// over K^2/2 ToR uplinks' worth of hosts), rebuilt from trace's public
	// surface.
	cfg := trace.DefaultConfig()
	cfg.Seed = r.seed
	cfg.Duration = spec.Duration
	half := spec.Topology.K / 2
	cfg.TargetBps = spec.Workload.LoadFrac * spec.Topology.LinkBps * float64(half) * float64(spec.Topology.K*half)
	cfg.FlowLen.Max = min(cfg.FlowLen.Max, max(2*int(cfg.Duration/cfg.MeanGap), 64))
	cfg.Warmup = cfg.StationaryWarmup()
	if err := cfg.Validate(); err != nil {
		return fmt.Errorf("trace config: %w", err)
	}
	var emitted uint64
	gen := r.timed("trace.Generator", parent, func() {
		g := trace.NewGenerator(cfg)
		for _, ok := g.Next(); ok; _, ok = g.Next() {
		}
		emitted = g.Emitted()
	})
	r.check(emitted > 0, "trace generator emitted nothing")
	r.probes["trace.gen_ns_per_pkt"] = float64(gen.Nanoseconds()) / float64(max(emitted, 1))
	return nil
}

// probeCollector prices the collection tier's pieces over the capture:
// frame encode and decode, shard ingest with and without the workload's
// table cap, and the per-sample quantile sketch.
func (r *runner) probeCollector(parent int) {
	samples := r.capture.Samples
	if len(samples) == 0 {
		return
	}
	perSample := func(d time.Duration, n int) float64 { return float64(d.Nanoseconds()) / float64(n) }
	copies := max(r.probeN(1_000_000)/len(samples), 1)
	total := copies * len(samples)

	var wire []byte
	enc := r.timed("collector.AppendSamples", parent, func() {
		for c := 0; c < copies; c++ {
			wire = wire[:0]
			for off := 0; off < len(samples); off += frameSamples {
				wire = collector.AppendSamples(wire, samples[off:min(off+frameSamples, len(samples))])
			}
		}
	})
	r.probes["collector.encode_ns_per_sample"] = perSample(enc, total)
	r.probes["collector.wire_bytes_per_sample"] = float64(len(wire)) / float64(len(samples))

	decoded := 0
	dec := r.timed("collector.DecodeFrame", parent, func() {
		for c := 0; c < copies; c++ {
			for buf := wire; len(buf) > 0; {
				f, n, err := collector.DecodeFrame(buf)
				if err != nil {
					return
				}
				decoded += len(f.Samples)
				buf = buf[n:]
			}
		}
	})
	r.check(decoded == total, "DecodeFrame returned %d of %d encoded samples", decoded, total)
	r.probes["collector.decode_ns_per_sample"] = perSample(dec, total)

	ingest := func(name string, maxFlows int) (nsPerSample, evicted float64) {
		c := collector.New(collector.Config{Shards: fleetShards, MaxFlows: maxFlows})
		d := r.timed(name, parent, func() {
			for i := 0; i < copies; i++ {
				for off := 0; off < len(samples); off += frameSamples {
					c.Ingest(samples[off:min(off+frameSamples, len(samples))])
				}
			}
			c.Close()
		})
		r.check(c.SamplesIngested() == uint64(total), "collector ingested %d of %d samples", c.SamplesIngested(), total)
		return perSample(d, total), float64(c.Stats().Evicted)
	}
	r.probes["collector.ingest_ns_per_sample"], _ = ingest("collector.Ingest", 0)
	r.probes["collector.ingest_capped_ns_per_sample"], r.probes["collector.evictions"] = r.probes["collector.ingest_ns_per_sample"], 0
	if r.w.maxFlows > 0 {
		r.probes["collector.ingest_capped_ns_per_sample"], r.probes["collector.evictions"] = ingest("collector.Ingest_capped", r.w.maxFlows)
	}

	var sk stats.Sketch
	add := r.timed("stats.Sketch.Add", parent, func() {
		for c := 0; c < copies; c++ {
			for i := range samples {
				sk.Add(float64(samples[i].Est))
			}
		}
	})
	r.check(sk.Count() == uint64(total), "sketch counted %d of %d adds", sk.Count(), total)
	r.probes["stats.sketch_add_ns"] = perSample(add, total)
}

// probeSwp pushes the capture's frames through a Sender/Receiver pair over
// an in-memory pipe: the reliable transport's own cost per byte, with no
// socket and no loss.
func (r *runner) probeSwp(parent int) error {
	samples := r.capture.Samples
	var frames [][]byte
	for off := 0; off < len(samples); off += frameSamples {
		frames = append(frames, collector.AppendSamples(nil, samples[off:min(off+frameSamples, len(samples))]))
	}
	var frameBytes int
	for _, f := range frames {
		frameBytes += len(f)
	}
	if frameBytes == 0 {
		return nil
	}
	copies := max(r.probeN(30<<20)/frameBytes, 1)

	a, b := net.Pipe()
	snd := swp.NewSender(swp.NewStreamConn(a), swp.Config{})
	rcv := swp.NewReceiver(swp.NewStreamConn(b), swp.Config{})
	sendErr := make(chan error, 1)
	var got int64
	var recvErr error
	d := r.timed("swp.Sender_to_Receiver", parent, func() {
		go func() {
			for c := 0; c < copies; c++ {
				for _, f := range frames {
					if _, err := snd.Write(f); err != nil {
						sendErr <- err
						return
					}
				}
			}
			sendErr <- snd.Close()
		}()
		got, recvErr = io.Copy(io.Discard, rcv)
	})
	err := <-sendErr
	_ = rcv.Close()
	if err != nil || recvErr != nil {
		return fmt.Errorf("swp probe: send %v, receive %v", err, recvErr)
	}
	want := int64(copies * frameBytes)
	r.check(got == want, "swp delivered %d of %d bytes", got, want)
	r.probes["swp.bytes_per_s"] = float64(got) / d.Seconds()
	return nil
}
