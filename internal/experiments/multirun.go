package experiments

import (
	"sync"
	"time"

	"github.com/netmeasure/rlir/internal/collector"
	"github.com/netmeasure/rlir/internal/core"
	"github.com/netmeasure/rlir/internal/packet"
	"github.com/netmeasure/rlir/internal/runner"
	"github.com/netmeasure/rlir/internal/scenario"
	"github.com/netmeasure/rlir/internal/stats"
)

// MultiTandem is the one sweep that is not just a table (see Sweep for
// those): besides folding its headline scalars across seeds it merges every
// run's per-flow telemetry through the collector plane, producing the
// fleet-level flow table an operator would see.

// MultiTandemResult aggregates one tandem configuration across seeds.
type MultiTandemResult struct {
	Config  scenario.TandemConfig
	Seeds   []int64
	PerSeed []core.Summary
	// Across-seed distributions of the run's headline scalars.
	MedianRelErr, P90RelErr, FracUnder10Pct stats.MetricCI
	AchievedUtil                            stats.MetricCI
	TrueMeanDelayUs                         stats.MetricCI
	// Merged is the fleet-level per-flow aggregate: each run streams its
	// estimates into a per-run collector plane; snapshots merge in seed
	// order (deterministic for any worker count).
	Merged []collector.FlowAgg
}

// MultiTandem runs cfg at opts.Seeds derived seeds in parallel. A
// caller-supplied cfg.OnEstimate still fires for every estimate (chained
// after the sweep's own collector sink) and is serialized with a mutex, so
// a single-threaded hook — the way the hook is used everywhere else —
// remains safe under parallel runs; calls may interleave across seeds in a
// nondeterministic order.
func MultiTandem(cfg scenario.TandemConfig, opts scenario.MultiOpts) MultiTandemResult {
	seeds := opts.DeriveSeeds(cfg.Scale.Seed)
	type runOut struct {
		sum  core.Summary
		util float64
		snap []collector.FlowAgg
	}
	var callerMu sync.Mutex
	outs := runner.Map(seeds, opts.Workers, func(i int, seed int64) runOut {
		c := collector.New(collector.Config{Shards: 2})
		sink := runner.NewSink(c, 0)
		rc := cfg
		rc.Scale.Seed = seed
		if caller := cfg.OnEstimate; caller != nil {
			// Chain rather than replace a caller-supplied export hook.
			rc.OnEstimate = func(key packet.FlowKey, est, truth time.Duration) {
				sink.Add(key, est, truth)
				callerMu.Lock()
				caller(key, est, truth)
				callerMu.Unlock()
			}
		} else {
			rc.OnEstimate = sink.Add
		}
		r := scenario.RunTandem(rc)
		sink.Flush()
		snap := c.Snapshot()
		c.Close()
		return runOut{sum: r.Summary, util: r.AchievedUtil, snap: snap}
	})

	res := MultiTandemResult{Config: cfg, Seeds: seeds}
	snaps := make([][]collector.FlowAgg, len(outs))
	for i, o := range outs {
		res.PerSeed = append(res.PerSeed, o.sum)
		snaps[i] = o.snap
	}
	metric := func(of func(runOut) float64) stats.MetricCI {
		xs := make([]float64, len(outs))
		for i, o := range outs {
			xs[i] = of(o)
		}
		return stats.MetricOf(xs)
	}
	res.MedianRelErr = metric(func(o runOut) float64 { return o.sum.MedianRelErr })
	res.P90RelErr = metric(func(o runOut) float64 { return o.sum.P90RelErr })
	res.FracUnder10Pct = metric(func(o runOut) float64 { return o.sum.FracUnder10Pct })
	res.AchievedUtil = metric(func(o runOut) float64 { return o.util })
	res.TrueMeanDelayUs = metric(func(o runOut) float64 { return micros(o.sum.TrueMeanDelay) })
	res.Merged = collector.Merge(snaps...)
	return res
}
