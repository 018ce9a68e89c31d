package main

import (
	"fmt"
	"io"
	"sort"
	"syscall"
)

// metricDef names one reported number. BENCHMARK.json lists the same names
// and units (a unit test holds the two together) and carries the bounds.
type metricDef struct {
	name   string
	unit   string
	better string // "higher" or "lower"
}

// endToEnd is what a user of the system would see, measured with tracing
// off. Every workload reports every one of them; the workload's shares say
// which the run is about.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"pipeline_pkts_per_s", "pkts/s", "higher"},
	{"sim_pkts_per_s", "pkts/s", "higher"},
	{"sim_par2_pkts_per_s", "pkts/s", "higher"},
	{"ingest_samples_per_s", "samples/s", "higher"},
	{"mixed_ingest_samples_per_s", "samples/s", "higher"},
	{"query_flows_ms_p50", "ms", "lower"},
	{"query_flows_ms_p90", "ms", "lower"},
	{"query_comparison_ms_p50", "ms", "lower"},
	{"mixed_query_flows_ms_p50", "ms", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer is what a traced run reports: one layer each, taken from outside
// the layer. Names start with the package that does the work.
var perLayer = []metricDef{
	{"scenario.export_s", "s", "lower"},
	{"scenario.allocs_per_pkt", "allocs/pkt", "lower"},
	{"scenario.bytes_per_pkt", "bytes/pkt", "lower"},
	{"netsim.ns_per_pkt_rli_only", "ns/pkt", "lower"},
	{"measure.tap_share", "ratio", "lower"},
	{"measure.tap_ns_per_pkt", "ns/pkt", "lower"},
	{"eventsim.ns_per_event", "ns/event", "lower"},
	{"eventsim.par2_ratio", "ratio", "higher"},
	{"trace.gen_ns_per_pkt", "ns/pkt", "lower"},
	{"collector.encode_ns_per_sample", "ns/sample", "lower"},
	{"collector.wire_bytes_per_sample", "bytes/sample", "lower"},
	{"collector.decode_ns_per_sample", "ns/sample", "lower"},
	{"collector.ingest_ns_per_sample", "ns/sample", "lower"},
	{"collector.ingest_capped_ns_per_sample", "ns/sample", "lower"},
	{"collector.evictions", "count", "lower"},
	{"stats.sketch_add_ns", "ns", "lower"},
	{"swp.bytes_per_s", "bytes/s", "higher"},
	{"swp.segments", "count", "lower"},
	{"swp.retransmits", "count", "lower"},
	{"swp.timeouts", "count", "lower"},
	{"fleet.route_busy_s", "s", "lower"},
	{"fleet.flush_s", "s", "lower"},
	{"fleet.frames_sent", "count", "lower"},
	{"fleet.dropped", "count", "lower"},
	{"service.settle_ms", "ms", "lower"},
	{"service.frames", "count", "lower"},
	{"service.decode_errors", "count", "lower"},
	{"fleet.ingest_achieved_share", "ratio", "higher"},
	{"fleet.ingest_late_ms_p90", "ms", "lower"},
	{"fleet.query_ms_p90_under_ingest", "ms", "lower"},
	{"fleet.query_ms", "ms", "lower"},
	{"fleet.fetch_ms", "ms", "lower"},
	{"fleet.unattributed_ms", "ms", "lower"},
	{"collector.snapshot_ms", "ms", "lower"},
	{"collector.merge_ms", "ms", "lower"},
	{"queryapi.snapshot_bytes", "bytes", "lower"},
	{"queryapi.decode_ms", "ms", "lower"},
	{"queryapi.aggs_ms", "ms", "lower"},
	{"queryapi.render_ms", "ms", "lower"},
	{"queryapi.flows_bytes", "bytes", "lower"},
	{"queryapi.rows", "count", "lower"},
	{"stage.sim_share", "ratio", "higher"},
	{"stage.ingest_share", "ratio", "higher"},
	{"stage.query_share", "ratio", "higher"},
	{"stage.mixed_share", "ratio", "higher"},
	{"trace_overhead_share", "ratio", "lower"},
	{"host.slowness", "ratio", "lower"},
	{"host.calibration_share", "ratio", "lower"},
}

// peakRSSMB is ru_maxrss of this process (kilobytes on Linux).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// endToEndSets returns, per end-to-end metric, the repetitions it is read
// from. Every timing is corrected to nominal host speed (calib.go); the two
// that are not timings of the pipeline's own pace stay as measured:
// mixed_ingest_samples_per_s follows the open loop's wall-clock schedule,
// and peak_rss_mb is memory.
func (r *runner) endToEndSets() map[string][]float64 {
	m := &r.m
	flows := m.flowsMs.atNominal(r.cal, false)
	return map[string][]float64{
		"setup_s":                    m.setupS.atNominal(r.cal, false),
		"pipeline_pkts_per_s":        m.pipelinePPS.atNominal(r.cal, true),
		"sim_pkts_per_s":             m.simPPS.atNominal(r.cal, true),
		"sim_par2_pkts_per_s":        m.parPPS.atNominal(r.cal, true),
		"ingest_samples_per_s":       m.ingestSPS.atNominal(r.cal, true),
		"mixed_ingest_samples_per_s": m.mixedSPS,
		"query_flows_ms_p50":         flows,
		"query_flows_ms_p90":         flows,
		"query_comparison_ms_p50":    m.comparisonMs.atNominal(r.cal, false),
		"mixed_query_flows_ms_p50":   m.mixedFlowsMs.atNominal(r.cal, false),
	}
}

// endToEndValues folds the repetitions into the end-to-end metrics: their
// medians, and for the latency sets the named percentiles.
func (r *runner) endToEndValues() map[string]float64 {
	out := map[string]float64{"peak_rss_mb": peakRSSMB()}
	for name, vals := range r.endToEndSets() {
		out[name] = median(vals)
	}
	out["query_flows_ms_p90"] = quantile(r.endToEndSets()["query_flows_ms_p90"], 0.9)
	return out
}

// perLayerValues folds a traced run's spans, counters and probes into the
// per-layer metrics.
func (r *runner) perLayerValues() map[string]float64 {
	m := &r.m
	out := make(map[string]float64, len(perLayer))
	for k, v := range r.probes {
		out[k] = v
	}
	out["scenario.export_s"] = median(m.exportS)
	out["eventsim.par2_ratio"] = median(m.parPPS.v) / median(m.simPPS.v)
	out["swp.segments"] = float64(m.ingestSwp.Segments)
	out["swp.retransmits"] = float64(m.ingestSwp.Retransmits)
	out["swp.timeouts"] = float64(m.ingestSwp.Timeouts)
	out["fleet.route_busy_s"] = r.rec.totalUnder("fleet.RouteSamples", "stage.ingest").Seconds()
	out["fleet.flush_s"] = r.rec.totalUnder("fleet.Flush", "stage.ingest").Seconds()
	out["fleet.frames_sent"] = float64(m.ingestFrames)
	out["fleet.dropped"] = float64(m.ingestDropped)
	out["service.settle_ms"] = median(m.settleMs)
	out["service.frames"] = float64(m.ingestCounters["rlird_frames_total"])
	out["service.decode_errors"] = float64(m.ingestCounters["rlird_decode_errors_total"])
	out["fleet.ingest_achieved_share"] = median(m.mixedAchieved)
	out["fleet.ingest_late_ms_p90"] = quantile(m.mixedLateMs, 0.9)
	out["fleet.query_ms_p90_under_ingest"] = quantile(m.mixedFlowsMs.v, 0.9)
	out["queryapi.flows_bytes"] = float64(len(r.quietFlows))

	// Stage shares of the measured wall time (set-up and probes excluded):
	// the check that a workload spends its run where it says it does.
	used := func(name string) float64 { return r.used(name).Seconds() }
	measured := used("sim") + used("par") + used("flows") + used("comparison") + used("ingest") + used("mixed")
	out["stage.sim_share"] = (used("sim") + used("par")) / measured
	out["stage.ingest_share"] = used("ingest") / measured
	out["stage.query_share"] = (used("flows") + used("comparison")) / measured
	out["stage.mixed_share"] = used("mixed") / measured
	out["trace_overhead_share"] = 1 - median(m.ingestSPS.v)/median(m.ingestPlainSPS)
	out["host.slowness"] = median(r.cal.all())
	out["host.calibration_share"] = r.cal.busy.Seconds() / r.elapsed.Seconds()
	return out
}

// describe prints one repetition set in full: the reported value, and the
// count, minimum and maximum it was read from.
func describe(w io.Writer, name, unit string, value float64, vals []float64) {
	if len(vals) == 0 {
		fmt.Fprintf(w, "%-34s %14.6g %-12s\n", name, value, unit)
		return
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	fmt.Fprintf(w, "%-34s %14.6g %-12s n=%-5d min=%.6g max=%.6g\n", name, value, unit, len(s), s[0], s[len(s)-1])
}

// report prints every metric of the run by name and unit, with the sample
// counts behind the medians and percentiles, then the host's slowness over
// the run and what the corrected timings read before correction.
func (r *runner) report(w io.Writer, defs []metricDef, values map[string]float64) {
	m := &r.m
	sets := r.endToEndSets()
	sets["scenario.export_s"] = m.exportS
	sets["service.settle_ms"] = m.settleMs
	sets["fleet.ingest_achieved_share"] = m.mixedAchieved
	sets["fleet.ingest_late_ms_p90"] = m.mixedLateMs
	sets["fleet.query_ms_p90_under_ingest"] = m.mixedFlowsMs.v
	sets["host.slowness"] = r.cal.all()
	for _, d := range defs {
		describe(w, d.name, d.unit, values[d.name], sets[d.name])
	}
	fmt.Fprintf(w, "query_flows: n=%d supports p%g; mixed query_flows: n=%d supports p%g\n",
		len(m.flowsMs.v), highestPercentile(len(m.flowsMs.v)), len(m.mixedFlowsMs.v), highestPercentile(len(m.mixedFlowsMs.v)))
	describe(w, "host slowness (1 = nominal)", "ratio", median(r.cal.all()), r.cal.all())
	fmt.Fprintf(w, "calibration took %.2f s of the run's %.2f s\n", r.cal.busy.Seconds(), r.elapsed.Seconds())
	for _, raw := range []struct {
		name string
		s    *series
	}{
		{"setup_s", &m.setupS}, {"pipeline_pkts_per_s", &m.pipelinePPS}, {"sim_pkts_per_s", &m.simPPS},
		{"sim_par2_pkts_per_s", &m.parPPS}, {"ingest_samples_per_s", &m.ingestSPS}, {"query_flows_ms_p50", &m.flowsMs},
		{"query_comparison_ms_p50", &m.comparisonMs}, {"mixed_query_flows_ms_p50", &m.mixedFlowsMs},
	} {
		describe(w, "as measured: "+raw.name, "", median(raw.s.v), raw.s.v)
	}
}
