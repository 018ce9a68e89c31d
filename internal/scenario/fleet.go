package scenario

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"

	"github.com/netmeasure/rlir/internal/fleet"
	"github.com/netmeasure/rlir/internal/measure"
	"github.com/netmeasure/rlir/internal/queryapi"
	"github.com/netmeasure/rlir/internal/service"
	"github.com/netmeasure/rlir/internal/stats"
)

// FleetInstance is one rlird instance's share of the run.
type FleetInstance struct {
	// Instance is the instance index (fleet.Partition's value).
	Instance int
	// Flows / Samples count what the instance collected, as its /healthz
	// reported them through the front-end.
	Flows   int
	Samples uint64
	// Failed marks the instance the spec killed.
	Failed bool
}

// FleetEstimatorRow scores one estimator before and after an instance loss:
// both rows are measured from the same run and scored against the same
// ground truth, so their difference is exactly what the dead instance's
// data was worth.
type FleetEstimatorRow struct {
	// Estimator is the mechanism's registry name.
	Estimator string
	// FlowsLost counts the per-flow records that lived on the failed
	// instance. Zero for aggregate-only mechanisms (their one deliverable
	// is not flow-partitioned).
	FlowsLost int
	// Baseline / Degraded are the comparison rows with the full fleet and
	// with the failed instance's data gone.
	Baseline measure.Comparison
	Degraded measure.Comparison
}

// FleetReport is a finished run's distributed-collection outcome: the fleet
// front-end's exact-merge equivalence to the single-node flow table, and —
// when the spec kills an instance — the per-estimator accuracy cost.
type FleetReport struct {
	// Instances is the fleet size.
	Instances int
	// MergeExact reports whether the front-end's /flows body is byte-equal
	// to the single-node table's /flows rendering (no tolerance).
	// Flow-disjoint partitioning makes this a theorem; this field is its
	// runtime witness.
	MergeExact bool
	// MergedFlows counts the flows the whole fleet holds (its /healthz sum;
	// == the single-node count whenever MergeExact).
	MergedFlows int
	// FailInstance is the killed instance index, or -1.
	FailInstance int
	// PerInstance lists each instance's share, in index order.
	PerInstance []FleetInstance
	// DegradedFlows counts the flows the surviving instances hold
	// (MergedFlows when no failure is injected).
	DegradedFlows int
	// Rows re-scores every estimator under the instance loss, in
	// comparison-table order. Empty when no failure is injected.
	Rows []FleetEstimatorRow
}

// Row returns the named estimator's fleet row.
func (f *FleetReport) Row(name string) (FleetEstimatorRow, bool) {
	for _, r := range f.Rows {
		if r.Estimator == name {
			return r, true
		}
	}
	return FleetEstimatorRow{}, false
}

// Tables is the report as tables: each instance's share, with the merge
// verdict as a note, and — when the spec killed an instance — every
// estimator before and after the loss. A nil report (the spec ran no fleet)
// has none.
func (f *FleetReport) Tables() []stats.Table {
	if f == nil {
		return nil
	}
	verdict := "EXACT"
	if !f.MergeExact {
		verdict = "DIVERGED"
	}
	parts := stats.Table{
		Title:     fmt.Sprintf("fleet collection (%d instances)", f.Instances),
		RowHeader: "instance",
		Columns:   []string{"flows", "samples", "failed"},
		Notes:     []string{fmt.Sprintf("merge %s, %d flows", verdict, f.MergedFlows)},
	}
	for _, in := range f.PerInstance {
		parts.Rows = append(parts.Rows, stats.TableRow{Label: strconv.Itoa(in.Instance), Cells: []float64{
			float64(in.Flows), float64(in.Samples), flag01(in.Failed),
		}})
	}
	if f.FailInstance < 0 {
		return []stats.Table{parts}
	}
	loss := stats.Table{
		Title: fmt.Sprintf("after losing instance %d (%d of %d flows survive)",
			f.FailInstance, f.DegradedFlows, f.MergedFlows),
		RowHeader: "estimator",
		Columns:   []string{"flowsLost", "flows", "degradedFlows", "medianRelErr", "degradedMedian", "aggRelErr", "degradedAgg"},
	}
	for _, r := range f.Rows {
		loss.Rows = append(loss.Rows, stats.TableRow{Label: r.Estimator, Cells: []float64{
			float64(r.FlowsLost), float64(r.Baseline.Flows), float64(r.Degraded.Flows),
			r.Baseline.MedianRelErr, r.Degraded.MedianRelErr, r.Baseline.AggRelErr, r.Degraded.AggRelErr,
		}})
	}
	return []stats.Table{parts, loss}
}

// loseInstance thins one estimator's report to what survives when instance
// fail of n dies: per-flow records that hashed onto the dead instance are
// gone, and the aggregate is re-derived from the survivors, by the report's
// own weights — the same re-derivation a collection tier would do.
// Aggregate-only reports pass through untouched: their single deliverable is
// not flow-partitioned.
func loseInstance(r measure.Report, n, fail int) (measure.Report, int) {
	if len(r.Flows) == 0 {
		return r, 0
	}
	kept := make([]measure.FlowEstimate, 0, len(r.Flows))
	for _, fe := range r.Flows {
		if fleet.Partition(fe.Key, n) != fail {
			kept = append(kept, fe)
		}
	}
	return r.WithFlows(kept), len(r.Flows) - len(kept)
}

// applyFleet runs the production collection chain over the run's captured
// sample stream, in process: a fleet.Router shards it over net.Pipes into
// f.Instances rlird servers, and a fleet.Frontend gathers their query APIs.
// Every count in the report is the front-end's answer — /flows, and /healthz
// before and after the failed instance stops answering. baseline is the
// run's lossless comparison, index-aligned with reports.
func applyFleet(f FleetSpec, cap *capture, truth *measure.Truth, baseline []measure.Comparison, reports []measure.Report, res *Result) (*FleetReport, error) {
	n := f.Instances
	rep := &FleetReport{Instances: n, FailInstance: -1}
	instances := memFleet{}
	urls := make([]string, n)
	defer func() {
		for _, s := range instances {
			_ = s.Shutdown(context.Background())
		}
	}()
	for i := range urls {
		s, err := service.New(service.Config{Shards: 2})
		if err != nil {
			return nil, err
		}
		urls[i] = "http://rlird-" + strconv.Itoa(i)
		instances[urls[i]] = s
	}
	router, err := fleet.NewRouter(fleet.Config{Endpoints: urls, Dial: func(url string, _ int) (fleet.Sink, error) {
		exporter, collector := net.Pipe()
		instances[url].ServeConn(collector)
		return service.NewClient(exporter, 0), nil
	}})
	if err != nil {
		return nil, err
	}
	router.RouteSamples(cap.samples)
	if err := router.Close(); err != nil {
		return nil, err
	}
	// Shutdown is the ingest barrier: it returns once every connection has
	// drained, and the query API keeps serving the final table.
	for _, url := range urls {
		if err := instances[url].Shutdown(context.Background()); err != nil {
			return nil, err
		}
	}
	front, err := fleet.NewFrontend(fleet.FrontendConfig{Instances: urls, Client: &http.Client{Transport: instances}})
	if err != nil {
		return nil, err
	}

	want := httptest.NewRecorder()
	queryapi.WriteFlows(want, res.Fleet, -1, nil)
	rep.MergeExact = bytes.Equal(get(front, "/flows").Body.Bytes(), want.Body.Bytes())
	var full, degraded fleet.HealthJSON
	if err := json.Unmarshal(get(front, "/healthz").Body.Bytes(), &full); err != nil {
		return nil, fmt.Errorf("fleet /healthz: %w", err)
	}
	for i, in := range full.PerInstance {
		rep.PerInstance = append(rep.PerInstance, FleetInstance{Instance: i, Flows: in.Flows, Samples: in.Samples})
	}
	rep.MergedFlows, rep.DegradedFlows = full.Flows, full.Flows
	if f.FailInstance == nil {
		return rep, nil
	}
	fail := *f.FailInstance
	rep.FailInstance = fail
	rep.PerInstance[fail].Failed = true
	delete(instances, urls[fail]) // already shut down; its round trips now fail
	if err := json.Unmarshal(get(front, "/healthz").Body.Bytes(), &degraded); err != nil {
		return nil, fmt.Errorf("fleet /healthz without instance %d: %w", fail, err)
	}
	rep.DegradedFlows = degraded.Flows

	thinned := make([]measure.Report, len(reports))
	lost := make([]int, len(reports))
	for i, r := range reports {
		thinned[i], lost[i] = loseInstance(r, n, fail)
	}
	rescored := measure.Compare(truth, thinned...)
	for i := range reports {
		rep.Rows = append(rep.Rows, FleetEstimatorRow{
			Estimator: reports[i].Estimator,
			FlowsLost: lost[i],
			Baseline:  baseline[i],
			Degraded:  rescored[i],
		})
	}
	return rep, nil
}

// memFleet is a fleet's rlird servers by query-API URL, and the front-end's
// transport to them: a request is served by its instance's handler in
// memory, and one to an instance no longer in the map fails, as one to an
// unreachable rlird does.
type memFleet map[string]*service.Server

func (m memFleet) RoundTrip(req *http.Request) (*http.Response, error) {
	s, ok := m["http://"+req.URL.Host]
	if !ok {
		return nil, fmt.Errorf("instance %s is down", req.URL.Host)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	return rec.Result(), nil
}

// get answers one GET of path from the front-end in memory.
func get(front *fleet.Frontend, path string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	front.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec
}
