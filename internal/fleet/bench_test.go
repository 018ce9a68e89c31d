package fleet_test

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/netmeasure/rlir/internal/collector"
	"github.com/netmeasure/rlir/internal/fleet"
	"github.com/netmeasure/rlir/internal/packet"
	"github.com/netmeasure/rlir/internal/scenario"
	"github.com/netmeasure/rlir/internal/service"
)

// benchSamples builds n samples spread over nFlows distinct flows.
func benchSamples(n, nFlows int) []collector.Sample {
	out := make([]collector.Sample, n)
	for i := range out {
		f := i % nFlows
		out[i] = collector.Sample{
			Key: packet.FlowKey{
				Src: packet.Addr(0x0a000000 + f), Dst: packet.Addr(0x0a800000 + f),
				SrcPort: uint16(1024 + f), DstPort: 7171, Proto: 6,
			},
			Est:  time.Duration(50+i%400) * time.Microsecond,
			True: time.Duration(60+i%400) * time.Microsecond,
		}
	}
	return out
}

// BenchmarkFleetIngest4x measures aggregate ingest throughput of a fleet of
// four rlird instances fed through fleet.Router (partition + frame + send +
// shard ingest), reported as samples/s.
func BenchmarkFleetIngest4x(b *testing.B) {
	const (
		instances = 4
		batch     = 4096
	)
	servers := make([]*service.Server, instances)
	endpoints := make([]string, instances)
	for i := range servers {
		s, err := service.New(service.Config{Listen: "127.0.0.1:0", Shards: 4})
		if err != nil {
			b.Fatal(err)
		}
		servers[i] = s
		endpoints[i] = s.Addr().String()
	}
	r, err := fleet.NewRouter(fleet.Config{
		Endpoints:        endpoints,
		ConnsPerEndpoint: 2,
		Name:             "bench",
		Batch:            512,
		Dial: func(endpoint string, conn int) (fleet.Sink, error) {
			return service.Dial("tcp", endpoint, 0)
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	smps := benchSamples(batch, 64)
	total := uint64(b.N) * batch
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.RouteSamples(smps)
	}
	if err := r.Flush(); err != nil {
		b.Fatal(err)
	}
	for {
		var got uint64
		for _, s := range servers {
			got += s.Collector().SamplesIngested()
		}
		if got >= total {
			break
		}
		time.Sleep(50 * time.Microsecond)
	}
	b.StopTimer()
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "samples/s")
	if err := r.Close(); err != nil {
		b.Fatal(err)
	}
	for _, s := range servers {
		_ = s.Shutdown(context.Background())
	}
}

// queryFleet boots a fleet of rlird instances, streams samples into it over
// raw TCP through a fleet.Router, and returns the URL of a scatter-gather
// front-end over it, served from a real loopback listener.
func queryFleet(b *testing.B, instances, shards int, samples []collector.Sample) string {
	b.Helper()
	servers := make([]*service.Server, instances)
	urls := make([]string, instances)
	endpoints := make([]string, instances)
	for i := range servers {
		s, err := service.New(service.Config{Listen: "127.0.0.1:0", HTTP: "127.0.0.1:0", Shards: shards})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { _ = s.Shutdown(context.Background()) })
		servers[i] = s
		endpoints[i] = s.Addr().String()
		urls[i] = "http://" + s.HTTPAddr().String()
	}
	r, err := fleet.NewRouter(fleet.Config{
		Endpoints: endpoints,
		Name:      "bench",
		Dial: func(endpoint string, conn int) (fleet.Sink, error) {
			return service.Dial("tcp", endpoint, 0)
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	r.RouteSamples(samples)
	if err := r.Close(); err != nil {
		b.Fatal(err)
	}
	for {
		var got uint64
		for _, s := range servers {
			got += s.Collector().SamplesIngested()
		}
		if got >= uint64(len(samples)) {
			break
		}
		time.Sleep(50 * time.Microsecond)
	}
	front, err := fleet.NewFrontend(fleet.FrontendConfig{Instances: urls})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(front.Handler())
	b.Cleanup(ts.Close)
	return ts.URL
}

// BenchmarkFleetScatterGather measures the front-end's /flows query latency
// over a populated fleet of four instances, reported as ms/query: one
// fan-out to four /snapshot endpoints, an exact merge, and the render.
func BenchmarkFleetScatterGather(b *testing.B) {
	benchQuery(b, queryFleet(b, 4, 4, benchSamples(1<<15, 256)), "/flows")
}

// readPathFleet is the pipeline benchmark's read_path query stage in
// isolation: a 50 ms fattree-allpairs capture in two rlird instances of two
// shards each (uncapped tables). It returns the front-end's URL.
func readPathFleet(b *testing.B) string {
	b.Helper()
	sc, ok := scenario.Get("fattree-allpairs")
	if !ok {
		b.Fatal("scenario fattree-allpairs is not registered")
	}
	spec := sc.Spec
	spec.Duration = 50 * time.Millisecond
	tr, err := scenario.Export(spec, 1)
	if err != nil {
		b.Fatal(err)
	}
	return queryFleet(b, 2, 2, tr.Samples)
}

// benchQuery issues b.N closed-loop GETs of base+path and reports ms/query,
// the response size, the front-end's own per-stage price of a query (its
// rlirfleet_query_stage_seconds_total counters over b.N), and what its idle
// query buffers retain afterwards (rlirfleet_query_buffer_bytes).
func benchQuery(b *testing.B, base, path string) {
	b.Helper()
	url := base + path
	var size int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Get(url)
		if err != nil {
			b.Fatal(err)
		}
		n, err := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil {
			b.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("%s status %d", url, resp.StatusCode)
		}
		size = n
	}
	b.StopTimer()
	b.ReportMetric(b.Elapsed().Seconds()*1e3/float64(b.N), "ms/query")
	b.ReportMetric(float64(size), "bytes")
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		b.Fatal(err)
	}
	defer resp.Body.Close()
	for sc := bufio.NewScanner(resp.Body); sc.Scan(); {
		var stage string
		var v float64
		if n, _ := fmt.Sscanf(sc.Text(), "rlirfleet_query_stage_seconds_total{stage=%q} %g", &stage, &v); n == 2 {
			b.ReportMetric(v*1e3/float64(b.N), stage+"-ms/query")
		} else if n, _ := fmt.Sscanf(sc.Text(), "rlirfleet_query_buffer_bytes %g", &v); n == 1 {
			b.ReportMetric(v, "idle-buffer-bytes")
		}
	}
}

// BenchmarkFleetFlowsReadPath measures one merged /flows on the read_path
// fleet: fan-out to two binary /snapshot endpoints, decode, exact merge, and
// the row encoder.
func BenchmarkFleetFlowsReadPath(b *testing.B) {
	benchQuery(b, readPathFleet(b), "/flows")
}

// BenchmarkFleetComparisonReadPath is the same query without the row
// encoder: /comparison folds the merged table into one row.
func BenchmarkFleetComparisonReadPath(b *testing.B) {
	benchQuery(b, readPathFleet(b), "/comparison")
}
