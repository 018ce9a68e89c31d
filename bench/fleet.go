package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"github.com/netmeasure/rlir/internal/collector"
	"github.com/netmeasure/rlir/internal/fleet"
	"github.com/netmeasure/rlir/internal/service"
)

// pipeline is one running collection tier: the rlird instances, the router
// feeding them, and the front-end answering for them, all behind real
// loopback listeners. Everything from router down is system under test; the
// harness only calls public functions and speaks HTTP.
type pipeline struct {
	servers  []*service.Server
	router   *fleet.Router
	httpSrv  *http.Server
	httpDone chan struct{}
	base     string   // front-end URL
	instURLs []string // per-instance query URLs, for the /snapshot probe
	client   *http.Client
	sent     uint64 // samples handed to RouteSamples so far
	closed   bool
}

// startPipeline brings a fleet up and returns once the front-end answers
// /healthz with every instance ok. Its wall time is one setup_s sample.
func startPipeline(w workload) (*pipeline, error) {
	p := &pipeline{client: &http.Client{Transport: &http.Transport{}}}
	ok := false
	defer func() {
		if !ok {
			p.close()
		}
	}()
	endpoints := make([]string, fleetInstances)
	for i := range endpoints {
		s, err := service.New(service.Config{
			Listen:   "127.0.0.1:0",
			HTTP:     "127.0.0.1:0",
			Shards:   fleetShards,
			MaxFlows: w.maxFlows,
		})
		if err != nil {
			return nil, fmt.Errorf("start rlird %d: %w", i, err)
		}
		p.servers = append(p.servers, s)
		endpoints[i] = s.Addr().String()
		p.instURLs = append(p.instURLs, "http://"+s.HTTPAddr().String())
	}
	front, err := fleet.NewFrontend(fleet.FrontendConfig{Instances: p.instURLs})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p.httpSrv = &http.Server{Handler: front.Handler()}
	p.httpDone = make(chan struct{})
	go func() {
		defer close(p.httpDone)
		_ = p.httpSrv.Serve(ln) // returns ErrServerClosed on close()
	}()
	p.base = "http://" + ln.Addr().String()
	p.router, err = fleet.NewRouter(fleet.Config{
		Endpoints: endpoints,
		Name:      "bench",
		Batch:     frameSamples,
		Dial: func(endpoint string, _ int) (fleet.Sink, error) {
			return service.DialWith(service.DialOptions{Addr: endpoint, Reliable: w.reliable})
		},
	})
	if err != nil {
		return nil, err
	}
	status, body, err := p.get("/healthz")
	if err != nil {
		return nil, err
	}
	var health fleet.HealthJSON
	if err := json.Unmarshal(body, &health); err != nil || status != http.StatusOK || health.Status != "ok" {
		return nil, fmt.Errorf("fleet not healthy after start: status %d, body %s", status, body)
	}
	ok = true
	return p, nil
}

// get issues one front-end query and reads the whole body.
func (p *pipeline) get(path string) (int, []byte, error) {
	return httpGet(p.client, p.base+path)
}

func httpGet(c *http.Client, url string) (int, []byte, error) {
	resp, err := c.Get(url)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// route hands samples to the router in frameSamples batches, each under a
// span when tracing.
func (p *pipeline) route(samples []collector.Sample, rec *recorder, parent int) {
	for off := 0; off < len(samples); off += frameSamples {
		end := min(off+frameSamples, len(samples))
		id := rec.begin("fleet.RouteSamples", parent)
		p.router.RouteSamples(samples[off:end])
		rec.end(id)
	}
	p.sent += uint64(len(samples))
}

// ingested sums what the instances' collectors have accepted.
func (p *pipeline) ingested() uint64 {
	var n uint64
	for _, s := range p.servers {
		n += s.Collector().SamplesIngested()
	}
	return n
}

// settleTimeout bounds the wait for routed samples to become queryable; a
// fleet that has not caught up by then has lost samples.
const settleTimeout = 30 * time.Second

// flushAndSettle flushes the router and waits until every routed sample is
// ingested. It returns the settle time: Flush return to ingested == sent.
func (p *pipeline) flushAndSettle(rec *recorder, parent int) (time.Duration, error) {
	id := rec.begin("fleet.Flush", parent)
	err := p.router.Flush()
	rec.end(id)
	if err != nil {
		return 0, fmt.Errorf("router flush: %w", err)
	}
	id = rec.begin("service.settle", parent)
	defer rec.end(id)
	start := time.Now()
	for p.ingested() < p.sent {
		if time.Since(start) > settleTimeout {
			return 0, fmt.Errorf("fleet ingested %d of %d routed samples after %v", p.ingested(), p.sent, settleTimeout)
		}
		time.Sleep(100 * time.Microsecond)
	}
	return time.Since(start), nil
}

// dropped sums the router's discarded items over endpoints.
func (p *pipeline) dropped() (dropped, frames uint64) {
	for _, st := range p.router.Stats() {
		dropped += st.Dropped
		frames += st.FramesSent
	}
	return dropped, frames
}

// instanceCounters sums the named /metrics counters over the instances,
// scraped over HTTP like an operator's monitoring would.
func (p *pipeline) instanceCounters(names ...string) (map[string]uint64, error) {
	out := make(map[string]uint64, len(names))
	for _, u := range p.instURLs {
		status, body, err := httpGet(p.client, u+"/metrics")
		if err != nil {
			return nil, err
		}
		if status != http.StatusOK {
			return nil, fmt.Errorf("%s/metrics: status %d", u, status)
		}
		sc := bufio.NewScanner(bytes.NewReader(body))
		for sc.Scan() {
			name, val, ok := strings.Cut(sc.Text(), " ")
			if !ok || strings.HasPrefix(name, "#") {
				continue
			}
			for _, want := range names {
				if name == want {
					n, err := strconv.ParseUint(val, 10, 64)
					if err != nil {
						return nil, fmt.Errorf("%s/metrics: %s: %w", u, name, err)
					}
					out[name] += n
				}
			}
		}
	}
	return out, nil
}

// close stops the router, the front-end and the instances, and waits for
// their goroutines. Safe on a partly started pipeline and idempotent.
func (p *pipeline) close() {
	if p.closed {
		return
	}
	p.closed = true
	if p.router != nil {
		_ = p.router.Close() // a dead sink already surfaced from Flush
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if p.httpSrv != nil {
		_ = p.httpSrv.Shutdown(ctx)
		<-p.httpDone
	}
	for _, s := range p.servers {
		_ = s.Shutdown(ctx)
	}
	p.client.CloseIdleConnections()
	// The front-end fans out through http.DefaultClient; drop its idle
	// connections to the instances that just went away.
	http.DefaultClient.CloseIdleConnections()
}
