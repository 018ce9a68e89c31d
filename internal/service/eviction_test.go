package service

import (
	"context"
	"net"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/netmeasure/rlir/internal/collector"
	"github.com/netmeasure/rlir/internal/packet"
	"github.com/netmeasure/rlir/internal/queryapi"
)

// TestServiceBoundedFlowTable drives a churning stream through a service
// configured with a flow cap and checks the whole eviction surface: the
// /healthz accounting, the new /metrics series, and the /rollup tiers.
func TestServiceBoundedFlowTable(t *testing.T) {
	s, err := New(Config{Shards: 2, MaxFlows: 32, MaxClasses: 16, Window: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())

	server, client := net.Pipe()
	s.ServeConn(server)
	// 2000 distinct single-sample flows through a 32-flow table.
	smps := make([]collector.Sample, 2000)
	for i := range smps {
		smps[i] = collector.Sample{
			Key: packet.FlowKey{
				Src: packet.Addr(0x0a000000 + i), Dst: packet.Addr(0x0b000000 + i/100),
				SrcPort: uint16(1024 + i%500), DstPort: 443, Proto: 6,
			},
			Est: time.Duration(50+i) * time.Microsecond,
		}
	}
	var buf []byte
	buf = collector.AppendSamples(buf, smps)
	go func() {
		client.Write(buf)
		client.Close()
	}()
	waitIngested(t, s, uint64(len(smps)))

	var health HealthJSON
	getJSON(t, s, "/healthz", &health)
	if health.Flows > 32 {
		t.Fatalf("healthz reports %d flows, cap 32", health.Flows)
	}
	if health.FlowsEvicted == 0 {
		t.Fatal("healthz reports no evictions after churning 2000 flows")
	}
	if health.FlowClasses == 0 || health.FlowClasses > 16 {
		t.Fatalf("healthz reports %d classes, want 1..16", health.FlowClasses)
	}

	var roll queryapi.RollupJSON
	getJSON(t, s, "/rollup", &roll)
	if roll.FlowsTracked != health.Flows || roll.FlowsEvicted == 0 {
		t.Fatalf("rollup accounting %+v inconsistent with healthz %+v", roll, health)
	}
	// Conservation across the HTTP surface: /flows + /rollup cover every
	// ingested sample.
	var flows []FlowJSON
	getJSON(t, s, "/flows", &flows)
	var total int64
	for _, f := range flows {
		total += f.Samples
	}
	for _, c := range roll.Classes {
		total += c.Samples
	}
	total += roll.Router.Samples
	if total != int64(len(smps)) {
		t.Fatalf("flows+rollup cover %d samples, ingested %d", total, len(smps))
	}

	req := httptest.NewRequest("GET", "/metrics", nil)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	body := rec.Body.String()
	for _, want := range []string{
		"rlird_flows_tracked ",
		"rlird_flows_evicted_total ",
		"rlird_flows_expired_total ",
		"rlird_flow_classes ",
		"rlird_flow_entries_recycled_total ",
		// One gauge per shard; the stream is drained, so every queue is empty.
		"rlird_shard_queue_depth{shard=\"0\"} 0\n",
		"rlird_shard_queue_depth{shard=\"1\"} 0\n",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}
	if strings.Contains(body, "rlird_flows_evicted_total 0\n") {
		t.Fatal("/metrics reports zero evictions after churn")
	}
	if strings.Contains(body, "rlird_flow_entries_recycled_total 0\n") {
		t.Fatal("/metrics reports no recycled entries after churning a full table")
	}
	// The per-shard gauges are the same cut as the total: they sum to it.
	var tracked, sum, shards int
	for _, line := range strings.Split(body, "\n") {
		name, v, ok := strings.Cut(line, " ")
		n, err := strconv.Atoi(v)
		switch {
		case !ok || err != nil:
		case name == "rlird_flows_tracked":
			tracked = n
		case strings.HasPrefix(name, "rlird_shard_flows{"):
			sum += n
			shards++
		}
	}
	if shards != 2 || tracked == 0 || sum != tracked {
		t.Fatalf("%d rlird_shard_flows gauges sum to %d, rlird_flows_tracked is %d; want 2 gauges summing to it", shards, sum, tracked)
	}
}

// TestServiceFlowWindowExpiry checks the idle-expiry path end to end: with
// a short FlowWindow, early flows fold into the rollup once later traffic
// arrives after the window has passed.
func TestServiceFlowWindowExpiry(t *testing.T) {
	s, err := New(Config{Shards: 1, FlowWindow: 50 * time.Millisecond, Window: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())

	server, client := net.Pipe()
	s.ServeConn(server)
	old := genSamples(100, 10)
	var buf []byte
	buf = collector.AppendSamples(nil, old)
	go client.Write(buf)
	waitIngested(t, s, 100)

	time.Sleep(100 * time.Millisecond) // let the window pass

	fresh := make([]collector.Sample, 50)
	for i := range fresh {
		fresh[i] = collector.Sample{
			Key: packet.FlowKey{Src: 0x7f000001, Dst: 0x7f000002, SrcPort: uint16(9000 + i), DstPort: 80, Proto: 17},
			Est: time.Millisecond,
		}
	}
	buf2 := collector.AppendSamples(nil, fresh)
	go func() {
		client.Write(buf2)
		client.Close()
	}()
	waitIngested(t, s, 150)

	waitFor(t, "idle flows to expire", func() bool {
		return s.Collector().Stats().Expired > 0
	})
	var health HealthJSON
	getJSON(t, s, "/healthz", &health)
	if health.FlowsExpired == 0 {
		t.Fatal("healthz reports no expiries")
	}
	if health.FlowsEvicted != 0 {
		t.Fatalf("no cap configured but healthz reports %d evictions", health.FlowsEvicted)
	}
}
