package fleet

import "github.com/netmeasure/rlir/internal/packet"

// Partition maps a flow to its owning instance among n. It is THE fleet
// hash contract: exporters (Router), the scenario fleet report's estimator
// re-scoring, and any re-sharding tool must agree on it, because the exact-merge theorem only
// holds while every flow's traffic lands wholly on one instance.
func Partition(key packet.FlowKey, n int) int {
	return int(key.FastHash() % uint64(n))
}

// SinkIndex maps a flow into an endpoints × connsPerEndpoint sink grid:
// the endpoint is Partition(key, endpoints), and the connection within the
// endpoint uses the next hash "digits" (FastHash / endpoints, mod conns) so
// the two levels stay independent. With a single endpoint it reduces to
// FastHash mod connsPerEndpoint — exactly the per-connection assignment
// cmd/loadgen used before the fleet tier existed (pinned by test).
func SinkIndex(key packet.FlowKey, endpoints, connsPerEndpoint int) (endpoint, conn int) {
	h := key.FastHash()
	endpoint = int(h % uint64(endpoints))
	conn = int((h / uint64(endpoints)) % uint64(connsPerEndpoint))
	return endpoint, conn
}
