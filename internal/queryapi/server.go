package queryapi

import (
	"fmt"
	"net/http"
	"time"
)

// Metrics writes the Prometheus text exposition format (version 0.0.4) —
// the one writer behind rlird's and the fleet front-end's /metrics. A family's
// HELP and TYPE lines go out with its first sample, so a labelled family is
// the same call repeated and a family with no sample prints nothing.
type Metrics struct {
	w      http.ResponseWriter
	family string
}

// NewMetrics labels the response as exposition text and returns its writer.
func NewMetrics(w http.ResponseWriter) *Metrics {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	return &Metrics{w: w}
}

// Counter writes one sample of the counter family name. v is an integer or a
// float64; labels are name, value pairs.
func (m *Metrics) Counter(name, help string, v any, labels ...string) {
	m.sample("counter", name, help, v, labels)
}

// Gauge is Counter for a gauge family.
func (m *Metrics) Gauge(name, help string, v any, labels ...string) {
	m.sample("gauge", name, help, v, labels)
}

func (m *Metrics) sample(typ, name, help string, v any, labels []string) {
	if name != m.family {
		m.family = name
		fmt.Fprintf(m.w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	}
	var set string
	for i := 0; i+1 < len(labels); i += 2 {
		set += fmt.Sprintf(",%s=%q", labels[i], labels[i+1])
	}
	if set != "" {
		set = "{" + set[1:] + "}"
	}
	// %v renders integers in decimal and a float64 as %g does. A failed
	// write is the client's disconnect.
	fmt.Fprintf(m.w, "%s%s %v\n", name, set, v)
}

// readHeaderTimeout bounds how long a query-API client may take to send its
// request headers. Without it a peer that opens a connection and stalls
// mid-request-line holds a goroutine and a read buffer for ever. It is a
// fixed policy rather than a setting: no honest client of a local
// measurement API needs longer, and a hostile one gets no knob to widen.
// (A variable only so the slow-header test can shorten it.)
var readHeaderTimeout = 10 * time.Second

// idleTimeout bounds how long a keep-alive connection may wait for its next
// request. Without it an idle client holds a goroutine and its connection
// for ever. It is longer than a Go client's own idle-connection timeout
// (90 s by default), so a well-behaved pooled client closes first. Fixed
// policy, like readHeaderTimeout, and a variable only so the idle-connection
// test can shorten it.
var idleTimeout = 2 * time.Minute

// NewServer returns the HTTP server both query-API processes (rlird and the
// fleet front-end) serve h with.
func NewServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}
