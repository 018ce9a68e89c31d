package queryapi_test

import (
	"bufio"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/netmeasure/rlir/internal/queryapi"
)

// TestServerClosesSlowHeader is the slowloris case: a peer that sends half
// a request line and then nothing must be disconnected once the header
// deadline passes, not held for ever.
func TestServerClosesSlowHeader(t *testing.T) {
	defer queryapi.SetReadHeaderTimeout(50 * time.Millisecond)()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := queryapi.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t.Error("handler reached by a request whose headers never finished")
	}))
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		<-served
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET /flo")); err != nil {
		t.Fatal(err)
	}
	// Far beyond the shortened deadline, far below a hang: the read ends
	// because the server closed the connection, not because we gave up.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	start := time.Now()
	rest, err := io.ReadAll(conn)
	if err != nil {
		t.Fatalf("server kept the stalled connection open for %v (%v); read %q", time.Since(start), err, rest)
	}
}

// TestServerClosesIdleKeepAlive: a client that finishes one request on a
// keep-alive connection and then sends nothing must be disconnected once the
// idle deadline passes, not keep its connection and goroutine for ever.
func TestServerClosesIdleKeepAlive(t *testing.T) {
	defer queryapi.SetIdleTimeout(50 * time.Millisecond)()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := queryapi.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok")
	}))
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		<-served
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /flows HTTP/1.1\r\nHost: x\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || string(body) != "ok" || resp.Close {
		t.Fatalf("first request: body %q, err %v, close %v; want a kept-alive ok", body, err, resp.Close)
	}
	// As in the slow-header case: the read ends because the server closed
	// the idle connection, not because the test gave up.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	start := time.Now()
	rest, err := io.ReadAll(br)
	if err != nil {
		t.Fatalf("server kept the idle keep-alive connection open for %v (%v); read %q", time.Since(start), err, rest)
	}
}

// TestMetricsExposition pins the writer's text: one HELP/TYPE pair per
// family ahead of its first sample, labels quoted, integers in decimal and
// floats as %g.
func TestMetricsExposition(t *testing.T) {
	rec := httptest.NewRecorder()
	m := queryapi.NewMetrics(rec)
	m.Counter("x_total", "Things.", uint64(7))
	for i, stage := range []string{"a", "b"} {
		m.Counter("x_stage_seconds_total", "Per stage.", 0.5*float64(i), "stage", stage)
	}
	m.Gauge("x_depth", "Queue \"depth\".", 3, "shard", "0", "kind", `q"1`)
	const want = `# HELP x_total Things.
# TYPE x_total counter
x_total 7
# HELP x_stage_seconds_total Per stage.
# TYPE x_stage_seconds_total counter
x_stage_seconds_total{stage="a"} 0
x_stage_seconds_total{stage="b"} 0.5
# HELP x_depth Queue "depth".
# TYPE x_depth gauge
x_depth{shard="0",kind="q\"1"} 3
`
	if got := rec.Body.String(); got != want {
		t.Fatalf("exposition:\n%s\nwant:\n%s", got, want)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "text/plain; version=0.0.4" {
		t.Fatalf("Content-Type %q", ct)
	}
}
