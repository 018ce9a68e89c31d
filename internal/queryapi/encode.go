package queryapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"sync"

	"github.com/netmeasure/rlir/internal/collector"
)

// WriteJSON writes v as indented JSON with the given status. The value is
// marshalled before anything is committed: one encoding/json refuses (a NaN
// or infinite float — the binary snapshot codec carries those verbatim from
// a peer) is a 500 carrying the error, never an empty body under status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err := enc.Encode(v)
	writeBody(w, status, buf.Bytes(), err)
}

// WriteFlows writes the /flows response for the first limit aggregates (all
// of them when limit is negative or exceeds the table): b.Render, then the
// parts under one Content-Length, with WriteJSON's rule for a table JSON
// cannot carry. b is the caller's to keep for its next response; a nil b is
// a fresh one.
func WriteFlows(w http.ResponseWriter, aggs []collector.FlowAgg, limit int, b *FlowsBody) {
	if b == nil {
		b = new(FlowsBody)
	}
	if err := b.Render(aggs, limit); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeHeader(w, http.StatusOK, b.Len())
	_, _ = b.WriteTo(w) // a failed write is the client's disconnect
}

// writeBody commits a fully encoded JSON body with its Content-Length, or a
// 500 carrying err when encoding failed.
func writeBody(w http.ResponseWriter, status int, body []byte, err error) {
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeHeader(w, status, len(body))
	_, _ = w.Write(body) // a failed write is the client's disconnect
}

// writeHeader commits status and the headers of a JSON body of n bytes.
func writeHeader(w http.ResponseWriter, status, n int) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(n))
	w.WriteHeader(status)
}

// FlowsBody is a /flows body's storage, kept by its renderer for the next
// response (rlird and the fleet front-end hold it on their free lists): the
// rows in contiguous parts, one buffer each. The zero value is empty and
// ready to use; it must not be copied once used.
type FlowsBody struct {
	parts []flowPart
	wg    sync.WaitGroup // the parts helpers render
}

// flowPart is one contiguous run of a body's rows and the buffer they are
// rendered into.
type flowPart struct {
	aggs        []collector.FlowAgg
	first, last bool // the part opens, or closes, the body's array
	buf         []byte
	err         error
	done        *sync.WaitGroup // the body's, for a part a helper renders
}

func (p *flowPart) render() {
	p.buf, p.err = appendRows(p.buf[:0], p.aggs, p.first, p.last)
	p.aggs = nil
}

// minPartRows is the fewest rows a part of a split rendering holds: some
// 50 µs of encoding, well over the few microseconds handing a part to a
// helper costs.
const minPartRows = 128

// Render renders the /flows body for the first limit aggregates (all of them
// when limit is negative or exceeds the table) into b: in min(GOMAXPROCS,
// rows / minPartRows) contiguous parts, at least one, the first on the
// calling goroutine and each other on a helper goroutine of its own. The
// parts concatenated are AppendFlowRows' bytes. Like AppendFlowRows it
// refuses a NaN or infinite float, naming the first such flow in key order;
// b's contents are then meaningless.
func (b *FlowsBody) Render(aggs []collector.FlowAgg, limit int) error {
	aggs = aggs[:flowRows(len(aggs), limit)]
	n := max(1, min(runtime.GOMAXPROCS(0), len(aggs)/minPartRows))
	if n > cap(b.parts) {
		b.parts = append(b.parts[:cap(b.parts)], make([]flowPart, n-cap(b.parts))...)
	}
	parts := b.parts[:n]
	b.parts = parts
	for k := range parts {
		p := &parts[k]
		p.aggs = aggs[k*len(aggs)/n : (k+1)*len(aggs)/n]
		p.first, p.last, p.done = k == 0, k == n-1, &b.wg
	}
	b.wg.Add(n - 1)
	for k := 1; k < n; k++ {
		helperParts <- &parts[k]
		go renderHelper()
	}
	parts[0].render()
	b.wg.Wait()
	for k := range parts {
		if parts[k].err != nil {
			return parts[k].err
		}
	}
	return nil
}

// helperParts hands each part after a body's first to the helper goroutine
// started for it. Every send is followed by one helper's start, so a send
// that finds the channel full waits only for helpers already started.
var helperParts = make(chan *flowPart, 64)

// renderHelper renders one part handed over on helperParts. It takes no
// arguments, so starting it allocates nothing.
func renderHelper() {
	p := <-helperParts
	p.render()
	p.done.Done()
}

// Len is the length of the body b last rendered.
func (b *FlowsBody) Len() int {
	n := 0
	for k := range b.parts {
		n += len(b.parts[k].buf)
	}
	return n
}

// WriteTo writes the body b last rendered to w, part by part.
func (b *FlowsBody) WriteTo(w io.Writer) (int64, error) {
	var n int64
	for k := range b.parts {
		m, err := w.Write(b.parts[k].buf)
		n += int64(m)
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// Size is the storage b holds, the size a free list bounds.
func (b *FlowsBody) Size() int {
	n := 0
	for _, p := range b.parts[:cap(b.parts)] {
		n += cap(p.buf)
	}
	return n
}

// flowRows is the number of rows /flows renders from a table of n flows
// under limit: all of them when limit is negative or exceeds the table.
func flowRows(n, limit int) int {
	if limit < 0 || limit > n {
		return n
	}
	return limit
}

// flowRowMaxLen bounds one encoded /flows row, separator included: the 276
// bytes of keys, indentation and punctuation plus every value at its widest
// (two dotted quads, two ports, the protocol, three floats of at most 25
// bytes, seven 64-bit integers of at most 20). TestFlowRowMaxLen pins it
// against the encoder.
const flowRowMaxLen = 276 + 2*15 + 2*5 + 3 + 3*25 + 7*20

// AppendFlowRows appends the /flows response for the first limit aggregates
// (all of them when limit is negative or exceeds the table) to dst. The bytes
// are exactly what json.Encoder with SetIndent("", "  ") emits for the same
// aggregates' FlowRow values — key order, omitempty on first_ns/last_ns,
// encoding/json's float format, "[]\n" for no rows — written straight from
// the aggregates with no intermediate rows. dst is grown once up front to
// the rows' worst case (flowRowMaxLen each), so rendering into a buffer that
// has held as many rows allocates nothing. Like encoding/json it refuses a
// NaN or infinite float: the error names the flow, and dst's new contents
// are then meaningless.
func AppendFlowRows(dst []byte, aggs []collector.FlowAgg, limit int) ([]byte, error) {
	return appendRows(dst, aggs[:flowRows(len(aggs), limit)], true, true)
}

// appendRows appends aggs as a run of /flows rows to dst: opening the array
// when first, each row after a separator otherwise, and closing the array
// when last. AppendFlowRows is the one run of a whole table; Render's parts
// are consecutive runs of one.
func appendRows(dst []byte, aggs []collector.FlowAgg, first, last bool) ([]byte, error) {
	dst = slices.Grow(dst, len(aggs)*flowRowMaxLen+len("[]\n"))
	if len(aggs) == 0 {
		return append(dst, "[]\n"...), nil
	}
	open := ",\n  {\n    \"src\": \""
	if first {
		open = "[\n  {\n    \"src\": \""
	}
	for i := range aggs {
		a := &aggs[i]
		mean, std, truth := a.Est.Mean(), a.Est.Std(), a.True.Mean()
		if !finite(mean) || !finite(std) || !finite(truth) {
			return dst, fmt.Errorf("queryapi: flow %v has a non-finite mean or deviation (est %v ± %v, true %v), which JSON cannot carry", a.Key, mean, std, truth)
		}
		dst = append(dst, open...)
		open = ",\n  {\n    \"src\": \""
		dst = a.Key.Src.AppendTo(dst)
		dst = append(dst, "\",\n    \"dst\": \""...)
		dst = a.Key.Dst.AppendTo(dst)
		dst = append(dst, "\",\n    \"src_port\": "...)
		dst = strconv.AppendUint(dst, uint64(a.Key.SrcPort), 10)
		dst = append(dst, ",\n    \"dst_port\": "...)
		dst = strconv.AppendUint(dst, uint64(a.Key.DstPort), 10)
		dst = append(dst, ",\n    \"proto\": "...)
		dst = strconv.AppendUint(dst, uint64(a.Key.Proto), 10)
		dst = append(dst, ",\n    \"samples\": "...)
		dst = strconv.AppendInt(dst, a.Est.N(), 10)
		dst = append(dst, ",\n    \"est_mean_ns\": "...)
		dst = appendFloatJSON(dst, mean)
		dst = append(dst, ",\n    \"est_std_ns\": "...)
		dst = appendFloatJSON(dst, std)
		dst = append(dst, ",\n    \"est_p50_ns\": "...)
		dst = strconv.AppendInt(dst, int64(a.Sketch.Quantile(0.5)), 10)
		dst = append(dst, ",\n    \"est_p99_ns\": "...)
		dst = strconv.AppendInt(dst, int64(a.Sketch.Quantile(0.99)), 10)
		dst = append(dst, ",\n    \"true_mean_ns\": "...)
		dst = appendFloatJSON(dst, truth)
		dst = append(dst, ",\n    \"packets\": "...)
		dst = strconv.AppendUint(dst, a.Packets, 10)
		dst = append(dst, ",\n    \"bytes\": "...)
		dst = strconv.AppendUint(dst, a.Bytes, 10)
		if a.First != 0 {
			dst = append(dst, ",\n    \"first_ns\": "...)
			dst = strconv.AppendInt(dst, int64(a.First), 10)
		}
		if a.Last != 0 {
			dst = append(dst, ",\n    \"last_ns\": "...)
			dst = strconv.AppendInt(dst, int64(a.Last), 10)
		}
		dst = append(dst, "\n  }"...)
	}
	if last {
		dst = append(dst, "\n]\n"...)
	}
	return dst, nil
}

func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// appendFloatJSON appends a finite float64 the way encoding/json does: the
// shortest decimal that round-trips, in 'f' form unless the magnitude is
// below 1e-6 or at least 1e21, then in 'e' form with a two-digit negative
// exponent's leading zero dropped (e-09 becomes e-9).
func appendFloatJSON(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}
