package queryapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"slices"
	"strconv"

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
// of them when limit is negative or exceeds the table) — AppendFlowRows into
// body's storage, with WriteJSON's rule for a table JSON cannot carry — and
// returns the body's storage for the caller's next response. A nil body is a
// fresh one.
func WriteFlows(w http.ResponseWriter, aggs []collector.FlowAgg, limit int, body []byte) []byte {
	body, err := AppendFlowRows(body[:0], aggs, limit)
	writeBody(w, http.StatusOK, body, err)
	return body
}

// writeBody commits a fully encoded JSON body with its Content-Length, or a
// 500 carrying err when encoding failed.
func writeBody(w http.ResponseWriter, status int, body []byte, err error) {
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	_, _ = w.Write(body) // a failed write is the client's disconnect
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
	aggs = aggs[:flowRows(len(aggs), limit)]
	dst = slices.Grow(dst, len(aggs)*flowRowMaxLen+len("[]\n"))
	if len(aggs) == 0 {
		return append(dst, "[]\n"...), nil
	}
	open := "[\n  {\n    \"src\": \""
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
	return append(dst, "\n]\n"...), nil
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
