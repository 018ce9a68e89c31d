package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer's public functions, recorded by the
// harness from outside the layer. Names are "<package>.<operation>", so the
// package prefix is the layer. Parent is the index of the span that caused
// this one (-1 for the root); every span of one workload run shares Run.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Run    string `json:"run"`
}

// recorder keeps spans in memory and writes them out when the run ends. A
// nil *recorder records nothing, so untraced runs pay one nil check per
// call site. Spans may begin and end on different goroutines (the mixed
// stage's generator and query client), hence the mutex.
type recorder struct {
	mu     sync.Mutex
	t0     time.Time
	run    string
	paused bool
	spans  []span
}

func newRecorder(run string) *recorder {
	return &recorder{t0: time.Now(), run: run}
}

// begin opens a span under parent and returns its id (-1 when not
// recording).
func (r *recorder) begin(name string, parent int) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.paused {
		return -1
	}
	r.spans = append(r.spans, span{Name: name, Start: int64(time.Since(r.t0)), Parent: parent, Run: r.run})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// pause stops (or resumes) recording, for the paired untraced half of the
// overhead measurement.
func (r *recorder) pause(p bool) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.paused = p
	r.mu.Unlock()
}

// totalUnder sums the durations of the finished spans called name whose
// parent span is called parentName.
func (r *recorder) totalUnder(name, parentName string) time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	var d int64
	for _, s := range r.spans {
		if s.Name == name && s.Parent >= 0 && r.spans[s.Parent].Name == parentName && s.End > s.Start {
			d += s.End - s.Start
		}
	}
	return time.Duration(d)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its child spans cover. Children may overlap each other
// (parallel fetches) and may overrun the parent; the covered part is the
// union of the child intervals clipped to the parent.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		dur := s.End - s.Start
		if dur < 0 {
			dur = 0
		}
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		var covered int64
		edge := s.Start // everything before edge is already counted
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[i] = dur - covered
	}
	return out
}

// selfByName sums self time per span name.
func selfByName(spans []span) map[string]time.Duration {
	out := make(map[string]time.Duration)
	for i, self := range selfTimes(spans) {
		out[spans[i].Name] += time.Duration(self)
	}
	return out
}

// traceFile is what a traced run leaves in bench/out.
type traceFile struct {
	Workload string                   `json:"workload"`
	Seed     int64                    `json:"seed"`
	SelfNs   map[string]time.Duration `json:"self_ns_by_name"`
	Spans    []span                   `json:"spans"`
}

// write stores the spans and their per-name self times as JSON.
func (r *recorder) write(path, workload string, seed int64) error {
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	r.mu.Unlock()
	data, err := json.Marshal(traceFile{Workload: workload, Seed: seed, SelfNs: selfByName(spans), Spans: spans})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
