package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer. Spans of one op share Op; a
// span's self time is its duration minus the time its children cover.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for an op's root spans
	Op     int    `json:"op"`
	Layer  string `json:"layer"`
	Call   string `json:"call"`
	Start  int64  `json:"start_ns"` // since the run began
	End    int64  `json:"end_ns"`
	// Self and SelfAlloc exclude the children's time and allocations.
	Self      int64  `json:"self_ns"`
	SelfAlloc uint64 `json:"self_alloc_bytes"`
}

// recorder keeps the spans of a traced run in memory. Calls are timed
// from a single goroutine, so spans nest strictly.
type recorder struct {
	t0    time.Time
	op    int
	spans []span
	open  []openSpan
}

type openSpan struct {
	idx                 int
	alloc0              uint64
	childNS, childAlloc uint64
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// nextOp starts a new op id and returns the index of its first span.
func (r *recorder) nextOp() int {
	r.op++
	return len(r.spans)
}

// time runs f inside a span of layer around the named public call.
func (r *recorder) time(layer, call string, f func()) {
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.spans[r.open[n-1].idx].ID
	}
	idx := len(r.spans)
	r.spans = append(r.spans, span{ID: idx, Parent: parent, Op: r.op, Layer: layer, Call: call})
	r.open = append(r.open, openSpan{idx: idx, alloc0: allocatedBytes()})
	r.spans[idx].Start = int64(time.Since(r.t0))

	f()

	end := int64(time.Since(r.t0))
	alloc := allocatedBytes()
	top := r.open[len(r.open)-1]
	r.open = r.open[:len(r.open)-1]
	s := &r.spans[idx]
	s.End = end
	dur, used := uint64(end-s.Start), alloc-top.alloc0
	s.Self = int64(dur - min(dur, top.childNS))
	s.SelfAlloc = used - min(used, top.childAlloc)
	if n := len(r.open); n > 0 {
		r.open[n-1].childNS += dur
		r.open[n-1].childAlloc += used
	}
}

// layerSelf sums the self time and allocations per layer over spans.
func layerSelf(spans []span) (ns map[string]int64, alloc map[string]uint64) {
	ns, alloc = map[string]int64{}, map[string]uint64{}
	for _, s := range spans {
		ns[s.Layer] += s.Self
		alloc[s.Layer] += s.SelfAlloc
	}
	return ns, alloc
}

// write saves the spans as JSON lines under dir.
func (r *recorder) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("write spans: %w", err)
	}
	return path, nil
}
