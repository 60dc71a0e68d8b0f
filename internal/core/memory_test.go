package core

import (
	"runtime"
	"testing"

	"bootstrap/internal/synth"
)

// TestRetainedHeapBounded: a solved analysis keeps its engines' summaries
// and value sets, not walk scratch sized to the whole program. Per-engine
// scratch would retain at least clusters × nodes × 20 bytes (one dedup
// slot per location); the bound is a quarter of clusters × nodes × 28
// bytes, the scratch's size per location when the bound was set. Not
// parallel: other tests' allocations would enter the reading.
func TestRetainedHeapBounded(t *testing.T) {
	b, ok := synth.FindBenchmark("mt_daapd")
	if !ok {
		t.Fatal("no mt_daapd benchmark")
	}
	src := synth.Generate(b, 0.12)
	// Two collections empty the scratch pool other tests' walks filled.
	runtime.GC()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	a, err := AnalyzeSource(src, Config{Mode: ModeAndersen})
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	retained := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	clusters, nodes := len(a.Clusters), len(a.Prog.Nodes)
	limit := int64(clusters) * int64(nodes) * 28 / 4
	runtime.KeepAlive(a)
	t.Logf("%d clusters × %d nodes: %.1f MB retained, limit %.1f MB",
		clusters, nodes, float64(retained)/(1<<20), float64(limit)/(1<<20))
	if retained >= limit {
		t.Errorf("analysis retains %d bytes after GC, want < %d (a quarter of clusters × nodes × 28 bytes)", retained, limit)
	}
}
