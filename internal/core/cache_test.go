package core

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"bootstrap/internal/cache"
	"bootstrap/internal/frontend"
)

// Two structurally distinct modules in disjoint Steensgaard partitions.
// main calls both, so main is in every cluster's reachable-function set:
// an edit inside a module function must invalidate exactly the clusters
// of that module, while an edit in main would invalidate everything.
const cacheProgA = `
	int a, b;
	int *x, *y;
	lock m1, m2;
	lock *l1, *l2;
	void ints() {
		x = &a;
		y = x;
		y = &b;
	}
	void locks() {
		l1 = &m1;
		l2 = l1;
	}
	void main() {
		ints();
		locks();
	}
`

// cacheProgB is cacheProgA with ONE statement added inside locks().
const cacheProgB = `
	int a, b;
	int *x, *y;
	lock m1, m2;
	lock *l1, *l2;
	void ints() {
		x = &a;
		y = x;
		y = &b;
	}
	void locks() {
		l1 = &m1;
		l2 = l1;
		l2 = &m2;
	}
	void main() {
		ints();
		locks();
	}
`

// cacheProgC is cacheProgA with declarations and function definitions
// reordered, renumbering every VarID, FuncID and Loc without changing
// the program's meaning.
const cacheProgC = `
	lock *l1, *l2;
	lock m1, m2;
	int *x, *y;
	int a, b;
	void locks() {
		l1 = &m1;
		l2 = l1;
	}
	void ints() {
		x = &a;
		y = x;
		y = &b;
	}
	void main() {
		ints();
		locks();
	}
`

func cacheCfg(c *cache.Cache) Config {
	return Config{Mode: ModeAndersen, Workers: 1, Cache: c}
}

func TestCacheColdThenWarmIdentical(t *testing.T) {
	shared := cache.New(cache.Options{})
	cold, err := AnalyzeSource(cacheProgA, cacheCfg(shared))
	if err != nil {
		t.Fatal(err)
	}
	if cold.CacheStats.Hits != 0 || cold.CacheStats.Misses != int64(len(cold.Health)) {
		t.Errorf("cold run stats = %+v, want 0 hits / %d misses", cold.CacheStats, len(cold.Health))
	}
	warm, err := AnalyzeSource(cacheProgA, cacheCfg(shared))
	if err != nil {
		t.Fatal(err)
	}
	if warm.CacheStats.Misses != 0 || warm.CacheStats.Hits != int64(len(warm.Health)) {
		t.Errorf("warm run stats = %+v, want %d hits / 0 misses", warm.CacheStats, len(warm.Health))
	}
	for _, h := range warm.Health {
		if !h.Cached || h.Status != HealthOK {
			t.Errorf("warm cluster %d: health = %+v, want cached+ok", h.ClusterID, h)
		}
	}
	if got, want := aliasDump(warm), aliasDump(cold); got != want {
		t.Errorf("warm results diverge from fresh\n--- fresh\n%s--- warm\n%s", want, got)
	}
}

// TestCacheEditInvalidatesExactly is the incremental acceptance check: a
// one-statement edit inside locks() re-solves exactly the clusters whose
// slice reaches locks; the int-pointer clusters still hit.
func TestCacheEditInvalidatesExactly(t *testing.T) {
	shared := cache.New(cache.Options{})
	if _, err := AnalyzeSource(cacheProgA, cacheCfg(shared)); err != nil {
		t.Fatal(err)
	}
	b, err := AnalyzeSource(cacheProgB, cacheCfg(shared))
	if err != nil {
		t.Fatal(err)
	}
	cachedByID := map[int]bool{}
	for _, h := range b.Health {
		cachedByID[h.ClusterID] = h.Cached
	}
	lockClusters := map[int]bool{}
	for _, id := range b.ClustersOf(v(t, b, "l1")) {
		lockClusters[id] = true
		if cachedByID[id] {
			t.Errorf("lock cluster %d hit the cache across the edit in locks()", id)
		}
	}
	for _, id := range b.ClustersOf(v(t, b, "x")) {
		if !cachedByID[id] {
			t.Errorf("int cluster %d missed: the edit in locks() cannot affect it", id)
		}
	}
	if len(lockClusters) == 0 {
		t.Fatal("no clusters contain l1")
	}
	if got, want := b.CacheStats.Misses, int64(len(lockClusters)); got != want {
		t.Errorf("misses = %d, want %d (exactly the clusters reaching the edit)", got, want)
	}
	if got, want := b.CacheStats.Hits, int64(len(b.Health))-int64(len(lockClusters)); got != want {
		t.Errorf("hits = %d, want %d", got, want)
	}
}

// TestCacheRenumberingStillHits: the fingerprint is canonical, so a pure
// VarID/FuncID/Loc renumbering of an unchanged program hits on every
// cluster.
func TestCacheRenumberingStillHits(t *testing.T) {
	shared := cache.New(cache.Options{})
	a, err := AnalyzeSource(cacheProgA, cacheCfg(shared))
	if err != nil {
		t.Fatal(err)
	}
	c, err := AnalyzeSource(cacheProgC, cacheCfg(shared))
	if err != nil {
		t.Fatal(err)
	}
	// Premise: the reordering really renumbered the variables.
	if a.Prog.VarByName["x"] == c.Prog.VarByName["x"] {
		t.Fatal("test premise broken: reordered program kept the same VarIDs")
	}
	if c.CacheStats.Misses != 0 || c.CacheStats.Hits != int64(len(c.Health)) {
		t.Errorf("renumbered run stats = %+v, want %d hits / 0 misses", c.CacheStats, len(c.Health))
	}
	// Same aliasing facts, by name.
	exit := exitLoc(c)
	if !mustAlias(c, v(t, c, "l1"), v(t, c, "l2"), exit) {
		t.Error("renumbered warm run lost l1/l2 must-alias")
	}
	if mayAlias(c, v(t, c, "x"), v(t, c, "l1"), exit) {
		t.Error("renumbered warm run aliases across partitions")
	}
}

// TestCacheDiskCorruptionFallsBack: truncating every on-disk entry turns
// the warm run into a cold one — misses, never errors — with identical
// results.
func TestCacheDiskCorruptionFallsBack(t *testing.T) {
	dir := t.TempDir()
	cold, err := AnalyzeSource(cacheProgA, cacheCfg(cache.New(cache.Options{Dir: dir})))
	if err != nil {
		t.Fatal(err)
	}
	entries, err := filepath.Glob(filepath.Join(dir, "*.bsc"))
	if err != nil || len(entries) == 0 {
		t.Fatalf("no disk entries written (err=%v)", err)
	}
	for _, path := range entries {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, raw[:len(raw)/2], 0o644); err != nil {
			t.Fatal(err)
		}
	}
	warm, err := AnalyzeSource(cacheProgA, cacheCfg(cache.New(cache.Options{Dir: dir})))
	if err != nil {
		t.Fatal(err)
	}
	if warm.CacheStats.Hits != 0 || warm.CacheStats.Misses != int64(len(warm.Health)) {
		t.Errorf("corrupt-disk run stats = %+v, want all misses", warm.CacheStats)
	}
	if got, want := aliasDump(warm), aliasDump(cold); got != want {
		t.Errorf("corrupt-disk run diverges from fresh\n--- fresh\n%s--- got\n%s", want, got)
	}
}

// TestReanalyzeWarmStart: ApplyEdit's structural fallback, reanalyze,
// warms a fresh cache from the previous analysis' live engines when none
// is configured, so an unchanged program is all hits and a one-statement
// edit re-solves only the affected clusters.
func TestReanalyzeWarmStart(t *testing.T) {
	prev, err := AnalyzeSource(cacheProgA, Config{Mode: ModeAndersen, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	same, err := frontend.LowerSource(cacheProgA)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := reanalyze(context.Background(), prev, same)
	if err != nil {
		t.Fatal(err)
	}
	if a2.CacheStats.Misses != 0 || a2.CacheStats.Hits != int64(len(a2.Health)) {
		t.Errorf("unchanged reanalysis stats = %+v, want all hits", a2.CacheStats)
	}
	if got, want := aliasDump(a2), aliasDump(prev); got != want {
		t.Errorf("reanalysis of the unchanged program diverges\n--- prev\n%s--- got\n%s", want, got)
	}

	edited, err := frontend.LowerSource(cacheProgB)
	if err != nil {
		t.Fatal(err)
	}
	a3, err := reanalyze(context.Background(), prev, edited)
	if err != nil {
		t.Fatal(err)
	}
	if a3.CacheStats.Hits == 0 {
		t.Error("edited reanalysis should still hit the unaffected clusters")
	}
	if a3.CacheStats.Misses == 0 {
		t.Error("edited reanalysis should re-solve the affected clusters")
	}
	fresh, err := AnalyzeSource(cacheProgB, Config{Mode: ModeAndersen, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := aliasDump(a3), aliasDump(fresh); got != want {
		t.Errorf("edited reanalysis diverges from a fresh analysis\n--- fresh\n%s--- got\n%s", want, got)
	}
}
