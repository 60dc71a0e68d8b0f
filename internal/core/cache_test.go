package core

import (
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"bootstrap/internal/cache"
	"bootstrap/internal/frontend"
	"bootstrap/internal/synth"
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

// TestFingerprintsMatchPerCallKeys: an analysis keys its clusters
// through one table its workers share, built once devirtualization has
// added its nodes and rewired its edges. On driver.cpl, whose indirect
// call devirtualization expands, every key must equal the per-call
// cache.NewCanon key of the final program, and a warm re-run must hit
// every cluster. A run without a cache builds no table.
func TestFingerprintsMatchPerCallKeys(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("..", "..", "testdata", "driver.cpl"))
	if err != nil {
		t.Fatal(err)
	}
	if p, err := frontend.LowerSource(string(src)); err != nil || !frontend.HasIndirectCalls(p) {
		t.Fatalf("test premise broken: driver.cpl has no indirect call to devirtualize (err %v)", err)
	}
	cfg := Config{Mode: ModeAndersen, Workers: 2, Cache: cache.New(cache.Options{})}
	cold, err := AnalyzeSource(string(src), cfg)
	if err != nil {
		t.Fatal(err)
	}
	fps := cold.Fingerprints()
	if len(fps) != len(cold.Clusters) {
		t.Fatalf("%d fingerprints for %d clusters", len(fps), len(cold.Clusters))
	}
	params := cache.Params{MaxCond: maxCond, Budget: cfg.ClusterBudget}
	for _, c := range cold.Clusters {
		want := cache.NewCanon(cold.Prog, cold.Steens, cold.CallGraph, c, params).Key().String()
		if fps[c.ID] != want {
			t.Errorf("cluster %d: Fingerprints %s, per-call NewCanon %s", c.ID, fps[c.ID], want)
		}
	}
	warm, err := AnalyzeSource(string(src), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if warm.CacheStats.Misses != 0 || warm.CacheStats.Hits != int64(len(warm.Clusters)) {
		t.Errorf("warm run stats = %+v, want %d hits / 0 misses", warm.CacheStats, len(warm.Clusters))
	}
	cfg.Cache = nil
	if bare, err := AnalyzeSource(string(src), cfg); err != nil || bare.canons != nil {
		t.Errorf("run without a cache built a key table (err %v)", err)
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

// warmStartEnv marks a re-exec'd test binary as the fresh process of
// TestWarmStartFromDiskInFreshProcess. Its value is the parent's temp
// directory: the shared cache lives under it in cache/, and the child
// writes its runs to child.json.
const warmStartEnv = "BOOTSTRAP_WARM_START_DIR"

// warmStartRows is a representative slice of Table 1 at scale 0.12:
// tiny, mid-sized, low-overlap and high-overlap workloads.
var warmStartRows = []string{"sock", "ctrace", "autofs", "raid", "mt_daapd"}

// warmStartRun is one row's analysis as one process saw it.
type warmStartRun struct {
	Row      string
	Clusters int
	Stats    cache.Stats
	Dump     string
}

// analyzeWarmStartRows analyzes every warmStartRows workload against
// one disk-backed cache rooted at dir. The Andersen threshold is the
// paper's 60 scaled to the workload scale, as benchtab scales it.
func analyzeWarmStartRows(t *testing.T, dir string, workers int) []warmStartRun {
	t.Helper()
	c := cache.New(cache.Options{Dir: dir})
	var runs []warmStartRun
	for _, name := range warmStartRows {
		b, ok := synth.FindBenchmark(name)
		if !ok {
			t.Fatalf("unknown benchmark %s", name)
		}
		a, err := AnalyzeSource(synth.Generate(b, 0.12), Config{
			Mode: ModeAndersen, Workers: workers, AndersenThreshold: 7, Cache: c,
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		runs = append(runs, warmStartRun{Row: name, Clusters: len(a.Clusters), Stats: a.CacheStats, Dump: aliasDump(a)})
	}
	return runs
}

// TestWarmStartChild is not a test of its own: it is the body of the
// fresh process TestWarmStartFromDiskInFreshProcess re-execs.
func TestWarmStartChild(t *testing.T) {
	root := os.Getenv(warmStartEnv)
	if root == "" {
		t.Skip("not a warm-start child")
	}
	blob, err := json.Marshal(analyzeWarmStartRows(t, filepath.Join(root, "cache"), 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "child.json"), blob, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestWarmStartFromDiskInFreshProcess: a cold analysis fills the disk
// tier, and a second OS process with its own cache on that directory
// must start fully warm — every cluster a hit, none a miss — and answer
// exactly as the cold run did. A cache key that depends on anything
// process-local (addresses, IDs of a previous run, the process itself)
// passes every in-process test and fails only here.
func TestWarmStartFromDiskInFreshProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("re-execs the test binary")
	}
	root := t.TempDir()
	cold := analyzeWarmStartRows(t, filepath.Join(root, "cache"), 8)

	cmd := exec.Command(os.Args[0], "-test.run", "^TestWarmStartChild$")
	cmd.Env = append(os.Environ(), warmStartEnv+"="+root)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("warm-start child: %v\n%s", err, out)
	}
	blob, err := os.ReadFile(filepath.Join(root, "child.json"))
	if err != nil {
		t.Fatal(err)
	}
	var warm []warmStartRun
	if err := json.Unmarshal(blob, &warm); err != nil {
		t.Fatal(err)
	}
	if len(warm) != len(cold) {
		t.Fatalf("child analyzed %d rows, parent %d", len(warm), len(cold))
	}
	for i, w := range warm {
		c := cold[i]
		if c.Stats.Hits != 0 {
			t.Errorf("%s: cold run hit %d entries in an empty cache", c.Row, c.Stats.Hits)
		}
		if w.Stats.Misses != 0 || w.Stats.Hits != int64(w.Clusters) {
			t.Errorf("%s: fresh process stats %+v over %d clusters, want all hits", w.Row, w.Stats, w.Clusters)
		}
		if w.Dump != c.Dump {
			t.Errorf("%s: fresh-process answers diverge from the cold run", w.Row)
		}
	}
}
