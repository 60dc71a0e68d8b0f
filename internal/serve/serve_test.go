package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"bootstrap/internal/core"
	"bootstrap/internal/ir"
	"bootstrap/internal/lockset"
	"bootstrap/internal/obs"
	"bootstrap/internal/synth"
)

// testProgram mirrors the core package's canonical sample: x/y/p all
// may-alias at main's exit (via swap and *px = p), locks l1/l2 alias.
const testProgram = `
	int a, b, c;
	int *x, *y, *p;
	int **px;
	lock m1, m2;
	lock *l1, *l2;
	void swap() {
		int *t;
		t = x;
		x = y;
		y = t;
	}
	void locks() {
		l1 = &m1;
		l2 = l1;
	}
	void main() {
		x = &a;
		y = &b;
		p = &c;
		px = &x;
		swap();
		*px = p;
		locks();
	}
`

// altProgram aliases differently: x and y point to the same object, p is
// isolated — so reloads from testProgram observably change answers.
const altProgram = `
	int a, c;
	int *x, *y, *p;
	void main() {
		x = &a;
		y = &a;
		p = &c;
	}
`

func testConfig() Config {
	return Config{
		Analysis: core.Config{
			Mode:              core.ModeAndersen,
			Workers:           2,
			AndersenThreshold: 2,
		},
		QueryTimeout: 2 * time.Second,
	}
}

func newTestServer(t *testing.T, src string, mut func(*Config)) *Server {
	t.Helper()
	cfg := testConfig()
	if mut != nil {
		mut(&cfg)
	}
	s := New(cfg)
	if src != "" {
		if _, err := s.Load(context.Background(), "test", src); err != nil {
			t.Fatalf("Load: %v", err)
		}
	}
	return s
}

// do sends one JSON request through the full handler chain and decodes
// the response into out (when non-nil), returning the status code.
func do(t *testing.T, s *Server, method, path string, body string, out any) int {
	t.Helper()
	var r *http.Request
	if body == "" {
		r = httptest.NewRequest(method, path, nil)
	} else {
		r = httptest.NewRequest(method, path, strings.NewReader(body))
	}
	w := httptest.NewRecorder()
	s.ServeHTTP(w, r)
	if out != nil && w.Code == http.StatusOK {
		if err := json.Unmarshal(w.Body.Bytes(), out); err != nil {
			t.Fatalf("%s %s: bad response %q: %v", method, path, w.Body.String(), err)
		}
	}
	return w.Code
}

func mayAlias(t *testing.T, s *Server, p, q string) QueryResponse {
	t.Helper()
	var resp QueryResponse
	code := do(t, s, "POST", "/v1/mayalias", `{"p":"`+p+`","q":"`+q+`"}`, &resp)
	if code != http.StatusOK {
		t.Fatalf("mayalias(%s,%s): status %d", p, q, code)
	}
	if resp.MayAlias == nil {
		t.Fatalf("mayalias(%s,%s): no may_alias in response", p, q)
	}
	return resp
}

func TestQueryAgainstEagerBaseline(t *testing.T) {
	s := newTestServer(t, testProgram, nil)
	eager, err := core.AnalyzeSource(testProgram, core.Config{
		Mode: core.ModeAndersen, Workers: 1, AndersenThreshold: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	exit := eager.Prog.Func(eager.Prog.Entry).Exit
	pairs := [][2]string{
		{"x", "y"}, {"x", "p"}, {"y", "p"}, {"l1", "l2"}, {"x", "l1"}, {"a", "b"},
	}
	for _, pair := range pairs {
		resp := mayAlias(t, s, pair[0], pair[1])
		want, _ := eager.MayAliasContext(context.Background(), eager.Prog.VarByName[pair[0]], eager.Prog.VarByName[pair[1]], exit)
		if *resp.MayAlias != want {
			t.Errorf("mayalias(%s,%s) = %v, eager = %v", pair[0], pair[1], *resp.MayAlias, want)
		}
		if resp.Degraded {
			t.Errorf("mayalias(%s,%s) degraded without chaos", pair[0], pair[1])
		}
		if resp.Snapshot != 1 {
			t.Errorf("snapshot = %d, want 1", resp.Snapshot)
		}
	}
}

func TestWarmBypassAfterFirstTouch(t *testing.T) {
	s := newTestServer(t, testProgram, nil)
	first := mayAlias(t, s, "x", "y")
	second := mayAlias(t, s, "x", "y")
	if first.Warm {
		t.Errorf("first query reported warm")
	}
	if !second.Warm {
		t.Errorf("second query not warm")
	}
	if *first.MayAlias != *second.MayAlias {
		t.Errorf("warm answer %v != cold answer %v", *second.MayAlias, *first.MayAlias)
	}
}

// TestStructuralQueriesAreWarm: a pair MayAliasContext answers without
// touching any engine (partition-disjoint, or identical) must be warm
// from the very first query — on a saturated server it would otherwise
// be shed despite costing microseconds.
func TestStructuralQueriesAreWarm(t *testing.T) {
	s := newTestServer(t, testProgram, nil)
	// x (int*) and l1 (lock*) live in disjoint Steensgaard partitions.
	resp := mayAlias(t, s, "x", "l1")
	if *resp.MayAlias {
		t.Errorf("mayalias(x,l1) = true across disjoint partitions")
	}
	if !resp.Warm {
		t.Errorf("partition-disjoint query not warm on first touch")
	}
	if resp := mayAlias(t, s, "x", "x"); !resp.Warm || !*resp.MayAlias {
		t.Errorf("identity query: warm=%v may_alias=%v, want true/true", resp.Warm, *resp.MayAlias)
	}
	// The structural queries must not have solved anything.
	if solved, _ := s.Snapshot().A.SolveStats(); solved != 0 {
		t.Errorf("structural queries solved %d clusters", solved)
	}
}

func TestPointsToEndpoint(t *testing.T) {
	s := newTestServer(t, testProgram, nil)
	var resp QueryResponse
	if code := do(t, s, "POST", "/v1/pointsto", `{"p":"x"}`, &resp); code != http.StatusOK {
		t.Fatalf("pointsto: status %d", code)
	}
	got := map[string]bool{}
	for _, o := range resp.PointsTo {
		got[o] = true
	}
	// At main's exit x holds &c (via *px = p after the swap); the other
	// targets may appear depending on precision, but a and b must be
	// possible only flow-insensitively and c must be present.
	if !got["c"] {
		t.Errorf("pointsto(x) = %v, want c present", resp.PointsTo)
	}
	if resp.Precise == nil {
		t.Fatalf("pointsto: no precise field")
	}
}

func TestSingleFlightCoalescing(t *testing.T) {
	m := obs.NewMetrics()
	s := newTestServer(t, testProgram, func(c *Config) { c.Metrics = m })
	const n = 50
	var wg sync.WaitGroup
	answers := make([]bool, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r := httptest.NewRequest("POST", "/v1/mayalias", strings.NewReader(`{"p":"x","q":"y"}`))
			w := httptest.NewRecorder()
			s.ServeHTTP(w, r)
			if w.Code != http.StatusOK {
				t.Errorf("query %d: status %d", i, w.Code)
				return
			}
			var resp QueryResponse
			if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil || resp.MayAlias == nil {
				t.Errorf("query %d: bad body %q", i, w.Body.String())
				return
			}
			answers[i] = *resp.MayAlias
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if answers[i] != answers[0] {
			t.Fatalf("answer %d = %v, answer 0 = %v", i, answers[i], answers[0])
		}
	}
	// All 50 queries touch the same clusters: single flight means each
	// cluster solved at most once.
	clusters := len(s.Snapshot().A.ClustersOf(s.Snapshot().Prog.VarByName["x"]))
	solved := m.Counter("bootstrap_clusters_solved_total", "").Value()
	cached := m.Counter("bootstrap_clusters_cached_total", "").Value()
	if int(solved+cached) > clusters {
		t.Errorf("%d solves + %d cache imports for %d clusters: single flight broken", solved, cached, clusters)
	}
}

func TestDeadlineDegradesNotFails(t *testing.T) {
	s := newTestServer(t, testProgram, func(c *Config) {
		c.AllowChaos = true
		c.QueryTimeout = 100 * time.Millisecond
		c.Metrics = obs.NewMetrics()
	})
	// Every query suffers a 10s latency spike; the 100ms deadline must
	// cut it short and the answer must still come back, degraded.
	if code := do(t, s, "POST", "/chaos", `{"latency_every":1,"latency_ms":10000,"solve_fault_every":1,"solve_fault_kind":"slow","solve_slow_ms":50}`, nil); code != http.StatusOK {
		t.Fatalf("chaos: status %d", code)
	}
	start := time.Now()
	resp := mayAlias(t, s, "x", "y")
	elapsed := time.Since(start)
	if !resp.Degraded {
		t.Errorf("expected degraded answer under chaos, got precise")
	}
	if *resp.MayAlias != true {
		t.Errorf("degraded answer must stay sound: mayalias(x,y) = false")
	}
	if elapsed > time.Second {
		t.Errorf("query took %v, deadline was 100ms: hang past deadline", elapsed)
	}
	if got := s.mDegraded.Value(); got != 1 {
		t.Errorf("one degraded answer moved the degraded counter to %d", got)
	}
}

func TestLoadSheddingWhenSaturated(t *testing.T) {
	s := newTestServer(t, testProgram, func(c *Config) {
		c.AllowChaos = true
		c.MaxSolves = 1
		c.QueueDepth = -1 // no queue: shed whenever the one slot is busy
		c.QueryTimeout = 500 * time.Millisecond
	})
	// Hold the only solve slot: the first cold query sleeps on an
	// injected latency spike until its deadline.
	if code := do(t, s, "POST", "/chaos", `{"latency_every":1,"latency_ms":10000}`, nil); code != http.StatusOK {
		t.Fatalf("chaos: status %d", code)
	}
	release := make(chan struct{})
	go func() {
		defer close(release)
		r := httptest.NewRequest("POST", "/v1/mayalias", strings.NewReader(`{"p":"x","q":"y"}`))
		w := httptest.NewRecorder()
		s.ServeHTTP(w, r)
		if w.Code != http.StatusOK {
			t.Errorf("holder query: status %d", w.Code)
		}
	}()
	// Wait until the holder owns the slot.
	deadline := time.Now().Add(2 * time.Second)
	for len(s.solveSem) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("holder never acquired the solve slot")
		}
		time.Sleep(time.Millisecond)
	}
	r := httptest.NewRequest("POST", "/v1/mayalias", strings.NewReader(`{"p":"p","q":"y"}`))
	w := httptest.NewRecorder()
	s.ServeHTTP(w, r)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated cold query: status %d, want 429", w.Code)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Errorf("429 without Retry-After header")
	}
	var er ErrorResponse
	if err := json.Unmarshal(w.Body.Bytes(), &er); err != nil || er.RetryAfterMS <= 0 {
		t.Errorf("429 body %q lacks retry_after_ms", w.Body.String())
	}
	<-release
}

// TestWarmQueriesBypassSaturation: while the only solve slot is held
// and the queue takes nobody, a cold query is shed, but a burst of warm
// queries from several clients is answered in full — warm queries never
// ask for admission, so saturation cannot shed them.
func TestWarmQueriesBypassSaturation(t *testing.T) {
	s := newTestServer(t, testProgram, func(c *Config) {
		c.MaxSolves = 1
		c.QueueDepth = -1
		c.QueryTimeout = 500 * time.Millisecond
		c.Metrics = obs.NewMetrics()
	})
	mayAlias(t, s, "x", "y") // warm x's clusters
	s.solveSem <- struct{}{} // hold the only solve slot
	defer func() { <-s.solveSem }()

	shed := s.mShed.Value()
	r := httptest.NewRequest("POST", "/v1/mayalias", strings.NewReader(`{"p":"l1","q":"l2"}`))
	w := httptest.NewRecorder()
	s.ServeHTTP(w, r)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("cold query on a saturated server: status %d, want 429", w.Code)
	}
	if d := s.mShed.Value() - shed; d != 1 {
		t.Errorf("one shed query moved the shed counter by %d", d)
	}

	shed, served := s.mShed.Value(), s.mQueries.Value()
	const clients, perClient = 4, 10
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				r := httptest.NewRequest("POST", "/v1/mayalias", strings.NewReader(`{"p":"x","q":"y"}`))
				w := httptest.NewRecorder()
				s.ServeHTTP(w, r)
				var resp QueryResponse
				if w.Code != http.StatusOK || json.Unmarshal(w.Body.Bytes(), &resp) != nil || !resp.Warm {
					t.Errorf("warm query on a saturated server: status %d, body %s", w.Code, w.Body.String())
				}
			}
		}()
	}
	wg.Wait()
	if d := s.mShed.Value() - shed; d != 0 {
		t.Errorf("warm burst moved the shed counter by %d", d)
	}
	if d := s.mQueries.Value() - served; d != clients*perClient {
		t.Errorf("%d warm queries moved the served counter by %d", clients*perClient, d)
	}
}

func TestReloadSwapsSnapshots(t *testing.T) {
	s := newTestServer(t, testProgram, nil)
	before := mayAlias(t, s, "x", "p")
	if *before.MayAlias != true || before.Snapshot != 1 {
		t.Fatalf("baseline: mayalias(x,p) = %v on snapshot %d", *before.MayAlias, before.Snapshot)
	}
	var rr ReloadResponse
	body, _ := json.Marshal(ReloadRequest{Source: altProgram})
	if code := do(t, s, "POST", "/reload", string(body), &rr); code != http.StatusOK {
		t.Fatalf("reload: status %d", code)
	}
	if rr.Snapshot != 2 {
		t.Errorf("reload snapshot = %d, want 2", rr.Snapshot)
	}
	after := mayAlias(t, s, "x", "p")
	if *after.MayAlias != false {
		t.Errorf("after reload mayalias(x,p) = true, want false (p isolated in altProgram)")
	}
	if after.Snapshot != 2 {
		t.Errorf("query snapshot = %d, want 2", after.Snapshot)
	}
	xy := mayAlias(t, s, "x", "y")
	if *xy.MayAlias != true {
		t.Errorf("after reload mayalias(x,y) = false, want true")
	}
}

func TestFailedReloadKeepsOldSnapshot(t *testing.T) {
	s := newTestServer(t, testProgram, nil)
	before := mayAlias(t, s, "x", "y")
	code := do(t, s, "POST", "/reload", `{"source":"void main() { this is not CPL }"}`, nil)
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("broken reload: status %d, want 422", code)
	}
	resp := mayAlias(t, s, "x", "y")
	if resp.Snapshot != 1 {
		t.Errorf("snapshot = %d after failed reload, want 1", resp.Snapshot)
	}
	if *resp.MayAlias != *before.MayAlias {
		t.Errorf("old snapshot answer changed after failed reload: %v -> %v",
			*before.MayAlias, *resp.MayAlias)
	}
}

func TestReadyzAndDrain(t *testing.T) {
	s := newTestServer(t, "", nil) // no program yet
	if code := do(t, s, "GET", "/readyz", "", nil); code != http.StatusServiceUnavailable {
		t.Errorf("readyz before load: %d, want 503", code)
	}
	if code := do(t, s, "GET", "/healthz", "", nil); code != http.StatusOK {
		t.Errorf("healthz: %d, want 200", code)
	}
	if code := do(t, s, "POST", "/v1/mayalias", `{"p":"x","q":"y"}`, nil); code != http.StatusServiceUnavailable {
		t.Errorf("query before load: %d, want 503", code)
	}
	if _, err := s.Load(context.Background(), "test", testProgram); err != nil {
		t.Fatal(err)
	}
	if code := do(t, s, "GET", "/readyz", "", nil); code != http.StatusOK {
		t.Errorf("readyz after load: %d, want 200", code)
	}
	s.BeginDrain()
	if code := do(t, s, "GET", "/readyz", "", nil); code != http.StatusServiceUnavailable {
		t.Errorf("readyz while draining: %d, want 503", code)
	}
	if code := do(t, s, "POST", "/v1/mayalias", `{"p":"x","q":"y"}`, nil); code != http.StatusServiceUnavailable {
		t.Errorf("query while draining: %d, want 503", code)
	}
	if code := do(t, s, "GET", "/healthz", "", nil); code != http.StatusOK {
		t.Errorf("healthz while draining: %d, want 200 (liveness != readiness)", code)
	}
}

func TestBadRequests(t *testing.T) {
	s := newTestServer(t, testProgram, nil)
	cases := []struct {
		path, body string
	}{
		{"/v1/mayalias", `{"p":"nope","q":"y"}`},
		{"/v1/mayalias", `{"p":"x","q":"nope"}`},
		{"/v1/mayalias", `not json`},
		{"/v1/mayalias", `{"p":"x","q":"y","at":"nofunc"}`},
		{"/v1/pointsto", `{"p":"nope"}`},
	}
	for _, c := range cases {
		if code := do(t, s, "POST", c.path, c.body, nil); code != http.StatusBadRequest {
			t.Errorf("POST %s %q: status %d, want 400", c.path, c.body, code)
		}
	}
	// Chaos is not mounted unless enabled at boot.
	if code := do(t, s, "POST", "/chaos", `{}`, nil); code != http.StatusNotFound {
		t.Errorf("chaos without AllowChaos: status %d, want 404", code)
	}
}

func TestPanicBarrier(t *testing.T) {
	m := obs.NewMetrics()
	s := newTestServer(t, "", func(c *Config) { c.Metrics = m })
	h := s.recoverWrap(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("handler bug")
	}))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/boom", nil))
	if w.Code != http.StatusInternalServerError {
		t.Errorf("panicking handler: status %d, want 500", w.Code)
	}
	if got := s.mPanics.Value(); got != 1 {
		t.Errorf("panic counter = %d, want 1", got)
	}
}

// TestLocksetEndpoint: POST /v1/lockset answers from the snapshot's
// memoized lockset pass. It solves only the clusters that hold a lock
// pointer, and a later /check {"pass":"lockset"} reads the same run:
// one pass execution, the same findings.
func TestLocksetEndpoint(t *testing.T) {
	src, _ := synth.LockHeavy(synth.LockHeavyWorkloads()[0].Cfg)
	m := obs.NewMetrics()
	s := newTestServer(t, src, func(c *Config) { c.Metrics = m })
	sn := s.Snapshot()
	locked := 0
	for _, c := range sn.A.Clusters {
		if slices.ContainsFunc(c.Pointers, func(p ir.VarID) bool { return lockset.LockDemand(sn.Prog.Var(p)) }) {
			locked++
		}
	}
	if locked == 0 || locked == len(sn.A.Clusters) {
		t.Fatalf("%d of %d clusters hold a lock pointer; the test needs both kinds", locked, len(sn.A.Clusters))
	}

	races := pollCheck(t, s, "/v1/lockset", `{}`)
	solved := 0
	for _, c := range sn.A.Clusters {
		if sn.A.ClusterSolved(c.ID) {
			solved++
		}
	}
	if solved != locked {
		t.Errorf("/v1/lockset solved %d clusters, want the %d that hold a lock pointer", solved, locked)
	}
	if races.Pass != "lockset" || races.Snapshot != sn.ID || len(races.Findings) == 0 {
		t.Errorf("/v1/lockset = %+v, want lockset findings on snapshot %d", races, sn.ID)
	}

	checked := pollCheck(t, s, "/check", `{"pass":"lockset"}`)
	if n := m.Counter("check_pass_runs_total", "").Value(); n != 1 {
		t.Errorf("check_pass_runs_total = %d after /v1/lockset and /check, want 1", n)
	}
	fingerprints := func(fs []CheckFinding) []string {
		var out []string
		for _, f := range fs {
			out = append(out, f.Fingerprint)
		}
		return out
	}
	if got, want := fingerprints(checked.Findings), fingerprints(races.Findings); !slices.Equal(got, want) {
		t.Errorf("/check fingerprints %v, /v1/lockset %v", got, want)
	}
}

// pollCheck posts body to a checker endpoint until its memoized run is
// ready.
func pollCheck(t *testing.T, s *Server, path, body string) CheckResponse {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		var resp CheckResponse
		if code := do(t, s, "POST", path, body, &resp); code != http.StatusOK {
			t.Fatalf("%s: status %d", path, code)
		}
		if resp.Ready {
			return resp
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never became ready", path)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestInfoAndVars(t *testing.T) {
	s := newTestServer(t, testProgram, nil)
	var info InfoResponse
	if code := do(t, s, "GET", "/v1/info", "", &info); code != http.StatusOK {
		t.Fatalf("info: status %d", code)
	}
	if info.Snapshot != 1 || info.Vars == 0 || info.Funcs == 0 {
		t.Errorf("info = %+v: missing snapshot state", info)
	}
	var vars VarsResponse
	if code := do(t, s, "GET", "/v1/vars", "", &vars); code != http.StatusOK {
		t.Fatalf("vars: status %d", code)
	}
	if len(vars.Pointers) == 0 {
		t.Errorf("vars: no covered pointers")
	}
	seen := map[string]bool{}
	for _, p := range vars.Pointers {
		seen[p] = true
	}
	for _, want := range []string{"x", "y"} {
		if !seen[want] {
			t.Errorf("vars: %q missing from covered pointers (have %v)", want, vars.Pointers)
		}
	}
	foundGroup := false
	for _, g := range vars.Partitions {
		has := map[string]bool{}
		for _, n := range g {
			has[n] = true
		}
		if has["x"] && has["y"] {
			foundGroup = true
		}
	}
	if !foundGroup {
		t.Errorf("vars: x and y not grouped in any partition: %v", vars.Partitions)
	}
}
