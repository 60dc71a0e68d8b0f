package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bootstrap/internal/core"
	"bootstrap/internal/ir"
	"bootstrap/internal/obs"
)

// reference is an eager full-precision analysis used as ground truth
// for chaos runs: degraded:false answers must equal it exactly, and
// degraded:true answers must stay sound against it (a degraded "no
// alias" may never contradict a true alias).
type reference struct {
	a    *core.Analysis
	exit ir.Loc
}

func newReference(t *testing.T, src string) *reference {
	t.Helper()
	a, err := core.AnalyzeSource(src, core.Config{
		Mode: core.ModeAndersen, Workers: 2, AndersenThreshold: 2,
	})
	if err != nil {
		t.Fatalf("reference analysis: %v", err)
	}
	return &reference{a: a, exit: a.Prog.Func(a.Prog.Entry).Exit}
}

func (r *reference) mayAlias(t *testing.T, p, q string) bool {
	t.Helper()
	pv, ok := r.a.Prog.VarByName[p]
	if !ok {
		t.Fatalf("reference has no variable %q", p)
	}
	qv, ok := r.a.Prog.VarByName[q]
	if !ok {
		t.Fatalf("reference has no variable %q", q)
	}
	may, _ := r.a.MayAliasContext(context.Background(), pv, qv, r.exit)
	return may
}

// checkAnswer holds a chaos response to the contract: precise answers
// match the reference, degraded answers never claim "no alias" where
// the reference proves one.
func checkAnswer(t *testing.T, ref *reference, p, q string, resp QueryResponse) {
	t.Helper()
	if resp.MayAlias == nil {
		t.Errorf("mayalias(%s,%s): 200 without may_alias", p, q)
		return
	}
	want := ref.mayAlias(t, p, q)
	if !resp.Degraded {
		if *resp.MayAlias != want {
			t.Errorf("precise mayalias(%s,%s) = %v, reference = %v", p, q, *resp.MayAlias, want)
		}
		return
	}
	if !*resp.MayAlias && want {
		t.Errorf("degraded mayalias(%s,%s) = false but the pair aliases: unsound fallback", p, q)
	}
}

// TestChaosDegradeNotFail floods an 8-worker server whose solve path
// fires an injected fault on every 5th attempt (20%) while every 5th
// admitted query eats a latency spike longer than its deadline. The
// contract: every query ends in 200 or 429, nothing hangs past its
// deadline, every 200 is correct-or-degraded against the eager
// reference, and the served, degraded and shed counters an operator
// scrapes moved by exactly what the clients saw.
func TestChaosDegradeNotFail(t *testing.T) {
	const queryTimeout = 300 * time.Millisecond
	m := obs.NewMetrics()
	s := newTestServer(t, testProgram, func(c *Config) {
		c.Analysis.Workers = 8
		c.AllowChaos = true
		c.QueryTimeout = queryTimeout
		c.Metrics = m
	})
	ref := newReference(t, testProgram)
	if code := do(t, s, "POST", "/chaos",
		`{"latency_every":5,"latency_ms":2000,"solve_fault_every":5,"solve_fault_kind":"budget"}`,
		nil); code != http.StatusOK {
		t.Fatalf("chaos: status %d", code)
	}

	pairs := [][2]string{
		{"x", "y"}, {"x", "p"}, {"y", "p"}, {"l1", "l2"}, {"x", "l1"},
		{"a", "b"}, {"px", "x"}, {"l1", "x"},
	}
	counters := func() (queries, degraded, shed int64) {
		return m.Counter("aliasd_queries_total", "").Value(),
			m.Counter("aliasd_degraded_total", "").Value(),
			m.Counter("aliasd_shed_total", "").Value()
	}
	queries0, degraded0, shed0 := counters()
	const clients = 8
	const perClient = 30
	var wg sync.WaitGroup
	var served, degraded, shed atomic.Int64
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				pair := pairs[(c*perClient+i)%len(pairs)]
				body := fmt.Sprintf(`{"p":%q,"q":%q}`, pair[0], pair[1])
				r := httptest.NewRequest("POST", "/v1/mayalias", strings.NewReader(body))
				w := httptest.NewRecorder()
				start := time.Now()
				s.ServeHTTP(w, r)
				elapsed := time.Since(start)
				// A query may wait for admission up to its deadline and
				// then still produce a degraded answer; it must never run
				// materially past that.
				if elapsed > queryTimeout+2*time.Second {
					t.Errorf("query %d/%d ran %v, deadline %v: hang past deadline", c, i, elapsed, queryTimeout)
				}
				switch w.Code {
				case http.StatusOK:
					served.Add(1)
					var resp QueryResponse
					if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
						t.Errorf("bad 200 body %q: %v", w.Body.String(), err)
						continue
					}
					if resp.Degraded {
						degraded.Add(1)
					}
					checkAnswer(t, ref, pair[0], pair[1], resp)
				case http.StatusTooManyRequests:
					shed.Add(1)
					var er ErrorResponse
					if err := json.Unmarshal(w.Body.Bytes(), &er); err != nil || er.RetryAfterMS <= 0 {
						t.Errorf("429 body %q lacks retry_after_ms", w.Body.String())
					}
				default:
					t.Errorf("mayalias(%s,%s) under chaos: status %d, want 200 or 429",
						pair[0], pair[1], w.Code)
				}
			}
		}(c)
	}
	wg.Wait()
	if served.Load() == 0 {
		t.Fatalf("no query served under chaos: %d shed", shed.Load())
	}
	t.Logf("chaos: %d served (%d degraded), %d shed, %d latency spikes",
		served.Load(), degraded.Load(), shed.Load(), s.inj.Spikes())
	queries1, degraded1, shed1 := counters()
	if d := queries1 - queries0; d != served.Load() {
		t.Errorf("aliasd_queries_total moved by %d, clients were served %d", d, served.Load())
	}
	if d := degraded1 - degraded0; d != degraded.Load() {
		t.Errorf("aliasd_degraded_total moved by %d, clients saw %d degraded", d, degraded.Load())
	}
	if d := shed1 - shed0; d != shed.Load() {
		t.Errorf("aliasd_shed_total moved by %d, clients saw %d shed", d, shed.Load())
	}
	// Disarm and let detached solves land: the server must heal — a
	// fresh query round ends fully precise.
	if code := do(t, s, "POST", "/chaos", `{}`, nil); code != http.StatusOK {
		t.Fatalf("chaos disarm: status %d", code)
	}
	deadline := time.Now().Add(15 * time.Second)
	for {
		allPrecise := true
		for _, pair := range pairs {
			resp := mayAlias(t, s, pair[0], pair[1])
			checkAnswer(t, ref, pair[0], pair[1], resp)
			if resp.Degraded {
				allPrecise = false
			}
		}
		if allPrecise {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("server never healed to full precision after chaos disarm")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestReloadUnderLoadNeverTorn hammers queries while the program is
// live-reloaded back and forth between two programs with different
// aliasing, with the injector holding the build->swap window open. A
// torn snapshot would pair one program's snapshot id with the other
// program's answer; every response must map, via its snapshot id, to
// the matching reference analysis.
func TestReloadUnderLoadNeverTorn(t *testing.T) {
	s := newTestServer(t, testProgram, func(c *Config) {
		c.AllowChaos = true
		c.QueryTimeout = time.Second
	})
	// Widen the race window between analyzing the new program and
	// publishing it.
	if code := do(t, s, "POST", "/chaos", `{"reload_pause_ms":10}`, nil); code != http.StatusOK {
		t.Fatalf("chaos: status %d", code)
	}
	refOdd := newReference(t, testProgram) // snapshots 1, 3, 5, ...
	refEven := newReference(t, altProgram) // snapshots 2, 4, 6, ...
	// Pairs present in both programs, with answers that differ between
	// them: (x,p) aliases only in testProgram, (x,y) flow-sensitively
	// only in altProgram.
	pairs := [][2]string{{"x", "y"}, {"x", "p"}, {"y", "p"}}
	differs := 0
	for _, pair := range pairs {
		if refOdd.mayAlias(t, pair[0], pair[1]) != refEven.mayAlias(t, pair[0], pair[1]) {
			differs++
		}
	}
	if differs == 0 {
		t.Fatal("the two programs agree on every probe pair; a torn snapshot would be invisible")
	}

	const reloads = 12
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var checked atomic.Int64
	for c := 0; c < 6; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				pair := pairs[(c+i)%len(pairs)]
				body := fmt.Sprintf(`{"p":%q,"q":%q}`, pair[0], pair[1])
				r := httptest.NewRequest("POST", "/v1/mayalias", strings.NewReader(body))
				w := httptest.NewRecorder()
				s.ServeHTTP(w, r)
				switch w.Code {
				case http.StatusOK:
				case http.StatusTooManyRequests:
					continue
				default:
					t.Errorf("query during reload: status %d", w.Code)
					continue
				}
				var resp QueryResponse
				if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil || resp.MayAlias == nil {
					t.Errorf("bad body %q", w.Body.String())
					continue
				}
				ref := refOdd
				if resp.Snapshot%2 == 0 {
					ref = refEven
				}
				checkAnswer(t, ref, pair[0], pair[1], resp)
				checked.Add(1)
			}
		}(c)
	}
	for i := 0; i < reloads; i++ {
		src := altProgram
		if i%2 == 1 {
			src = testProgram
		}
		body, _ := json.Marshal(ReloadRequest{Source: src})
		var rr ReloadResponse
		if code := do(t, s, "POST", "/reload", string(body), &rr); code != http.StatusOK {
			t.Fatalf("reload %d: status %d", i, code)
		}
		if rr.Snapshot != int64(i+2) {
			t.Fatalf("reload %d produced snapshot %d, want %d", i, rr.Snapshot, i+2)
		}
		time.Sleep(5 * time.Millisecond) // let queries land on the new snapshot
	}
	close(stop)
	wg.Wait()
	if checked.Load() == 0 {
		t.Fatal("no query completed during the reload storm")
	}
	if got := s.Snapshot().ID; got != reloads+1 {
		t.Errorf("final snapshot = %d, want %d", got, reloads+1)
	}
	t.Logf("reload storm: %d answers checked across %d snapshots", checked.Load(), reloads+1)
}
