package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bootstrap/internal/core"
	"bootstrap/internal/frontend"
	"bootstrap/internal/ir"
)

// findNode returns the Loc of the first node matching op with the given
// destination variable name — how tests address statements the way a
// tooling client (which holds the lowered program) would.
func findNode(t *testing.T, s *Server, op ir.Op, dst string) ir.Loc {
	t.Helper()
	prog := s.Snapshot().Prog
	want, ok := prog.VarByName[dst]
	if !ok {
		t.Fatalf("no variable %q", dst)
	}
	for _, n := range prog.Nodes {
		if n.Stmt.Op == op && n.Stmt.Dst == want && n.CallLoc == ir.NoLoc {
			return n.Loc
		}
	}
	t.Fatalf("no %v node with dst %q", op, dst)
	return ir.NoLoc
}

func postEdit(t *testing.T, s *Server, body string) (EditResponse, int) {
	t.Helper()
	var resp EditResponse
	code := do(t, s, "POST", "/edit", body, &resp)
	return resp, code
}

// TestEditChangesAnswers: a single-statement edit swaps the snapshot and
// observably changes query answers, without a full reload.
func TestEditChangesAnswers(t *testing.T) {
	s := newTestServer(t, altProgram, nil)
	if r := mayAlias(t, s, "x", "p"); *r.MayAlias {
		t.Fatal("x,p must not alias before the edit")
	}
	before := s.Snapshot().ID

	// p = &c  -->  p = &a : now p aliases x and y.
	loc := findNode(t, s, ir.OpAddr, "p")
	resp, code := postEdit(t, s, fmt.Sprintf(
		`{"edits":[{"action":"replace","loc":%d,"op":"addr","dst":"p","src":"a"}]}`, loc))
	if code != http.StatusOK {
		t.Fatalf("edit status %d", code)
	}
	if resp.Snapshot != before+1 {
		t.Fatalf("snapshot %d, want %d", resp.Snapshot, before+1)
	}
	if resp.FellBack {
		t.Fatalf("single-statement edit fell back: %s", resp.Reason)
	}
	if resp.Applied != 1 || resp.Dirty == 0 {
		t.Fatalf("unexpected report %+v", resp)
	}
	if r := mayAlias(t, s, "x", "p"); !*r.MayAlias {
		t.Fatal("x,p must alias after the edit")
	}
	if r := mayAlias(t, s, "x", "p"); r.Snapshot != before+1 {
		t.Fatalf("queries still answering from snapshot %d", r.Snapshot)
	}
}

// TestEditRejected: malformed and unmappable batches reject without
// touching the serving snapshot.
func TestEditRejected(t *testing.T) {
	s := newTestServer(t, altProgram, nil)
	before := s.Snapshot().ID

	if _, code := postEdit(t, s, `{"edits":[]}`); code != http.StatusBadRequest {
		t.Fatalf("empty batch: status %d", code)
	}
	if _, code := postEdit(t, s, `{"edits":[{"action":"warp","loc":1}]}`); code != http.StatusBadRequest {
		t.Fatalf("unknown action: status %d", code)
	}
	if _, code := postEdit(t, s,
		`{"edits":[{"action":"replace","loc":1,"op":"copy","dst":"nosuch","src":"x"}]}`); code != http.StatusBadRequest {
		t.Fatalf("unknown var: status %d", code)
	}
	if _, code := postEdit(t, s,
		`{"edits":[{"action":"delete","loc":999999}]}`); code != http.StatusUnprocessableEntity {
		t.Fatalf("out-of-range loc: status %d", code)
	}
	if got := s.Snapshot().ID; got != before {
		t.Fatalf("rejected edits advanced the snapshot to %d", got)
	}
	mayAlias(t, s, "x", "y") // still serving
}

// TestEditStructuralFallback: deleting a call cannot be mapped onto the
// cluster cover; the edit still lands via the full warm reanalysis and
// the response says so.
func TestEditStructuralFallback(t *testing.T) {
	s := newTestServer(t, testProgram, nil)
	prog := s.Snapshot().Prog
	var callLoc ir.Loc = ir.NoLoc
	swapFn := prog.FuncByName["swap"]
	for _, n := range prog.Nodes {
		if n.Stmt.Op == ir.OpCall && n.Stmt.Callee == swapFn {
			callLoc = n.Loc
		}
	}
	if callLoc == ir.NoLoc {
		t.Fatal("no call to swap")
	}
	resp, code := postEdit(t, s, fmt.Sprintf(
		`{"edits":[{"action":"delete","loc":%d}]}`, callLoc))
	if code != http.StatusOK {
		t.Fatalf("edit status %d", code)
	}
	if !resp.FellBack || resp.Reason == "" {
		t.Fatalf("deleting a call must fall back, got %+v", resp)
	}
	// Without swap (and with *px = p), x may still alias p but the
	// snapshot must serve the edited program.
	if got := s.Snapshot().ID; got != resp.Snapshot {
		t.Fatalf("serving snapshot %d, response says %d", got, resp.Snapshot)
	}
	mayAlias(t, s, "x", "y")
}

// TestEditAddVarAndInsert: addvar + insert compose in one batch.
func TestEditAddVarAndInsert(t *testing.T) {
	s := newTestServer(t, altProgram, nil)
	loc := findNode(t, s, ir.OpAddr, "p")
	resp, code := postEdit(t, s, fmt.Sprintf(
		`{"edits":[{"action":"addvar","name":"fresh","kind":"global"},`+
			`{"action":"insert","loc":%d,"op":"nullify","dst":"p"}]}`, loc))
	if code != http.StatusOK {
		t.Fatalf("edit status %d", code)
	}
	if resp.Applied != 2 {
		t.Fatalf("applied %d, want 2", resp.Applied)
	}
	if _, ok := s.Snapshot().Prog.VarByName["fresh"]; !ok {
		t.Fatal("variable not added")
	}
}

// TestEditCoalescing: batches submitted while an edit is being applied
// are drained by one leader and share a single published snapshot.
func TestEditCoalescing(t *testing.T) {
	s := newTestServer(t, altProgram, nil)
	before := s.Snapshot().ID
	locP := findNode(t, s, ir.OpAddr, "p")
	locY := findNode(t, s, ir.OpAddr, "y")

	// Hold the reload lock so every concurrent request queues behind it;
	// on release, exactly one leader drains the whole queue.
	s.reloadMu.Lock()
	var wg sync.WaitGroup
	resps := make([]EditResponse, 3)
	codes := make([]int, 3)
	bodies := []string{
		fmt.Sprintf(`{"edits":[{"action":"replace","loc":%d,"op":"addr","dst":"p","src":"a"}]}`, locP),
		fmt.Sprintf(`{"edits":[{"action":"replace","loc":%d,"op":"addr","dst":"y","src":"c"}]}`, locY),
		fmt.Sprintf(`{"edits":[{"action":"delete","loc":%d}]}`, locY),
	}
	for i, body := range bodies {
		wg.Add(1)
		go func(i int, body string) {
			defer wg.Done()
			resps[i], codes[i] = postEdit(t, s, body)
		}(i, body)
	}
	// Wait until all three batches are queued, then release the leader.
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.editMu.Lock()
		n := len(s.editQ)
		s.editMu.Unlock()
		if n == 3 {
			break
		}
		if time.Now().After(deadline) {
			s.reloadMu.Unlock()
			t.Fatal("batches never queued")
		}
		time.Sleep(time.Millisecond)
	}
	s.reloadMu.Unlock()
	wg.Wait()

	for i, code := range codes {
		if code != http.StatusOK {
			t.Fatalf("edit %d: status %d", i, code)
		}
		if !resps[i].Coalesced {
			t.Fatalf("edit %d not marked coalesced: %+v", i, resps[i])
		}
		if resps[i].Snapshot != before+1 {
			t.Fatalf("edit %d published snapshot %d, want one shared snapshot %d",
				i, resps[i].Snapshot, before+1)
		}
	}
	// Queue order between goroutines is nondeterministic, so only the
	// uncontended locP edit has a determined final state; the contended
	// locY is whatever its last-arriving batch wrote.
	prog := s.Snapshot().Prog
	if st := prog.Node(locP).Stmt; st.Op != ir.OpAddr || st.Src != prog.VarByName["a"] {
		t.Fatalf("locP not rewritten: %+v", st)
	}
	if got := prog.Node(locY).Stmt.Op; got != ir.OpSkip && got != ir.OpAddr {
		t.Fatalf("locY op %v after coalesced edits", got)
	}
}

// TestEditOldSnapshotQueriesUnderEdits: program generations share
// nodes, functions and name maps (ir.Program.Clone), so a successor
// /edit builds from replace and insert edits shares what queries still
// running on older snapshots read, and copies it before it writes.
// Goroutines pin a snapshot and keep querying its analysis directly
// while later ones are published; others query the server. Every answer
// must match the reference analysis of its own snapshot's program, a
// fresh lowering with the same edits applied. Under -race, a successor
// that wrote a node its predecessor shares races with the pinned
// snapshot's queries.
func TestEditOldSnapshotQueriesUnderEdits(t *testing.T) {
	s := newTestServer(t, testProgram, nil)
	first := s.Snapshot().ID
	loc := func(dst string) int64 { return int64(findNode(t, s, ir.OpAddr, dst)) }
	lx, ly, lp, lpx := loc("x"), loc("y"), loc("p"), loc("px")
	specs := []EditSpec{
		{Action: "replace", Loc: lp, Op: "addr", Dst: "p", Src: "a"},
		{Action: "insert", Loc: ly, Op: "addr", Dst: "y", Src: "c"},
		{Action: "replace", Loc: lx, Op: "addr", Dst: "x", Src: "c"},
		{Action: "insert", Loc: lpx, Op: "addr", Dst: "px", Src: "y"},
		{Action: "replace", Loc: lp, Op: "addr", Dst: "p", Src: "b"},
		{Action: "insert", Loc: lx, Op: "nullify", Dst: "x"},
		{Action: "replace", Loc: ly, Op: "copy", Dst: "y", Src: "p"},
		{Action: "insert", Loc: lp, Op: "copy", Dst: "x", Src: "p"},
	}
	pairs := [][2]string{{"x", "y"}, {"x", "p"}, {"y", "p"}, {"l1", "l2"}}
	// want[k][i]: does pairs[i] alias at main's exit after specs[:k]?
	want := make([][]bool, len(specs)+1)
	for k := range want {
		prog, err := frontend.LowerSource(testProgram)
		if err != nil {
			t.Fatal(err)
		}
		edits, err := resolveEdits(prog, specs[:k])
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ir.ApplyEdits(prog, edits); err != nil {
			t.Fatalf("reference edits %d: %v", k, err)
		}
		ref, err := core.AnalyzeProgram(prog, core.Config{Mode: core.ModeAndersen, Workers: 2, AndersenThreshold: 2})
		if err != nil {
			t.Fatalf("reference analysis %d: %v", k, err)
		}
		r := &reference{a: ref, exit: prog.Func(prog.Entry).Exit}
		for _, pr := range pairs {
			want[k] = append(want[k], r.mayAlias(t, pr[0], pr[1]))
		}
	}
	changes := 0
	for k := 1; k < len(want); k++ {
		if !slices.Equal(want[k], want[k-1]) {
			changes++
		}
	}
	if changes < 3 {
		t.Fatalf("the edits change the reference answers %d times; a stale answer would go unseen", changes)
	}
	// check holds an answer from snapshot id to that snapshot's
	// reference: exact when precise, sound otherwise.
	check := func(id int64, i int, may, precise bool) {
		k := id - first
		if k < 0 || k >= int64(len(want)) {
			t.Errorf("answer from snapshot %d, outside the chain", id)
			return
		}
		if w := want[k][i]; precise && may != w || !may && w {
			t.Errorf("snapshot %d: mayalias(%s,%s) = %v (precise %v), reference %v",
				id, pairs[i][0], pairs[i][1], may, precise, w)
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var direct, served atomic.Int64
	for g := 0; g < 2; g++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			var sn *Snapshot
			for round := 0; ; round++ {
				select {
				case <-stop:
					return
				default:
				}
				if round%4 == 0 {
					sn = s.Snapshot()
				}
				exit := sn.Prog.Func(sn.Prog.Entry).Exit
				for i, pr := range pairs {
					pv, qv := sn.Prog.VarByName[pr[0]], sn.Prog.VarByName[pr[1]]
					may, precise := sn.A.MayAliasContext(context.Background(), pv, qv, exit)
					check(sn.ID, i, may, precise)
					direct.Add(1)
				}
			}
		}()
		go func(g int) {
			defer wg.Done()
			for round := 0; ; round++ {
				select {
				case <-stop:
					return
				default:
				}
				i := (g + round) % len(pairs)
				body := fmt.Sprintf(`{"p":%q,"q":%q}`, pairs[i][0], pairs[i][1])
				w := httptest.NewRecorder()
				s.ServeHTTP(w, httptest.NewRequest("POST", "/v1/mayalias", strings.NewReader(body)))
				if w.Code == http.StatusTooManyRequests {
					continue
				}
				var resp QueryResponse
				if w.Code != http.StatusOK || json.Unmarshal(w.Body.Bytes(), &resp) != nil || resp.MayAlias == nil {
					t.Errorf("query during edits: status %d, body %q", w.Code, w.Body.String())
					continue
				}
				check(resp.Snapshot, i, *resp.MayAlias, !resp.Degraded)
				served.Add(1)
			}
		}(g)
	}
	halt := sync.OnceFunc(func() { close(stop); wg.Wait() })
	defer halt()
	for i, sp := range specs {
		body, _ := json.Marshal(EditRequest{Edits: []EditSpec{sp}})
		resp, code := postEdit(t, s, string(body))
		if code != http.StatusOK || resp.FellBack {
			t.Fatalf("edit %d: status %d, %+v", i, code, resp)
		}
		if resp.Snapshot != first+int64(i+1) {
			t.Fatalf("edit %d published snapshot %d, want %d", i, resp.Snapshot, first+int64(i+1))
		}
		time.Sleep(5 * time.Millisecond) // let queries land on the new snapshot
	}
	halt()
	t.Logf("%d direct and %d served answers checked over %d reference changes", direct.Load(), served.Load(), changes)
	if direct.Load() == 0 || served.Load() == 0 {
		t.Fatalf("%d direct and %d served answers checked; want some of each", direct.Load(), served.Load())
	}
}

// sseClient collects events from GET /subscribe on a live listener.
type sseClient struct {
	mu     sync.Mutex
	events []StreamEvent
	cancel context.CancelFunc
	done   chan struct{}
}

func subscribe(t *testing.T, url string) *sseClient {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, "GET", url+"/subscribe", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		cancel()
		t.Fatalf("subscribe: %v", err)
	}
	c := &sseClient{cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(c.done)
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			line := sc.Text()
			if !strings.HasPrefix(line, "data: ") {
				continue
			}
			var ev StreamEvent
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
				continue
			}
			c.mu.Lock()
			c.events = append(c.events, ev)
			c.mu.Unlock()
		}
	}()
	return c
}

func (c *sseClient) wait(t *testing.T, want func([]StreamEvent) bool) []StreamEvent {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		c.mu.Lock()
		evs := append([]StreamEvent(nil), c.events...)
		c.mu.Unlock()
		if want(evs) {
			return evs
		}
		time.Sleep(5 * time.Millisecond)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	t.Fatalf("timed out waiting for events; got %+v", c.events)
	return nil
}

func (c *sseClient) close() {
	c.cancel()
	<-c.done
}

// TestSubscribeStream: subscribers receive the anchor snapshot event, a
// snapshot+cluster event per edit, and an invalidation for a previously
// answered query whose cluster the edit dirtied.
func TestSubscribeStream(t *testing.T) {
	s := newTestServer(t, altProgram, nil)
	ts := httptest.NewServer(s)
	defer ts.Close()

	cl := subscribe(t, ts.URL)
	defer cl.close()
	cl.wait(t, func(evs []StreamEvent) bool {
		return len(evs) > 0 && evs[0].Type == "snapshot"
	})

	// Answer a query so the ring has something to invalidate, then edit
	// the statement that defines its points-to set.
	r, err := http.Post(ts.URL+"/v1/mayalias", "application/json",
		strings.NewReader(`{"p":"x","q":"p"}`))
	if err != nil || r.StatusCode != http.StatusOK {
		t.Fatalf("query: %v status %v", err, r.StatusCode)
	}
	r.Body.Close()

	loc := findNode(t, s, ir.OpAddr, "p")
	body := fmt.Sprintf(`{"edits":[{"action":"replace","loc":%d,"op":"addr","dst":"p","src":"a"}]}`, loc)
	r, err = http.Post(ts.URL+"/edit", "application/json", strings.NewReader(body))
	if err != nil || r.StatusCode != http.StatusOK {
		t.Fatalf("edit: %v status %v", err, r.StatusCode)
	}
	r.Body.Close()

	// The server publishes the dirty clusters' events after the snapshot
	// event, so wait for the first of them too.
	evs := cl.wait(t, func(evs []StreamEvent) bool {
		var snap, inval, cluster bool
		for _, ev := range evs {
			if ev.Type == "snapshot" && ev.Snapshot == 2 && !ev.Reloaded {
				snap = true
			}
			if ev.Type == "invalidate" && ev.P == "x" && ev.Q == "p" {
				inval = true
			}
			if ev.Type == "cluster" && ev.Snapshot == 2 {
				cluster = true
			}
		}
		return snap && inval && cluster
	})
	// Cluster events accompany the dirty set.
	var clusters int
	for _, ev := range evs {
		if ev.Type == "cluster" && ev.Snapshot == 2 {
			clusters++
			if ev.Status != "resolved" && ev.Status != "pending" {
				t.Fatalf("bad cluster status %q", ev.Status)
			}
		}
	}
	if clusters == 0 {
		t.Fatalf("no cluster events: %+v", evs)
	}
}

// TestSubscribeReloadInvalidatesAll: a full /reload announces itself and
// invalidates every remembered query.
func TestSubscribeReloadInvalidatesAll(t *testing.T) {
	s := newTestServer(t, altProgram, nil)
	ts := httptest.NewServer(s)
	defer ts.Close()

	cl := subscribe(t, ts.URL)
	defer cl.close()

	r, err := http.Post(ts.URL+"/v1/mayalias", "application/json",
		strings.NewReader(`{"p":"x","q":"y"}`))
	if err != nil || r.StatusCode != http.StatusOK {
		t.Fatalf("query: %v", err)
	}
	r.Body.Close()

	body, _ := json.Marshal(ReloadRequest{Source: testProgram})
	r, err = http.Post(ts.URL+"/reload", "application/json", strings.NewReader(string(body)))
	if err != nil || r.StatusCode != http.StatusOK {
		t.Fatalf("reload: %v", err)
	}
	r.Body.Close()

	cl.wait(t, func(evs []StreamEvent) bool {
		var reloaded, inval bool
		for _, ev := range evs {
			if ev.Type == "snapshot" && ev.Reloaded {
				reloaded = true
			}
			if ev.Type == "invalidate" && ev.P == "x" {
				inval = true
			}
		}
		return reloaded && inval
	})
}
