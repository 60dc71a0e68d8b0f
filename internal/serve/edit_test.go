package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

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
