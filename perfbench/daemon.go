package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"time"

	"bootstrap/internal/core"
	"bootstrap/internal/serve"
)

// daemon is an in-process aliasd: a serve.Server behind a loopback HTTP
// listener, and a keep-alive client with one connection per closed-loop
// caller. The listener is bound before serving starts, so no readiness
// polling is needed.
type daemon struct {
	srv    *serve.Server
	hs     *http.Server
	served chan struct{} // closed when Serve has returned
	base   string
	hc     *http.Client
}

// newServer builds and loads a lazy server for src.
func newServer(src string) (*serve.Server, error) {
	s := serve.New(serve.Config{Analysis: analysisConfig()})
	if _, err := s.Load(context.Background(), row, src); err != nil {
		return nil, fmt.Errorf("load: %w", err)
	}
	return s, nil
}

func startDaemon(s *serve.Server, conns int) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	d := &daemon{
		srv:    s,
		hs:     &http.Server{Handler: s.Handler()},
		served: make(chan struct{}),
		base:   "http://" + ln.Addr().String(),
		hc: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: conns,
			MaxConnsPerHost:     conns,
			DisableCompression:  true,
		}},
	}
	go func() {
		defer close(d.served)
		_ = d.hs.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	return d, nil
}

// stop shuts the listener down and waits until Serve has returned.
func (d *daemon) stop() {
	d.hc.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := d.hs.Shutdown(ctx); err != nil {
		d.hs.Close()
	}
	<-d.served
}

// post sends body as JSON and, on 200, decodes the reply into out. It
// returns the HTTP status; a transport error returns status 0.
func (d *daemon) post(path string, body, out any) (int, error) {
	buf, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	resp, err := d.hc.Post(d.base+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, fmt.Errorf("POST %s: %d %s", path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return resp.StatusCode, json.Unmarshal(data, out)
}

// ask sends q to /v1/pointsto or /v1/mayalias.
func (d *daemon) ask(q query) (answer, serve.QueryResponse, int, error) {
	path := "/v1/pointsto"
	if q.Q != "" {
		path = "/v1/mayalias"
	}
	var resp serve.QueryResponse
	status, err := d.post(path, serve.QueryRequest{P: q.P, Q: q.Q, At: q.At}, &resp)
	if err != nil {
		return answer{}, resp, status, err
	}
	ans := answer{Objs: resp.PointsTo, Precise: !resp.Degraded}
	if q.Q != "" {
		if resp.MayAlias == nil {
			return answer{}, resp, status, fmt.Errorf("%s: reply has no may_alias", q)
		}
		ans.Alias = *resp.MayAlias
	} else if ans.Objs == nil {
		ans.Objs = []string{}
	}
	sort.Strings(ans.Objs)
	return ans, resp, status, nil
}

// restore undoes edit e and solves every cluster again, outside any
// timed region, so that every edit op starts from the state set-up
// left: the generated program with every cluster solved. Cumulative
// edits would let each seed's program and set of solved clusters drift
// apart, and with them the cost of later edits and the live heap.
func (d *daemon) restore(e edit) error {
	var er serve.EditResponse
	if _, err := d.post("/edit", serve.EditRequest{Edits: []serve.EditSpec{e.undo}}, &er); err != nil {
		return fmt.Errorf("undo: %w", err)
	}
	if er.FellBack {
		return fmt.Errorf("undo fell back to a full reanalysis: %s", er.Reason)
	}
	return solveAll(d.srv.Snapshot().A)
}

// solveAll solves every cluster of a lazy analysis in-process, on as
// many goroutines as the server has solve slots (GOMAXPROCS).
func solveAll(a *core.Analysis) error {
	ids := make(chan int)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var first error
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for id := range ids {
				if _, h, _ := a.EnsureCluster(context.Background(), id); h.Demoted {
					mu.Lock()
					if first == nil {
						first = fmt.Errorf("cluster %d demoted (%s)", id, h.Status)
					}
					mu.Unlock()
				}
			}
		}()
	}
	for id := range a.Clusters {
		ids <- id
	}
	close(ids)
	wg.Wait()
	return first
}

// touchAll solves every cluster through cold served queries: one
// points-to query per cluster on its first pointer, sent over conns
// closed-loop connections.
func (d *daemon) touchAll(a *core.Analysis, conns int) error {
	qs := make([]query, 0, len(a.Clusters))
	for _, c := range a.Clusters {
		if len(c.Pointers) == 0 {
			continue
		}
		p := c.Pointers[0]
		qs = append(qs, query{P: a.Prog.VarName(p), At: a.Prog.Func(a.Prog.Entry).Name})
	}
	errs := make([]error, conns)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(qs); i += conns {
				if _, _, _, err := d.ask(qs[i]); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	solved, demoted := a.SolveStats()
	if solved != len(a.Clusters) || demoted != 0 {
		return fmt.Errorf("after cold queries: %d of %d clusters solved, %d demoted", solved, len(a.Clusters), demoted)
	}
	return nil
}
