package core

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"bootstrap/internal/cache"
	"bootstrap/internal/ir"
	"bootstrap/internal/obs"
)

// normalizeTrace renders the canonical event stream with timestamps and
// durations zeroed — everything that is allowed to differ between two
// runs of the same configuration.
func normalizeTrace(t *testing.T, tr *obs.Tracer) string {
	t.Helper()
	evs := tr.Events()
	for i := range evs {
		evs[i].TS = 0
		evs[i].Dur = 0
	}
	data, err := json.MarshalIndent(evs, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestTraceDeterministicWorkers1 is the tracing acceptance check: two
// Workers=1 runs of the same configuration must produce identical event
// streams up to timestamps (single-writer tracks, canonical order) — for
// the eager Andersen cascade, a lazy one and an eager ModeSteensgaard
// one. Each run records every cascade phase once, except the FSCS stage,
// which a lazy run leaves to query time, and the fallback solve, which
// no cascade runs: its span appears once the fallback is read, once for
// two reads, and the streams compared include it.
func TestTraceDeterministicWorkers1(t *testing.T) {
	for _, leg := range []struct {
		name string
		cfg  Config
	}{
		{"andersen", Config{Mode: ModeAndersen}},
		{"lazy", Config{Mode: ModeAndersen, Lazy: true}},
		{"steensgaard", Config{Mode: ModeSteensgaard}},
	} {
		var want string
		for run := 0; run < 2; run++ {
			tr := obs.NewTracer()
			cfg := leg.cfg
			cfg.Workers, cfg.AndersenThreshold, cfg.Tracer = 1, 2, tr
			a, err := AnalyzeSource(testProgram, cfg)
			if err != nil {
				t.Fatal(err)
			}
			byName := eventNames(tr.Events())
			for _, phase := range []string{"parse", "steensgaard", "clustering", "fallback", "fscs"} {
				n := 1
				if phase == "fallback" || phase == "fscs" && cfg.Lazy {
					n = 0
				}
				if got := len(byName[phase]); got != n {
					t.Errorf("%s: %d %q phase spans after the cascade, want %d", leg.name, got, phase, n)
				}
			}
			a.Andersen.PointsTo(v(t, a, "x"))
			a.Andersen.PointsTo(v(t, a, "y"))
			if got := len(eventNames(tr.Events())["fallback"]); got != 1 {
				t.Errorf("%s: %d fallback spans after two reads, want 1", leg.name, got)
			}
			got := normalizeTrace(t, tr)
			if run == 0 {
				want = got
			} else if got != want {
				t.Errorf("%s: run 1 and run 2 traces differ:\n--- run 1:\n%s\n--- run 2:\n%s",
					leg.name, want, got)
			}
		}
	}
}

// eventNames indexes the stream: name -> the events carrying it.
func eventNames(evs []obs.Event) map[string][]obs.Event {
	m := map[string][]obs.Event{}
	for _, ev := range evs {
		m[ev.Name] = append(m[ev.Name], ev)
	}
	return m
}

func outcomes(evs []obs.Event) map[string]int {
	counts := map[string]int{}
	for _, ev := range evs {
		if o, ok := ev.Args["outcome"].(string); ok {
			counts[o]++
		}
	}
	return counts
}

// TestTracePhaseAndOutcomeSpans drives one cluster through each outcome
// and checks the span taxonomy: every cascade phase appears once per
// run, cluster spans carry solved, cached and demoted outcomes, and the
// fallback span appears only once a query reads the fallback — after
// the healthy runs never, and in the starved run once, however many of
// the demoted clusters' queries widen.
func TestTracePhaseAndOutcomeSpans(t *testing.T) {
	cc := cache.New(cache.Options{})
	base := Config{
		Mode:              ModeAndersen,
		Workers:           1,
		AndersenThreshold: 2,
		Cache:             cc,
	}

	// Cold run: every cluster solves and stores.
	cold := obs.NewTracer()
	cfg := base
	cfg.Tracer = cold
	if _, err := AnalyzeSource(testProgram, cfg); err != nil {
		t.Fatal(err)
	}
	byName := eventNames(cold.Events())
	for _, phase := range []string{"parse", "steensgaard", "clustering", "fscs"} {
		if n := len(byName[phase]); n != 1 {
			t.Errorf("cold run: %d %q phase spans, want 1", n, phase)
		}
	}
	if n := len(byName["fallback"]); n != 0 {
		t.Errorf("cold run: %d fallback spans, want none without a read", n)
	}
	if len(byName["attempt"]) == 0 || len(byName["cache.probe"]) == 0 || len(byName["cache.store"]) == 0 {
		t.Errorf("cold run: missing attempt/cache spans: attempts=%d probes=%d stores=%d",
			len(byName["attempt"]), len(byName["cache.probe"]), len(byName["cache.store"]))
	}
	if oc := outcomes(cold.Events()); oc["solved"] == 0 || oc["cached"] != 0 {
		t.Errorf("cold run outcomes = %v, want only solved", oc)
	}

	// Warm run: every cluster imports from the cache.
	warm := obs.NewTracer()
	cfg = base
	cfg.Tracer = warm
	if _, err := AnalyzeSource(testProgram, cfg); err != nil {
		t.Fatal(err)
	}
	byName = eventNames(warm.Events())
	if len(byName["cache.import"]) == 0 {
		t.Error("warm run: no cache.import spans")
	}
	if n := len(byName["fallback"]); n != 0 {
		t.Errorf("warm run: %d fallback spans, want none without a read", n)
	}
	if oc := outcomes(warm.Events()); oc["cached"] == 0 || oc["solved"] != 0 {
		t.Errorf("warm run outcomes = %v, want only cached", oc)
	}

	// Starved run: a 1-tuple budget demotes every cluster, attempts fail.
	starved := obs.NewTracer()
	demoted, err := AnalyzeSource(testProgram, Config{
		Mode:              ModeAndersen,
		Workers:           1,
		AndersenThreshold: 2,
		ClusterBudget:     1,
		Retries:           -1,
		Tracer:            starved,
	})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, h := range demoted.Health {
		found = found || h.Demoted
	}
	if !found {
		t.Fatal("1-tuple budget should demote at least one cluster")
	}
	evs := starved.Events()
	if oc := outcomes(evs); oc["demoted"] == 0 {
		t.Errorf("starved run outcomes = %v, want demoted > 0", oc)
	}
	sawFailed := false
	for _, ev := range evs {
		if ev.Name == "attempt" && ev.Args["ok"] == false {
			sawFailed = true
			if _, hasErr := ev.Args["error"].(string); !hasErr {
				t.Error("failed attempt span should carry the error")
			}
		}
	}
	if !sawFailed {
		t.Error("starved run: no failed attempt spans")
	}
	if n := len(eventNames(evs)["fallback"]); n != 0 {
		t.Errorf("starved run: %d fallback spans before any query, want 0", n)
	}
	for _, c := range demoted.Clusters {
		for _, p := range c.Pointers {
			if _, precise := demoted.PointsToContext(context.Background(), p, exitLoc(demoted)); precise {
				t.Errorf("PointsTo(%s) on a demoted cluster is precise", demoted.Prog.VarName(p))
			}
		}
	}
	spans := eventNames(starved.Events())["fallback"]
	if len(spans) != 1 || spans[0].TID != obs.TIDFallback || spans[0].Args["passes"] == nil {
		t.Errorf("starved run: fallback spans %+v after the demoted clusters' queries, want one on the fallback track with its passes", spans)
	}
}

// TestTraceJSONRoundTrip checks the Chrome trace export survives
// encoding/json both ways: decode(encode(trace)) re-encodes to the same
// bytes, and the envelope keeps the traceEvents key.
func TestTraceJSONRoundTrip(t *testing.T) {
	tr := obs.NewTracer()
	if _, err := AnalyzeSource(testProgram, Config{
		Mode: ModeAndersen, Workers: 1, AndersenThreshold: 2, Tracer: tr,
	}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"traceEvents"`) {
		t.Fatal("missing traceEvents envelope")
	}
	var decoded obs.Trace
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("exported trace does not parse: %v", err)
	}
	if len(decoded.TraceEvents) == 0 {
		t.Fatal("decoded trace is empty")
	}
	re1, err := json.Marshal(decoded)
	if err != nil {
		t.Fatal(err)
	}
	var again obs.Trace
	if err := json.Unmarshal(re1, &again); err != nil {
		t.Fatal(err)
	}
	re2, err := json.Marshal(again)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(re1, re2) {
		t.Error("trace JSON does not round-trip stably through encoding/json")
	}
}

// TestMetricsRecorded runs the cascade with a registry attached and
// checks the counters the phases are contracted to book. The Andersen
// solver's counters are not among them: no cascade solves the fallback.
// Its first read books them, once, with the passes of that solve.
func TestMetricsRecorded(t *testing.T) {
	m := obs.NewMetrics()
	a, err := AnalyzeSource(testProgram, Config{
		Mode: ModeAndersen, Workers: 2, AndersenThreshold: 2, Metrics: m,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"bootstrap_steens_unions_total",
		"bootstrap_clusters_solved_total",
		"bootstrap_cluster_solve_seconds_count",
		"bootstrap_fscs_tuples_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("missing metric %s in:\n%s", want, text)
		}
	}
	if strings.Contains(text, "bootstrap_andersen_") {
		t.Errorf("the cascade booked Andersen solver metrics:\n%s", text)
	}
	if c := m.Counter("bootstrap_clusters_solved_total", "").Value(); c == 0 {
		t.Error("no solved clusters recorded")
	}
	if c := m.Counter("bootstrap_fscs_tuples_total", "").Value(); c == 0 {
		t.Error("no FSCS tuples recorded")
	}
	a.Andersen.PointsTo(v(t, a, "x"))
	a.Andersen.PointsTo(v(t, a, "y"))
	got, want := m.Counter("bootstrap_andersen_passes_total", "").Value(), a.Andersen.SolverStats().Passes
	if got != want || got <= 0 {
		t.Errorf("passes counter %d after two reads, want the one solve's %d", got, want)
	}
}

// TestEditAndersenPatchObserved: an edit's Andersen step is visible.
// From a previous analysis whose fallback was never read, the edit does
// none: no fallback span, no passes booked, and the successor's
// fallback is still unsolved. From one whose fallback was read first,
// the edit patches it — a fallback phase span on the fallback track
// carrying the cone size and the solver's passes, and those passes
// booked on the registry's passes counter — and a light edit's patch
// does less work than the whole-program solve it replaces.
func TestEditAndersenPatchObserved(t *testing.T) {
	for _, read := range []bool{false, true} {
		m, tr := obs.NewMetrics(), obs.NewTracer()
		a, err := AnalyzeSource(testProgram, Config{Mode: ModeAndersen, Workers: 1, Metrics: m, Tracer: tr})
		if err != nil {
			t.Fatal(err)
		}
		passes := m.Counter("bootstrap_andersen_passes_total", "")
		var whole int64
		if read {
			whole = a.Andersen.SolverStats().Passes
			if passes.Value() != whole {
				t.Fatalf("passes counter %d after the first read, its solve took %d", passes.Value(), whole)
			}
		}
		// l1 = &m1 becomes l1 = &m2: only the lock pointers' cone changes.
		var edit ir.Edit
		for _, n := range a.Prog.Nodes {
			if n.Stmt.Op == ir.OpAddr && n.Stmt.Dst == v(t, a, "l1") {
				st := n.Stmt
				st.Src = v(t, a, "m2")
				edit = ir.Edit{Kind: ir.EditReplaceStmt, Loc: n.Loc, Stmt: st}
			}
		}
		a2, rep, err := ApplyEdit(context.Background(), a, []ir.Edit{edit})
		if err != nil {
			t.Fatal(err)
		}
		if rep.FellBack {
			t.Fatalf("light edit fell back: %s", rep.Reason)
		}
		var span *obs.Event
		for _, ev := range tr.Events() {
			if ev.Name == "fallback" && ev.TID == obs.TIDFallback && ev.Args["cone"] != nil {
				span = &ev
			}
		}
		if !read {
			if a.Andersen.Solved() || a2.Andersen.Solved() || passes.Value() != 0 || span != nil {
				t.Errorf("an edit from an unread fallback solved or patched one: solved %v/%v, passes %d, span %v",
					a.Andersen.Solved(), a2.Andersen.Solved(), passes.Value(), span)
			}
			continue
		}
		grew := passes.Value() - whole
		if grew != a2.Andersen.SolverStats().Passes || grew <= 0 || grew >= whole {
			t.Errorf("edit grew the passes counter by %d (patch %d), want 0 < n < %d, the whole-program solve",
				grew, a2.Andersen.SolverStats().Passes, whole)
		}
		if span == nil {
			t.Fatal("no fallback span with a cone size on the fallback track")
		}
		if cone, ok := span.Args["cone"].(int); !ok || cone <= 0 || cone >= len(a2.Prog.Vars) {
			t.Errorf("fallback span cone = %v, want a proper subset of %d variables", span.Args["cone"], len(a2.Prog.Vars))
		}
		if p, ok := span.Args["passes"].(int64); !ok || p != grew {
			t.Errorf("fallback span passes = %v, want %d", span.Args["passes"], grew)
		}
	}
}
