package core

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"bootstrap/internal/cache"
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
// streams up to timestamps — on the serial path (BuildPlan +
// AnalyzeFromPlan) and on the pipelined path (single-writer tracks,
// canonical order).
func TestTraceDeterministicWorkers1(t *testing.T) {
	for _, serial := range []bool{true, false} {
		var want string
		for run := 0; run < 2; run++ {
			tr := obs.NewTracer()
			cfg := Config{
				Mode:              ModeAndersen,
				Workers:           1,
				AndersenThreshold: 2,
				Tracer:            tr,
			}
			if serial {
				analyzeSerial(t, testProgram, cfg)
			} else if _, err := AnalyzeSource(testProgram, cfg); err != nil {
				t.Fatal(err)
			}
			got := normalizeTrace(t, tr)
			if run == 0 {
				want = got
			} else if got != want {
				t.Errorf("serial=%v: run 1 and run 2 traces differ:\n--- run 1:\n%s\n--- run 2:\n%s",
					serial, want, got)
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
// and checks the span taxonomy: every phase appears once per run, and
// cluster spans carry solved, cached and demoted outcomes.
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
	for _, phase := range []string{"parse", "steensgaard", "clustering", "fallback", "fscs"} {
		if n := len(byName[phase]); n != 1 {
			t.Errorf("cold run: %d %q phase spans, want 1", n, phase)
		}
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
// checks the counters the phases are contracted to book.
func TestMetricsRecorded(t *testing.T) {
	m := obs.NewMetrics()
	if _, err := AnalyzeSource(testProgram, Config{
		Mode: ModeAndersen, Workers: 2, AndersenThreshold: 2, Metrics: m,
	}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"bootstrap_steens_unions_total",
		"bootstrap_andersen_passes_total",
		"bootstrap_clusters_solved_total",
		"bootstrap_cluster_solve_seconds_count",
		"bootstrap_fscs_tuples_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("missing metric %s in:\n%s", want, text)
		}
	}
	if c := m.Counter("bootstrap_clusters_solved_total", "").Value(); c == 0 {
		t.Error("no solved clusters recorded")
	}
	if c := m.Counter("bootstrap_fscs_tuples_total", "").Value(); c == 0 {
		t.Error("no FSCS tuples recorded")
	}
}
