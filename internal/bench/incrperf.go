package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"os"
	"sort"
	"strings"
	"time"

	"bootstrap/internal/core"
	"bootstrap/internal/frontend"
	"bootstrap/internal/ir"
	"bootstrap/internal/synth"
)

// IncrPoint is one workload's incremental-edit measurement: a full
// analysis, then a storm of deterministic single-statement edits applied
// through core.ApplyEdit. Each edit's latency covers the whole
// edit-to-answer path — clone+apply, dirty-cluster re-solve, and one
// warm query against the new snapshot — which is the interactive budget
// the incremental mode exists to hit. Periodic differential checks pin
// every Nth edited program against a from-scratch analysis
// (fingerprints must be bit-identical), so the speed numbers can't be
// bought with drift.
type IncrPoint struct {
	Workload string `json:"workload"`
	Vars     int    `json:"vars"`
	Clusters int    `json:"clusters"`
	Edits    int    `json:"edits"`

	// FullNS is the from-scratch analysis the edits amortize against.
	FullNS int64 `json:"full_ns"`

	// P50US / P95US / MeanUS are edit-to-answer latencies in
	// microseconds: ApplyEdit plus one warm PointsTo on the result.
	P50US  int64 `json:"p50_us"`
	P95US  int64 `json:"p95_us"`
	MeanUS int64 `json:"mean_us"`

	// DirtyFrac is the mean fraction of cover clusters an edit dirtied;
	// the rest were reused verbatim (Theorem 6's payoff).
	DirtyFrac float64 `json:"dirty_frac"`
	// Speedup is FullNS over the mean edit latency: how many times
	// cheaper an incremental step is than re-analyzing.
	Speedup float64 `json:"speedup"`

	// Fallbacks counts edits that degraded to a full reanalysis; the
	// storm only issues statement-level edits, so any is a failure.
	Fallbacks int `json:"fallbacks"`
	// IdentityChecks counts the differential fingerprint comparisons
	// that ran (and passed — a mismatch fails the bench outright).
	IdentityChecks int `json:"identity_checks"`
}

// IncrReport is the BENCH_incremental.json payload.
type IncrReport struct {
	Date   string      `json:"date"`
	Scale  float64     `json:"scale"`
	Points []IncrPoint `json:"points"`
}

// incrEditCount is the storm length per workload.
const incrEditCount = 40

// incrIdentityEvery spaces the differential checks: every Nth edit, the
// edited program is re-analyzed from scratch and fingerprint-compared.
const incrIdentityEvery = 8

// incrConfig is the analysis configuration of the incremental bench:
// the bootstrapped cascade, eager, no result cache — so every measured
// re-solve is real work, not a cache import.
func incrConfig() core.Config {
	return core.Config{
		Mode:              core.ModeAndersen,
		AndersenThreshold: 60,
	}
}

// incrEdit derives one valid single-statement edit from rng against the
// current program: replace a plain copy/addr/load's source with another
// eligible node's (so operands need no type bookkeeping), or — one time
// in five — delete the statement.
func incrEdit(p *ir.Program, rng *rand.Rand) (ir.Edit, bool) {
	var eligible []ir.Loc
	for _, node := range p.Nodes {
		switch node.Stmt.Op {
		case ir.OpCopy, ir.OpAddr, ir.OpLoad:
			if node.CallLoc == ir.NoLoc {
				eligible = append(eligible, node.Loc)
			}
		}
	}
	if len(eligible) < 2 {
		return ir.Edit{}, false
	}
	loc := eligible[rng.Intn(len(eligible))]
	if rng.Intn(5) == 0 {
		return ir.Edit{Kind: ir.EditDeleteStmt, Loc: loc}, true
	}
	donor := eligible[rng.Intn(len(eligible))]
	st := p.Node(loc).Stmt
	st.Src = p.Node(donor).Stmt.Src
	st.Comment = ""
	return ir.Edit{Kind: ir.EditReplaceStmt, Loc: loc, Stmt: st}, true
}

// incrIdentity fingerprint-compares the incremental analysis against a
// from-scratch analysis of the same (cloned) program.
func incrIdentity(a *core.Analysis, cfg core.Config) error {
	fresh, err := core.AnalyzeProgram(a.Prog.Clone(), cfg)
	if err != nil {
		return fmt.Errorf("fresh analyze: %w", err)
	}
	got, want := a.Fingerprints(), fresh.Fingerprints()
	if len(got) != len(want) {
		return fmt.Errorf("%d selected clusters incrementally, %d fresh", len(got), len(want))
	}
	for id, fp := range want {
		if got[id] != fp {
			return fmt.Errorf("cluster %d fingerprint %s != fresh %s", id, got[id], fp)
		}
	}
	return nil
}

// IncrPerf runs the edit storm over the named workloads at the given
// scale. Edits are deterministic (seeded from the workload name), so two
// runs measure the same storm.
func IncrPerf(names []string, scale float64, log io.Writer) (*IncrReport, error) {
	if log == nil {
		log = io.Discard
	}
	report := &IncrReport{Date: time.Now().UTC().Format("2006-01-02"), Scale: scale}
	ctx := context.Background()
	for _, name := range names {
		b, ok := synth.FindBenchmark(name)
		if !ok {
			return nil, fmt.Errorf("unknown benchmark %q", name)
		}
		prog, err := frontend.LowerSource(synth.Generate(b, scale))
		if err != nil {
			return nil, fmt.Errorf("%s: lower: %w", name, err)
		}
		cfg := incrConfig()
		t0 := time.Now()
		a, err := core.AnalyzeProgram(prog, cfg)
		if err != nil {
			return nil, fmt.Errorf("%s: analyze: %w", name, err)
		}
		fullNS := time.Since(t0)

		h := fnv.New64a()
		io.WriteString(h, name)
		rng := rand.New(rand.NewSource(int64(h.Sum64())))

		pt := IncrPoint{
			Workload: name,
			Vars:     prog.NumVars(),
			Clusters: len(a.Clusters),
			FullNS:   int64(fullNS),
		}
		fmt.Fprintf(log, "incr-bench %s: full %.0fms, %d clusters, %d edits...\n",
			name, float64(fullNS)/1e6, pt.Clusters, incrEditCount)

		var latencies []time.Duration
		var dirtyFrac float64
		for i := 0; i < incrEditCount; i++ {
			e, ok := incrEdit(a.Prog, rng)
			if !ok {
				return nil, fmt.Errorf("%s: edit %d: no eligible statements left", name, i)
			}
			t0 = time.Now()
			a2, rep, err := core.ApplyEdit(ctx, a, []ir.Edit{e})
			if err != nil {
				return nil, fmt.Errorf("%s: edit %d: %w", name, i, err)
			}
			// One warm query on the fresh snapshot closes the
			// edit-to-answer loop the latency budget is about.
			if ptrs := a2.CoveredPointers(); len(ptrs) > 0 {
				a2.PointsToContext(ctx, ptrs[0], a2.Prog.Func(a2.Prog.Entry).Exit)
			}
			latencies = append(latencies, time.Since(t0))
			if rep.FellBack {
				pt.Fallbacks++
			}
			if rep.Clusters > 0 {
				dirtyFrac += float64(rep.Dirty) / float64(rep.Clusters)
			}
			a = a2
			pt.Edits++
			if (i+1)%incrIdentityEvery == 0 {
				if err := incrIdentity(a, cfg); err != nil {
					return nil, fmt.Errorf("%s: edit %d: identity: %w", name, i, err)
				}
				pt.IdentityChecks++
			}
		}

		sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
		var sum time.Duration
		for _, d := range latencies {
			sum += d
		}
		mean := sum / time.Duration(len(latencies))
		pt.P50US = latencies[len(latencies)/2].Microseconds()
		pt.P95US = latencies[len(latencies)*95/100].Microseconds()
		pt.MeanUS = mean.Microseconds()
		pt.DirtyFrac = dirtyFrac / float64(pt.Edits)
		if mean > 0 {
			pt.Speedup = float64(fullNS) / float64(mean)
		}
		report.Points = append(report.Points, pt)
	}
	return report, nil
}

// Incremental-mode latency and reuse gates. The interactive target is
// single-digit-millisecond p50 edit-to-answer — the committed baseline
// demonstrates it on reference hardware — but the CI budget leaves
// headroom for slower shared runners; the machine-independent
// invariants (dirty fraction, speedup, fallbacks, identity) are the
// hard lines.
const (
	IncrP50BudgetUS    = 25_000 // p50 edit-to-answer under 25ms (CI headroom over the ~9ms reference)
	IncrDirtyFracLimit = 0.25   // mean dirty-cluster fraction under 25%
	IncrSpeedupFloor   = 1.5    // incremental step ≥1.5× cheaper than full
)

// AssertIncr gates a fresh incremental report: its own invariants (p50
// latency budget, dirty-cluster reuse floor, zero fallbacks, the
// differential identity checks actually ran) plus workload-set equality
// with the committed baseline. Latencies are NOT compared across
// reports — CI hardware varies — the absolute budget is the gate.
func AssertIncr(base, fresh *IncrReport) []error {
	var errs []error
	if len(fresh.Points) == 0 {
		return []error{fmt.Errorf("incremental report has no workloads")}
	}
	for _, pt := range fresh.Points {
		if pt.P50US >= IncrP50BudgetUS {
			errs = append(errs, fmt.Errorf("%s: p50 edit-to-answer %dus, budget %dus",
				pt.Workload, pt.P50US, IncrP50BudgetUS))
		}
		if pt.DirtyFrac >= IncrDirtyFracLimit {
			errs = append(errs, fmt.Errorf("%s: mean dirty fraction %.3f, limit %.2f",
				pt.Workload, pt.DirtyFrac, IncrDirtyFracLimit))
		}
		if pt.Speedup < IncrSpeedupFloor {
			errs = append(errs, fmt.Errorf("%s: speedup %.2f under floor %.1f",
				pt.Workload, pt.Speedup, IncrSpeedupFloor))
		}
		if pt.Fallbacks != 0 {
			errs = append(errs, fmt.Errorf("%s: %d edit(s) fell back to full reanalysis",
				pt.Workload, pt.Fallbacks))
		}
		if pt.IdentityChecks < 1 {
			errs = append(errs, fmt.Errorf("%s: no differential identity check ran",
				pt.Workload))
		}
	}
	if base != nil {
		byName := map[string]bool{}
		for _, pt := range base.Points {
			byName[pt.Workload] = true
		}
		for _, pt := range fresh.Points {
			if !byName[pt.Workload] {
				errs = append(errs, fmt.Errorf("%s: not in the baseline (re-baseline with make incremental-baseline)", pt.Workload))
			}
			delete(byName, pt.Workload)
		}
		for name := range byName {
			errs = append(errs, fmt.Errorf("%s: in the baseline but not measured", name))
		}
	}
	return errs
}

// WriteIncrJSON writes the report as indented JSON.
func WriteIncrJSON(w io.Writer, report *IncrReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(report)
}

// ReadIncrJSONFile loads a BENCH_incremental.json.
func ReadIncrJSONFile(path string) (*IncrReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var report IncrReport
	if err := json.Unmarshal(data, &report); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &report, nil
}

// FormatIncr renders the report as a fixed-width table.
func FormatIncr(report *IncrReport) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-12s %6s %8s %6s %8s %8s %8s %7s %8s %5s\n",
		"workload", "vars", "clusters", "edits", "full_ms", "p50_ms", "p95_ms", "dirty", "speedup", "fall")
	for _, pt := range report.Points {
		fmt.Fprintf(&sb, "%-12s %6d %8d %6d %8.1f %8.2f %8.2f %6.1f%% %7.0fx %5d\n",
			pt.Workload, pt.Vars, pt.Clusters, pt.Edits,
			float64(pt.FullNS)/1e6,
			float64(pt.P50US)/1e3, float64(pt.P95US)/1e3,
			pt.DirtyFrac*100, pt.Speedup, pt.Fallbacks)
	}
	return sb.String()
}
