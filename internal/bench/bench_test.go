package bench

import (
	"maps"
	"strings"
	"testing"
	"time"

	"bootstrap/internal/cluster"
	"bootstrap/internal/frontend"
	"bootstrap/internal/steens"
	"bootstrap/internal/synth"
)

func smallOpt() Options {
	return Options{Scale: 0.15, Budget: 200_000}
}

func TestRunRowShape(t *testing.T) {
	b, _ := synth.FindBenchmark("sock")
	row, err := RunRow(b, smallOpt())
	if err != nil {
		t.Fatal(err)
	}
	if row.Pointers <= 0 {
		t.Error("no pointers measured")
	}
	if row.SteensNum <= 0 || row.AndersenNum <= 0 {
		t.Errorf("cluster counts: steens=%d andersen=%d", row.SteensNum, row.AndersenNum)
	}
	if row.AndersenMax > row.SteensMax {
		t.Errorf("Andersen max %d exceeds Steensgaard max %d", row.AndersenMax, row.SteensMax)
	}
	if row.SteensTime <= 0 {
		t.Error("Steensgaard time not measured")
	}
}

// TestClusteringBeatsMonolithic is the headline claim of Table 1: with a
// budget that chokes the unclustered analysis, the clustered analyses
// finish.
func TestClusteringBeatsMonolithic(t *testing.T) {
	b, _ := synth.FindBenchmark("pico") // a ">15min" row in the paper
	opt := smallOpt()
	opt.Budget = 50_000
	row, err := RunRow(b, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !row.NoClusterTimedOut {
		t.Skip("monolithic run finished within budget at this scale; shape check not applicable")
	}
	if row.SteensWall <= 0 || row.AndersenWall <= 0 {
		t.Error("clustered runs should complete")
	}
}

// TestCoversMatchBuilders pins what the harness reads off the cascade
// to the cluster package's builders over an independently lowered
// program: RunRow's #cluster and Max columns are the stats of
// BuildSteensgaard's and BuildAndersen's covers at the scaled threshold,
// and Figure1's two series are those covers' size histograms.
func TestCoversMatchBuilders(t *testing.T) {
	opt := Options{Scale: 0.12, SkipNoClustering: true}
	for _, name := range []string{"sock", "autofs", "raid", "mt_daapd"} {
		b, _ := synth.FindBenchmark(name)
		prog, err := frontend.LowerSource(synth.Generate(b, opt.Scale))
		if err != nil {
			t.Fatal(err)
		}
		sa := steens.Analyze(prog)
		sc := cluster.BuildSteensgaard(prog, sa)
		ac := cluster.BuildAndersen(prog, sa, opt.threshold())
		ss, as := cluster.CoverStats(sc), cluster.CoverStats(ac)

		row, err := RunRow(b, opt)
		if err != nil {
			t.Fatal(err)
		}
		if row.SteensNum != ss.NumClusters || row.SteensMax != ss.MaxSize {
			t.Errorf("%s: Steensgaard #cluster/Max = %d/%d, builder %d/%d",
				name, row.SteensNum, row.SteensMax, ss.NumClusters, ss.MaxSize)
		}
		if row.AndersenNum != as.NumClusters || row.AndersenMax != as.MaxSize {
			t.Errorf("%s: Andersen #cluster/Max = %d/%d, builder %d/%d",
				name, row.AndersenNum, row.AndersenMax, as.NumClusters, as.MaxSize)
		}

		sh, ah, err := Figure1(b, opt)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range []struct {
			name   string
			series []HistPoint
			cover  []*cluster.Cluster
		}{{"Steensgaard", sh, sc}, {"Andersen", ah, ac}} {
			got := map[int]int{}
			for _, p := range s.series {
				got[p.Size] = p.Count
			}
			if want := cluster.SizeHistogram(s.cover); !maps.Equal(got, want) {
				t.Errorf("%s: Figure 1 %s series %v, builder %v", name, s.name, got, want)
			}
		}
	}
}

func TestFormatTable(t *testing.T) {
	b, _ := synth.FindBenchmark("ctrace")
	row, err := RunRow(b, smallOpt())
	if err != nil {
		t.Fatal(err)
	}
	out := FormatTable([]Row{row})
	if !strings.Contains(out, "ctrace") || !strings.Contains(out, "#cluster") {
		t.Errorf("table output malformed:\n%s", out)
	}
	cmp := FormatComparison([]Row{row})
	if !strings.Contains(cmp, "ctrace") {
		t.Errorf("comparison output malformed:\n%s", cmp)
	}
}

func TestFigure1Shape(t *testing.T) {
	b, _ := synth.FindBenchmark("autofs")
	sh, ah, err := Figure1(b, smallOpt())
	if err != nil {
		t.Fatal(err)
	}
	if len(sh) == 0 || len(ah) == 0 {
		t.Fatal("empty histograms")
	}
	// Figure 1's shape: high density at small sizes for both series.
	smallHeavy := func(h []HistPoint) bool {
		small, total := 0, 0
		for _, p := range h {
			total += p.Count
			if p.Size <= 8 {
				small += p.Count
			}
		}
		return small*2 > total
	}
	if !smallHeavy(sh) || !smallHeavy(ah) {
		t.Error("histograms should be dominated by small clusters")
	}
	// The Steensgaard max (isolated square to the far right) is at least
	// the Andersen max.
	if sh[len(sh)-1].Size < ah[len(ah)-1].Size {
		t.Errorf("max Steensgaard size %d < max Andersen size %d",
			sh[len(sh)-1].Size, ah[len(ah)-1].Size)
	}
	out := FormatHistogram(sh, ah)
	if !strings.Contains(out, "size") {
		t.Error("histogram format malformed")
	}
}

func TestThresholdSweep(t *testing.T) {
	b, _ := synth.FindBenchmark("raid")
	points, err := ThresholdSweep(b, []int{4, 8, 1000}, smallOpt())
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("got %d points", len(points))
	}
	// A threshold above every partition size means no Andersen refinement:
	// max cluster equals the Steensgaard max; a low threshold should not
	// increase it.
	if points[0].MaxSize > points[2].MaxSize {
		t.Errorf("low threshold max %d > no-refinement max %d", points[0].MaxSize, points[2].MaxSize)
	}
	if out := FormatSweep(points); !strings.Contains(out, "threshold") {
		t.Error("sweep format malformed")
	}
}

func TestRunTableStreams(t *testing.T) {
	var sb strings.Builder
	rows, err := RunTable([]synth.Benchmark{synth.Table1[0]}, smallOpt(), &sb)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("got %d rows", len(rows))
	}
	if !strings.Contains(sb.String(), "running") {
		t.Error("progress not streamed")
	}
}

func TestFmtDur(t *testing.T) {
	cases := []struct {
		d   time.Duration
		out string
		to  bool
	}{
		{90 * time.Second, "1.5min", false},
		{2500 * time.Millisecond, "2.50s", false},
		{1500 * time.Microsecond, "1.5ms", false},
		{500 * time.Microsecond, "500µs", false},
		{time.Second, "> budget", true},
	}
	for _, tc := range cases {
		if got := fmtDur(tc.d, tc.to); got != tc.out {
			t.Errorf("fmtDur(%v,%v) = %q, want %q", tc.d, tc.to, got, tc.out)
		}
	}
}
