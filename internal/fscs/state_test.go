package fscs

import (
	"bytes"
	"encoding/binary"
	"testing"

	"bootstrap/internal/andersen"
	"bootstrap/internal/cache"
	"bootstrap/internal/callgraph"
	"bootstrap/internal/cluster"
	"bootstrap/internal/frontend"
	"bootstrap/internal/ir"
	"bootstrap/internal/steens"
	"bootstrap/internal/synth"
)

// stateFixture is sock@0.05's Andersen cover, solved, with each
// cluster's canonical form and exported payload: the coordinates a warm
// run imports in.
type stateFixture struct {
	prog     *ir.Program
	sa       *steens.Analysis
	cg       *callgraph.Graph
	fb       *andersen.Analysis
	clusters []*cluster.Cluster
	canons   []*cache.Canon
	payloads [][]byte
}

func newStateFixture(t testing.TB) *stateFixture {
	t.Helper()
	b, ok := synth.FindBenchmark("sock")
	if !ok {
		t.Fatal("no sock benchmark")
	}
	prog, err := frontend.LowerSource(synth.Generate(b, 0.05))
	if err != nil {
		t.Fatal(err)
	}
	sa := steens.Analyze(prog)
	if frontend.HasIndirectCalls(prog) {
		if err := frontend.Devirtualize(prog, func(_ ir.Loc, fp ir.VarID) []ir.FuncID { return sa.Targets(fp) }); err != nil {
			t.Fatal(err)
		}
		sa = steens.Analyze(prog)
	}
	fx := &stateFixture{prog: prog, sa: sa, cg: callgraph.Build(prog), fb: andersen.Analyze(prog),
		clusters: cluster.BuildAndersen(prog, sa, cluster.DefaultAndersenThreshold)}
	for _, c := range fx.clusters {
		cn := cache.NewCanon(prog, sa, fx.cg, c, cache.Params{MaxCond: 8})
		eng := NewEngine(prog, fx.cg, sa, c, fx.opts()...)
		if err := eng.Run(); err != nil {
			t.Fatalf("cluster %d: %v", c.ID, err)
		}
		data, ok := eng.ExportState(cn)
		if !ok {
			t.Fatalf("cluster %d: state does not export", c.ID)
		}
		fx.canons = append(fx.canons, cn)
		fx.payloads = append(fx.payloads, data)
	}
	return fx
}

func (fx *stateFixture) opts() []Option {
	return []Option{WithFallback(fx.fb), WithMaxCond(8)}
}

func (fx *stateFixture) importAt(i int, data []byte) (*Engine, error) {
	return ImportEngine(fx.prog, fx.cg, fx.sa, fx.clusters[i], fx.canons[i], data, fx.opts()...)
}

// TestImportEngineRejectsOversizedCount: a payload whose atom count
// exceeds what its remaining bytes can hold is corrupt. Decoding must
// fail at once, before sizing anything by the count: at 2^62 the count
// used to panic in makeslice, and at 2^24 it drove a 64 MB loop first.
func TestImportEngineRejectsOversizedCount(t *testing.T) {
	fx := newStateFixture(t)
	for _, n := range []uint64{1 << 24, 1 << 62} {
		// One summary key (function 0, variable 0) holding one TNull
		// tuple with n atoms, and nothing after the count.
		data := []byte{1, 0, 0, 1, byte(TNull)}
		data = binary.AppendUvarint(data, n)
		if _, err := fx.importAt(0, data); err == nil {
			t.Errorf("atom count %d in a %d-byte payload imported without error", n, len(data))
		}
	}
}

// FuzzImportEngine throws arbitrary payloads at ImportEngine under the
// canonical form of one sock@0.05 cluster (the first byte picks which).
// A decode may fail, never panic: a disk entry whose checksum and key
// echo hold can still carry a corrupt payload, and it must be a miss.
// The seeds are the real exported payloads; each must import and
// re-export to the same bytes.
func FuzzImportEngine(f *testing.F) {
	fx := newStateFixture(f)
	for i, data := range fx.payloads {
		eng, err := fx.importAt(i, data)
		if err != nil {
			f.Fatalf("cluster %d: exported payload does not import: %v", i, err)
		}
		again, ok := eng.ExportState(fx.canons[i])
		if !ok || !bytes.Equal(again, data) {
			f.Fatalf("cluster %d: imported state re-exports differently", i)
		}
		f.Add(uint8(i), data)
	}
	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		_, _ = fx.importAt(int(which)%len(fx.clusters), data)
	})
}
