// Package cache implements the content-addressed per-cluster result
// cache behind warm-start analysis runs.
//
// Theorem 6 of the paper proves that a cluster's aliases depend only on
// its slice: the pointers V_P and statements St_P computed by
// Algorithm 1, plus the surrounding control-flow/call structure the
// backward walks traverse. A cluster whose canonical slice encoding is
// unchanged between two runs therefore provably has unchanged results,
// so the expensive FSCS stage can be skipped entirely — the cached
// summary tables and points-to sets are re-imported instead.
//
// The cache is two-tiered: a byte-bounded in-memory LRU (always on) and
// an optional on-disk tier (Options.Dir) whose entries are versioned and
// checksummed. Corruption is tolerated by construction: a bad entry is a
// miss, never an error.
package cache

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sort"

	"bootstrap/internal/bitset"
	"bootstrap/internal/callgraph"
	"bootstrap/internal/cluster"
	"bootstrap/internal/intern"
	"bootstrap/internal/ir"
	"bootstrap/internal/steens"
)

// encodingVersion is hashed into every key; bump it whenever the
// canonical encoding below (or the payload format in package fscs)
// changes shape, so stale entries from older builds can never be
// misinterpreted.
const encodingVersion = "bootstrap-cluster-canon/v2\x00"

// Key is the content-addressed identity of one cluster's analysis
// problem: the SHA-256 of the canonical slice encoding.
type Key [sha256.Size]byte

// String renders the key as lowercase hex (also the on-disk file stem).
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// Params are the precision knobs that shape an engine's results and are
// therefore part of the cache key. Settings that cannot change a result,
// such as the worker count or fscs.WithInterning, are deliberately
// excluded, so one cache entry serves every value of them.
type Params struct {
	MaxCond int   // condition-width bound (fscs.WithMaxCond)
	Budget  int64 // worklist tuple budget (fscs.WithBudget)
}

// Canon is the canonical form of one cluster's analysis problem. It
// carries both the fingerprint Key and the bidirectional renamings
// (variables, functions, statement locations) between the program's
// arbitrary IDs and dense canonical indices — the coordinate system
// cached payloads are expressed in, which is what makes entries stable
// under VarID/FuncID/Loc renumbering.
//
// The encoding covers everything the FSCS engine's result depends on:
//
//   - F*: the cluster's functions plus their caller closure — exactly
//     the functions backward walks and summary fixpoints can enter
//     (a callee outside F* never modifies a V_P variable, so its call
//     sites act as skips and are encoded as such);
//   - the CFG skeleton of every F* function (successor edges, entry and
//     exit), with per-node classes: sliced statements with operands,
//     relevant assume nodes, calls into F*, indirect calls, and skips;
//   - the Steensgaard structure of every referenced variable — content
//     class, location class (jointly renumbered, since the transfer
//     function compares them against each other) and hierarchy depth —
//     plus V_P and P membership as canonical-index bit sets;
//   - the precision Params.
type Canon struct {
	prog *ir.Program
	key  Key

	fns      []ir.FuncID
	fnLocal  map[ir.FuncID]int32
	vars     []ir.VarID
	varLocal map[ir.VarID]int32
	locIdx   map[ir.Loc]int32 // node's index within its function
}

// Per-node class bytes of the canonical CFG encoding.
const (
	classSkip      = iota // no effect on any cluster walk
	classStmt             // sliced statement (or in-slice assume): op + operands
	classCall             // direct call to an F* callee
	classIndirect         // undevirtualized indirect call
	classAssumeOut        // assume outside St_P whose operands are both in V_P
)

// NewCanon computes the canonical form and fingerprint of one cluster.
func NewCanon(prog *ir.Program, sa *steens.Analysis, cg *callgraph.Graph, c *cluster.Cluster, params Params) *Canon {
	cn := &Canon{
		prog:     prog,
		fnLocal:  map[ir.FuncID]int32{},
		varLocal: map[ir.VarID]int32{},
		locIdx:   map[ir.Loc]int32{},
	}

	// F*: the caller closure of the cluster's functions. Walks start in
	// c.Funcs (sliced statements) and propagate upward into callers;
	// summary splices only ever descend into functions that can reach a
	// sliced statement, which is again F*.
	inStar := map[ir.FuncID]bool{}
	queue := append([]ir.FuncID(nil), c.Funcs...)
	for _, f := range queue {
		inStar[f] = true
	}
	for len(queue) > 0 {
		f := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, g := range cg.Callers(f) {
			if !inStar[g] {
				inStar[g] = true
				queue = append(queue, g)
			}
		}
	}
	cn.fns = make([]ir.FuncID, 0, len(inStar))
	for f := range inStar {
		cn.fns = append(cn.fns, f)
	}
	// Order functions by name: stable under FuncID renumbering.
	sort.Slice(cn.fns, func(i, j int) bool {
		ni, nj := prog.Func(cn.fns[i]).Name, prog.Func(cn.fns[j]).Name
		if ni != nj {
			return ni < nj
		}
		return cn.fns[i] < cn.fns[j]
	})
	for i, f := range cn.fns {
		cn.fnLocal[f] = int32(i)
		for idx, loc := range prog.Func(f).Nodes {
			cn.locIdx[loc] = int32(idx)
		}
	}

	buf := make([]byte, 0, 4096)
	buf = append(buf, encodingVersion...)
	buf = binary.AppendVarint(buf, int64(params.MaxCond))
	buf = binary.AppendVarint(buf, params.Budget)
	buf = binary.AppendUvarint(buf, uint64(len(cn.fns)))
	if l, ok := cn.fnLocal[prog.Entry]; ok {
		buf = binary.AppendUvarint(buf, uint64(l)+1)
	} else {
		buf = binary.AppendUvarint(buf, 0)
	}

	// varRef assigns canonical variable indices in first-encounter order
	// of the (deterministic) statement walk below.
	varRef := func(v ir.VarID) uint64 {
		if v == ir.NoVar {
			return 0
		}
		l, ok := cn.varLocal[v]
		if !ok {
			l = int32(len(cn.vars))
			cn.varLocal[v] = l
			cn.vars = append(cn.vars, v)
		}
		return uint64(l) + 1
	}

	for _, f := range cn.fns {
		fn := prog.Func(f)
		buf = binary.AppendUvarint(buf, uint64(len(fn.Nodes)))
		buf = binary.AppendUvarint(buf, uint64(cn.locIdx[fn.Entry]))
		buf = binary.AppendUvarint(buf, uint64(cn.locIdx[fn.Exit]))
		for _, loc := range fn.Nodes {
			n := prog.Node(loc)
			st := n.Stmt
			switch st.Op {
			case ir.OpCopy, ir.OpAddr, ir.OpLoad, ir.OpStore, ir.OpNullify:
				if c.HasStmt(loc) {
					buf = append(buf, classStmt, byte(st.Op))
					buf = binary.AppendUvarint(buf, varRef(st.Dst))
					buf = binary.AppendUvarint(buf, varRef(st.Src))
				} else {
					// Outside St_P these cannot modify V_P variables
					// (Algorithm 1 is closed under destinations): skips.
					buf = append(buf, classSkip)
				}
			case ir.OpAssumeEq, ir.OpAssumeNeq:
				// Assume nodes contribute path constraints whenever both
				// operands are tracked, even outside St_P; whether the
				// node is in the slice additionally decides hasAssumes
				// (terminated tokens keep walking), so the two cases get
				// distinct classes.
				if c.HasVar(st.Dst) && c.HasVar(st.Src) {
					cls := byte(classStmt)
					if !c.HasStmt(loc) {
						cls = classAssumeOut
					}
					buf = append(buf, cls, byte(st.Op))
					buf = binary.AppendUvarint(buf, varRef(st.Dst))
					buf = binary.AppendUvarint(buf, varRef(st.Src))
				} else {
					buf = append(buf, classSkip)
				}
			case ir.OpCall:
				switch {
				case st.Callee == ir.NoFunc:
					buf = append(buf, classIndirect)
				case inStar[st.Callee]:
					buf = append(buf, classCall)
					buf = binary.AppendUvarint(buf, uint64(cn.fnLocal[st.Callee]))
				default:
					// The callee cannot reach a sliced statement, so it
					// modifies nothing in V_P: the call is a skip.
					buf = append(buf, classSkip)
				}
			default: // skip, ret, touch
				buf = append(buf, classSkip)
			}
			buf = binary.AppendUvarint(buf, uint64(len(n.Succs)))
			for _, s := range n.Succs {
				buf = binary.AppendUvarint(buf, uint64(cn.locIdx[s]))
			}
		}
	}

	// V_P members never referenced by an encoded statement (they still
	// matter: the cyclic-load case enumerates all of V_P by location
	// class, and they appear in results). Order them by name — stable
	// under renumbering; a rename is a conservative miss.
	leftovers := make([]ir.VarID, 0, len(c.Vars))
	for _, v := range c.Vars {
		if _, ok := cn.varLocal[v]; !ok {
			leftovers = append(leftovers, v)
		}
	}
	sort.Slice(leftovers, func(i, j int) bool {
		ni, nj := prog.VarName(leftovers[i]), prog.VarName(leftovers[j])
		if ni != nj {
			return ni < nj
		}
		return leftovers[i] < leftovers[j]
	})
	for _, v := range leftovers {
		varRef(v)
	}

	// Per-variable Steensgaard structure. Content and location classes
	// are renumbered densely in one shared space because the transfer
	// function compares them against each other (o ∈ pts(q) iff
	// LocClass(o) == ContentClass(q), and partition equality is content-
	// class equality).
	classLocal := map[int]uint64{}
	classRef := func(g int) uint64 {
		l, ok := classLocal[g]
		if !ok {
			l = uint64(len(classLocal))
			classLocal[g] = l
		}
		return l
	}
	buf = binary.AppendUvarint(buf, uint64(len(cn.vars)))
	for _, v := range cn.vars {
		buf = binary.AppendUvarint(buf, classRef(sa.ContentClass(v)))
		buf = binary.AppendUvarint(buf, classRef(sa.LocClass(v)))
		buf = binary.AppendUvarint(buf, uint64(sa.Depth(v)))
		// Precise-mode overlay memberships. Sink status is a whole-program
		// property (a var is a sink only if *no* statement anywhere reads
		// it), so two structurally identical slices can disagree on it;
		// without this the key would collide across programs and serve a
		// summary computed under different partition semantics.
		sinks := sa.SinkClasses(v)
		buf = binary.AppendUvarint(buf, uint64(len(sinks)))
		for _, g := range sinks {
			buf = binary.AppendUvarint(buf, classRef(g))
		}
	}

	// V_P and P membership over canonical indices.
	vp := bitset.New(len(cn.vars))
	for _, v := range c.Vars {
		vp.Add(int(cn.varLocal[v]))
	}
	pp := bitset.New(len(cn.vars))
	for _, v := range c.Pointers {
		pp.Add(int(cn.varLocal[v]))
	}
	buf = vp.AppendCanonical(buf)
	buf = pp.AppendCanonical(buf)

	cn.key = sha256.Sum256(buf)
	return cn
}

// Key returns the cluster's fingerprint.
func (cn *Canon) Key() Key { return cn.key }

// MapVar translates a program VarID to its canonical index.
func (cn *Canon) MapVar(v ir.VarID) (int32, bool) {
	l, ok := cn.varLocal[v]
	return l, ok
}

// UnmapVar translates a canonical index back to this program's VarID.
func (cn *Canon) UnmapVar(l int32) (ir.VarID, bool) {
	if l < 0 || int(l) >= len(cn.vars) {
		return ir.NoVar, false
	}
	return cn.vars[l], true
}

// MapFunc translates a FuncID to its canonical index.
func (cn *Canon) MapFunc(f ir.FuncID) (int32, bool) {
	l, ok := cn.fnLocal[f]
	return l, ok
}

// UnmapFunc translates a canonical index back to this program's FuncID.
func (cn *Canon) UnmapFunc(l int32) (ir.FuncID, bool) {
	if l < 0 || int(l) >= len(cn.fns) {
		return ir.NoFunc, false
	}
	return cn.fns[l], true
}

// MapLoc translates a statement location to its canonical coordinate:
// (function index, node index) packed into one uint64. Only locations
// inside F* functions map.
func (cn *Canon) MapLoc(loc ir.Loc) (uint64, bool) {
	idx, ok := cn.locIdx[loc]
	if !ok {
		return 0, false
	}
	f := cn.prog.Node(loc).Fn
	fl, ok := cn.fnLocal[f]
	if !ok {
		return 0, false
	}
	return intern.Pack2x32(fl, idx), true
}

// UnmapLoc translates a canonical coordinate back to this program's Loc.
func (cn *Canon) UnmapLoc(packed uint64) (ir.Loc, bool) {
	fl, idx := intern.Unpack2x32(packed)
	f, ok := cn.UnmapFunc(fl)
	if !ok {
		return ir.NoLoc, false
	}
	nodes := cn.prog.Func(f).Nodes
	if idx < 0 || int(idx) >= len(nodes) {
		return ir.NoLoc, false
	}
	return nodes[idx], true
}
