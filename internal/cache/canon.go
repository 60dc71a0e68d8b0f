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
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

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
const encodingVersion = "bootstrap-cluster-canon/v3\x00"

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
//     sites act as skips);
//   - per F* function, in name order, its skeleton digest (see Table:
//     the CFG shape and where its calls and assumes sit, the same for
//     every cluster) and then only the nodes that are not skips for this
//     cluster, each as its node index and class: sliced statements with
//     operands, relevant assume nodes, calls into F*, indirect calls;
//   - the Steensgaard structure of every referenced variable — content
//     class, location class (jointly renumbered, since the transfer
//     function compares them against each other) and hierarchy depth —
//     plus V_P and P membership as canonical-index bit sets;
//   - the precision Params.
//
// The numbering is computed through mark arrays of a pooled scratch, so
// a Canon holds only the two canonical lists; the Map lookups are built
// from them on first use, which only an export after a miss makes. A
// Canon is therefore not safe for concurrent use.
type Canon struct {
	prog *ir.Program
	key  Key

	fns  []ir.FuncID // by canonical index
	vars []ir.VarID  // by canonical index

	// Built on the first Map call.
	fnLocal  map[ir.FuncID]int32
	varLocal map[ir.VarID]int32
}

// canonScratch is Canon's working storage: canonical index + 1 (0 for
// none) by FuncID, VarID and Steensgaard class id, each cleared through
// the list that filled it, and the encoding buffers.
type canonScratch struct {
	fnLocal    []int32 // by FuncID
	varLocal   []int32 // by VarID
	classLocal []int32 // by class id
	fns        []ir.FuncID
	vars       []ir.VarID // numbered in varLocal, in canonical order
	classes    []int32    // numbered in classLocal, in canonical order
	leftovers  []ir.VarID
	buf, skel  []byte
}

// canonPool holds idle Canon scratch for every table in the process: a
// Canon takes one and returns it with its marks cleared, so a scratch
// grows to the largest program keyed and a table sizes none when it is
// made (cache.NewCanon makes one per call).
var canonPool sync.Pool

// Per-node class bytes of the canonical CFG encoding. A skip, a node
// with no effect on any of the cluster's walks, has no class: the nodes
// a cluster's encoding lists are the ones that are not skips for it.
const (
	classStmt      = iota + 1 // sliced statement (or in-slice assume): op + operands
	classCall                 // direct call to an F* callee
	classIndirect             // undevirtualized indirect call
	classAssumeOut            // assume outside St_P whose operands are both in V_P
)

// Table is the part of every cluster's key that depends on the program
// alone: one skeleton per function, computed on first use and shared by
// every Canon the table makes. An analysis builds one table after its
// program is final (devirtualization adds nodes and rewires edges) and
// keys all its clusters through it, so each function's CFG is walked
// once per analysis rather than once per cluster whose F* holds it.
//
// A Table is safe for concurrent use. Each function's slot fills without
// a lock: goroutines racing on one function each compute the same
// skeleton, and whichever store lands is kept.
type Table struct {
	prog *ir.Program
	sa   *steens.Analysis
	cg   *callgraph.Graph
	fns  []atomic.Pointer[skeleton]
}

// skeleton is what a function contributes to a key whatever the cluster.
type skeleton struct {
	// digest is the SHA-256 of the function's node count, entry and exit
	// indices, every node's successor indices, and the index and op of
	// each call and assume node.
	digest [sha256.Size]byte
	// special lists the call and assume nodes' indices, ascending: with
	// the cluster's St_P statements they are the only nodes that can be
	// anything other than a skip.
	special []int32
}

// NewTable returns an empty table over one program, its Steensgaard
// analysis and call graph. None of them may change while it is in use.
func NewTable(prog *ir.Program, sa *steens.Analysis, cg *callgraph.Graph) *Table {
	return &Table{prog: prog, sa: sa, cg: cg, fns: make([]atomic.Pointer[skeleton], len(prog.Funcs))}
}

// skeleton returns f's skeleton, computing it on first use in scratch,
// which it returns (possibly grown) for the next use.
func (t *Table) skeleton(f ir.FuncID, scratch []byte) (*skeleton, []byte) {
	slot := &t.fns[f]
	if sk := slot.Load(); sk != nil {
		return sk, scratch
	}
	fn := t.prog.Func(f)
	nodes := fn.Nodes
	sk := &skeleton{}
	buf := binary.AppendUvarint(scratch[:0], uint64(len(nodes)))
	buf = binary.AppendUvarint(buf, uint64(nodeIndex(nodes, fn.Entry)))
	buf = binary.AppendUvarint(buf, uint64(nodeIndex(nodes, fn.Exit)))
	for i, loc := range nodes {
		n := t.prog.Node(loc)
		switch n.Stmt.Op {
		case ir.OpCall, ir.OpAssumeEq, ir.OpAssumeNeq:
			sk.special = append(sk.special, int32(i))
		}
		buf = binary.AppendUvarint(buf, uint64(len(n.Succs)))
		for _, s := range n.Succs {
			buf = binary.AppendUvarint(buf, uint64(nodeIndex(nodes, s)))
		}
	}
	buf = binary.AppendUvarint(buf, uint64(len(sk.special)))
	for _, i := range sk.special {
		buf = binary.AppendUvarint(buf, uint64(i))
		buf = append(buf, byte(t.prog.Node(nodes[i]).Stmt.Op))
	}
	sk.digest = sha256.Sum256(buf)
	slot.Store(sk)
	return sk, buf
}

// NewCanon computes the canonical form and fingerprint of one cluster
// through a table of its own. Keying many clusters of one program
// through one Table walks each function once instead of once per
// cluster; the keys are the same.
func NewCanon(prog *ir.Program, sa *steens.Analysis, cg *callgraph.Graph, c *cluster.Cluster, params Params) *Canon {
	return NewTable(prog, sa, cg).Canon(c, params)
}

// Canon computes the canonical form and fingerprint of one cluster of
// the table's program.
func (t *Table) Canon(c *cluster.Cluster, params Params) *Canon {
	prog, sa := t.prog, t.sa
	cn := &Canon{prog: prog}
	s, _ := canonPool.Get().(*canonScratch)
	if s == nil {
		s = &canonScratch{}
	}
	s.fnLocal = intern.Grow(s.fnLocal, len(prog.Funcs))
	s.varLocal = intern.Grow(s.varLocal, prog.NumVars())

	// F*: the caller closure of the cluster's functions. Walks start in
	// c.Funcs (sliced statements) and propagate upward into callers;
	// summary splices only ever descend into functions that can reach a
	// sliced statement, which is again F*. fnLocal marks the functions
	// reached (-1) until they are ordered and numbered below.
	fns := s.fns[:0]
	reach := func(f ir.FuncID) {
		if s.fnLocal[f] == 0 {
			s.fnLocal[f] = -1
			fns = append(fns, f)
		}
	}
	for _, f := range c.Funcs {
		reach(f)
	}
	for i := 0; i < len(fns); i++ {
		for _, g := range t.cg.Callers(fns[i]) {
			reach(g)
		}
	}
	// Order functions by name: stable under FuncID renumbering.
	slices.SortFunc(fns, func(a, b ir.FuncID) int {
		return cmp.Or(strings.Compare(prog.Func(a).Name, prog.Func(b).Name), cmp.Compare(a, b))
	})
	for i, f := range fns {
		s.fnLocal[f] = int32(i) + 1
	}
	cn.fns = slices.Clone(fns)
	s.fns = fns

	buf := append(s.buf[:0], encodingVersion...)
	buf = binary.AppendVarint(buf, int64(params.MaxCond))
	buf = binary.AppendVarint(buf, params.Budget)
	buf = binary.AppendUvarint(buf, uint64(len(cn.fns)))
	if e := prog.Entry; e >= 0 && int(e) < len(prog.Funcs) {
		buf = binary.AppendUvarint(buf, uint64(s.fnLocal[e]))
	} else {
		buf = binary.AppendUvarint(buf, 0)
	}

	// varRef assigns canonical variable indices in first-encounter order
	// of the (deterministic) node walk below. Skips name no variable, so
	// listing only the other nodes numbers variables as a walk over every
	// node would.
	varRef := func(v ir.VarID) uint64 {
		if v == ir.NoVar {
			return 0
		}
		l := s.varLocal[v]
		if l == 0 {
			s.vars = append(s.vars, v)
			l = int32(len(s.vars))
			s.varLocal[v] = l
		}
		return uint64(l)
	}
	// node appends one node that is not a skip: index, class, operands.
	node := func(idx int32, cls byte, st ir.Stmt) {
		buf = binary.AppendUvarint(buf, uint64(idx)+1)
		buf = append(buf, cls, byte(st.Op))
		buf = binary.AppendUvarint(buf, varRef(st.Dst))
		buf = binary.AppendUvarint(buf, varRef(st.Src))
	}
	// special appends the call or assume node at index idx of the
	// current function unless it is a skip here.
	var nodes []ir.Loc
	special := func(idx int32, inSlice bool) {
		st := prog.Node(nodes[idx]).Stmt
		switch st.Op {
		case ir.OpCall:
			if st.Callee == ir.NoFunc {
				buf = binary.AppendUvarint(buf, uint64(idx)+1)
				buf = append(buf, classIndirect)
			} else if l := s.fnLocal[st.Callee]; l > 0 {
				buf = binary.AppendUvarint(buf, uint64(idx)+1)
				buf = append(buf, classCall)
				buf = binary.AppendUvarint(buf, uint64(l-1))
			}
			// Otherwise the callee cannot reach a sliced statement, so it
			// modifies nothing in V_P: the call is a skip.
		default: // OpAssumeEq, OpAssumeNeq
			// Assume nodes contribute path constraints whenever both
			// operands are tracked, even outside St_P; whether the node is
			// in the slice additionally decides hasAssumes (terminated
			// tokens keep walking), so the two cases get distinct classes.
			if c.HasVar(st.Dst) && c.HasVar(st.Src) {
				cls := byte(classStmt)
				if !inSlice {
					cls = classAssumeOut
				}
				node(idx, cls, st)
			}
		}
	}

	for _, f := range cn.fns {
		nodes = prog.Func(f).Nodes
		var sk *skeleton
		sk, s.skel = t.skeleton(f, s.skel)
		buf = append(buf, sk.digest[:]...)
		// f's St_P statements lie between its first and last node, since
		// Func.Nodes ascends. Other functions' statements lie there too
		// only when nodes were appended after lowering (devirtualization,
		// edits); the merge skips them.
		var stmts []ir.Loc
		if len(nodes) > 0 {
			lo, _ := slices.BinarySearch(c.Stmts, nodes[0])
			hi, _ := slices.BinarySearch(c.Stmts, nodes[len(nodes)-1]+1)
			stmts = c.Stmts[lo:hi]
		}
		// Merge the statements with the call and assume nodes, both in
		// node order. Outside St_P a copy, address-of, load, store or
		// nullify cannot modify a V_P variable (Algorithm 1 is closed
		// under destinations), so only the sliced ones are listed.
		k := 0
		for _, loc := range stmts {
			n := prog.Node(loc)
			if n.Fn != f {
				continue
			}
			idx := int32(nodeIndex(nodes, loc))
			for ; k < len(sk.special) && sk.special[k] < idx; k++ {
				special(sk.special[k], false)
			}
			if k < len(sk.special) && sk.special[k] == idx {
				special(idx, true)
				k++
				continue
			}
			switch n.Stmt.Op {
			case ir.OpCopy, ir.OpAddr, ir.OpLoad, ir.OpStore, ir.OpNullify:
				node(idx, classStmt, n.Stmt)
			}
		}
		for ; k < len(sk.special); k++ {
			special(sk.special[k], false)
		}
		buf = append(buf, 0) // no node has index -1: the list ends
	}

	// V_P members never referenced by an encoded statement (they still
	// matter: the cyclic-load case enumerates all of V_P by location
	// class, and they appear in results). Order them by name — stable
	// under renumbering; a rename is a conservative miss.
	leftovers := s.leftovers[:0]
	for _, v := range c.Vars {
		if s.varLocal[v] == 0 {
			leftovers = append(leftovers, v)
		}
	}
	slices.SortFunc(leftovers, func(a, b ir.VarID) int {
		return cmp.Or(strings.Compare(prog.VarName(a), prog.VarName(b)), cmp.Compare(a, b))
	})
	for _, v := range leftovers {
		varRef(v)
	}
	s.leftovers = leftovers
	cn.vars = slices.Clone(s.vars)

	// Per-variable Steensgaard structure. Content and location classes
	// are renumbered densely in one shared space because the transfer
	// function compares them against each other (o ∈ pts(q) iff
	// LocClass(o) == ContentClass(q), and partition equality is content-
	// class equality). Class ids are the analysis' own, which may exceed
	// the variable count, so their marks grow on demand.
	classRef := func(g int) uint64 {
		s.classLocal = intern.Grow(s.classLocal, g+1)
		l := s.classLocal[g]
		if l == 0 {
			s.classes = append(s.classes, int32(g))
			l = int32(len(s.classes))
			s.classLocal[g] = l
		}
		return uint64(l - 1)
	}
	buf = binary.AppendUvarint(buf, uint64(len(cn.vars)))
	for _, v := range cn.vars {
		buf = binary.AppendUvarint(buf, classRef(sa.ContentClass(v)))
		buf = binary.AppendUvarint(buf, classRef(sa.LocClass(v)))
		buf = binary.AppendUvarint(buf, uint64(sa.Depth(v)))
		// Always zero, where a retired partitioner wrote a count: keeps every v3 key and disk entry valid.
		buf = binary.AppendUvarint(buf, 0)
	}

	// V_P and P membership over canonical indices.
	vp := bitset.New(len(cn.vars))
	for _, v := range c.Vars {
		vp.Add(int(s.varLocal[v] - 1))
	}
	pp := bitset.New(len(cn.vars))
	for _, v := range c.Pointers {
		pp.Add(int(s.varLocal[v] - 1))
	}
	buf = vp.AppendCanonical(buf)
	buf = pp.AppendCanonical(buf)

	cn.key = sha256.Sum256(buf)

	// Clear the marks through the lists that set them. A Canon that
	// panics never gets here, and its scratch is dropped.
	for _, f := range cn.fns {
		s.fnLocal[f] = 0
	}
	for _, v := range cn.vars {
		s.varLocal[v] = 0
	}
	for _, g := range s.classes {
		s.classLocal[g] = 0
	}
	s.vars, s.classes, s.buf = s.vars[:0], s.classes[:0], buf
	canonPool.Put(s)
	return cn
}

// Key returns the cluster's fingerprint.
func (cn *Canon) Key() Key { return cn.key }

// lookups builds the Map lookups on first use.
func (cn *Canon) lookups() {
	if cn.varLocal != nil {
		return
	}
	cn.fnLocal = make(map[ir.FuncID]int32, len(cn.fns))
	for i, f := range cn.fns {
		cn.fnLocal[f] = int32(i)
	}
	cn.varLocal = make(map[ir.VarID]int32, len(cn.vars))
	for i, v := range cn.vars {
		cn.varLocal[v] = int32(i)
	}
}

// MapVar translates a program VarID to its canonical index.
func (cn *Canon) MapVar(v ir.VarID) (int32, bool) {
	cn.lookups()
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
	cn.lookups()
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
	if loc < 0 || int(loc) >= len(cn.prog.Nodes) {
		return 0, false
	}
	f := cn.prog.Node(loc).Fn
	fl, ok := cn.MapFunc(f)
	if !ok {
		return 0, false
	}
	nodes := cn.prog.Func(f).Nodes
	idx := nodeIndex(nodes, loc)
	if idx >= len(nodes) || nodes[idx] != loc {
		return 0, false
	}
	return intern.Pack2x32(fl, int32(idx)), true
}

// nodeIndex returns loc's index in nodes, a Func.Nodes list, or 0 when
// loc is not one of them. The lowering gives a function consecutive
// locations, so loc's offset from the first node is usually its index;
// nodes appended later (devirtualization, edits) are found by binary
// search, since the list ascends (ir.Program.Validate checks it).
func nodeIndex(nodes []ir.Loc, loc ir.Loc) int {
	if len(nodes) > 0 {
		if d := int(loc) - int(nodes[0]); d >= 0 && d < len(nodes) && nodes[d] == loc {
			return d
		}
	}
	if i, ok := slices.BinarySearch(nodes, loc); ok {
		return i
	}
	return 0
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
