package fscs

import (
	"bytes"
	"encoding/binary"
	"errors"
	"slices"
	"sort"

	"bootstrap/internal/cache"
	"bootstrap/internal/callgraph"
	"bootstrap/internal/cluster"
	"bootstrap/internal/intern"
	"bootstrap/internal/ir"
	"bootstrap/internal/steens"
)

// This file serializes a solved engine's state — summary tables, FSCI
// value sets and work counters — in the canonical coordinate system of a
// cache.Canon, so a later run of an equivalent cluster (possibly under
// renumbered VarIDs/Locs) can import it and skip the solve. Theorem 6
// makes the reuse sound: the results depend only on what the fingerprint
// encodes.
//
// The payload is deterministic (everything is emitted in canonically
// sorted order), so identical runs produce identical bytes.

// errCorrupt reports an undecodable payload. Callers treat it as a cache
// miss, never a failure.
var errCorrupt = errors.New("fscs: corrupt cached engine state")

// ExportState serializes the engine's computed state against cn's
// canonical renaming. It reports ok=false when some component of the
// required state does not map — such a state would not round-trip, so
// the cluster is simply not cached. Optional memo entries (FSCI value
// sets) are skipped individually instead: a warm engine recomputes them
// to identical values on demand.
func (e *Engine) ExportState(cn *cache.Canon) ([]byte, bool) {
	type skRec struct {
		fl, pl int32
		key    int32
	}
	keys := make([]skRec, 0, e.SummariesBuilt)
	for i, sum := range e.sums {
		if !sum.done {
			continue
		}
		k := sum.key
		fl, ok := cn.MapFunc(k.f)
		if !ok {
			return nil, false
		}
		pl, ok := cn.MapVar(k.ptr)
		if !ok {
			return nil, false
		}
		keys = append(keys, skRec{fl: fl, pl: pl, key: int32(i)})
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].fl != keys[j].fl {
			return keys[i].fl < keys[j].fl
		}
		return keys[i].pl < keys[j].pl
	})

	buf := make([]byte, 0, 1024)
	buf = binary.AppendUvarint(buf, uint64(len(keys)))
	for _, kr := range keys {
		buf = binary.AppendUvarint(buf, uint64(kr.fl))
		buf = binary.AppendUvarint(buf, uint64(kr.pl))
		ts := e.sums[kr.key].tups
		encs := make([][]byte, 0, len(ts))
		for _, t := range ts {
			enc, ok := e.encodeTuple(cn, t)
			if !ok {
				return nil, false
			}
			encs = append(encs, enc)
		}
		sort.Slice(encs, func(i, j int) bool { return bytes.Compare(encs[i], encs[j]) < 0 })
		buf = binary.AppendUvarint(buf, uint64(len(encs)))
		for _, enc := range encs {
			buf = append(buf, enc...)
		}
	}

	// FSCI value sets: optional memo entries keyed by mapped (var, loc).
	// Entries whose key does not map (query-time walks can memoize
	// locations outside F*) are skipped — a warm engine recomputes them
	// on demand to identical fixpoints. An unmappable member *inside* a
	// kept set would silently change the set, so that aborts the export.
	type vrRec struct {
		vl  int32
		ll  uint64
		raw uint64
	}
	var vrs []vrRec
	for raw, vr := range e.ptsVR {
		if vr == inProgress {
			continue // not a result yet
		}
		v, loc := intern.Unpack2x32(raw)
		vl, ok := cn.MapVar(ir.VarID(v))
		if !ok {
			continue
		}
		ll, ok := cn.MapLoc(ir.Loc(loc))
		if !ok {
			continue
		}
		vrs = append(vrs, vrRec{vl: vl, ll: ll, raw: raw})
	}
	sort.Slice(vrs, func(i, j int) bool {
		if vrs[i].vl != vrs[j].vl {
			return vrs[i].vl < vrs[j].vl
		}
		return vrs[i].ll < vrs[j].ll
	})
	buf = binary.AppendUvarint(buf, uint64(len(vrs)))
	for _, rec := range vrs {
		vr := e.ptsVR[rec.raw]
		buf = binary.AppendUvarint(buf, uint64(rec.vl))
		buf = binary.AppendUvarint(buf, rec.ll)
		var flags byte
		if vr.null {
			flags |= 1
		}
		if vr.uninit {
			flags |= 2
		}
		if vr.unknown {
			flags |= 4
		}
		buf = append(buf, flags)
		objs := make([]int32, 0, len(vr.objs))
		for _, o := range vr.objs {
			ol, ok := cn.MapVar(o)
			if !ok {
				return nil, false
			}
			objs = append(objs, ol)
		}
		sort.Slice(objs, func(i, j int) bool { return objs[i] < objs[j] })
		buf = binary.AppendUvarint(buf, uint64(len(objs)))
		for _, ol := range objs {
			buf = binary.AppendUvarint(buf, uint64(ol))
		}
	}

	buf = binary.AppendVarint(buf, e.TuplesProcessed)
	buf = binary.AppendVarint(buf, e.spent)
	return buf, true
}

// encodeTuple canonically encodes one summary tuple: token kind (+
// mapped variable), then the condition's atoms sorted by their mapped
// encoding.
func (e *Engine) encodeTuple(cn *cache.Canon, t tup) ([]byte, bool) {
	b := []byte{byte(t.tok.Kind)}
	switch t.tok.Kind {
	case TVar, TAddr:
		vl, ok := cn.MapVar(t.tok.V)
		if !ok {
			return nil, false
		}
		b = binary.AppendUvarint(b, uint64(vl))
	}
	ids := e.tab.atomIDsOf(t.cond)
	type mAtom struct {
		loc  uint64
		op   byte
		x, y int32
	}
	atoms := make([]mAtom, 0, len(ids))
	for _, aid := range ids {
		a := e.tab.atoms.Value(aid)
		ll, ok := cn.MapLoc(a.Loc)
		if !ok {
			return nil, false
		}
		xl, ok := cn.MapVar(a.X)
		if !ok {
			return nil, false
		}
		yl, ok := cn.MapVar(a.Y)
		if !ok {
			return nil, false
		}
		atoms = append(atoms, mAtom{loc: ll, op: byte(a.Op), x: xl, y: yl})
	}
	sort.Slice(atoms, func(i, j int) bool {
		ai, aj := atoms[i], atoms[j]
		if ai.loc != aj.loc {
			return ai.loc < aj.loc
		}
		if ai.op != aj.op {
			return ai.op < aj.op
		}
		if ai.x != aj.x {
			return ai.x < aj.x
		}
		return ai.y < aj.y
	})
	b = binary.AppendUvarint(b, uint64(len(atoms)))
	for _, a := range atoms {
		b = binary.AppendUvarint(b, a.loc)
		b = append(b, a.op)
		b = binary.AppendUvarint(b, uint64(a.x))
		b = binary.AppendUvarint(b, uint64(a.y))
	}
	return b, true
}

// stateReader decodes a payload with sticky error handling: after the
// first malformed read every subsequent read reports zero and the
// decoder bails out once at the end.
type stateReader struct {
	b   []byte
	off int
	err error
}

func (r *stateReader) fail() {
	if r.err == nil {
		r.err = errCorrupt
	}
}

func (r *stateReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.off += n
	return v
}

// count reads an element count and rejects it when that many elements,
// each at least per bytes long, cannot fit in the rest of the payload: a
// corrupt count must neither size an allocation nor drive a long loop.
func (r *stateReader) count(per int) uint64 {
	n := r.uvarint()
	if r.err == nil && n > uint64(len(r.b)-r.off)/uint64(per) {
		r.fail()
		return 0
	}
	return n
}

func (r *stateReader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.off += n
	return v
}

func (r *stateReader) byte() byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.b) {
		r.fail()
		return 0
	}
	c := r.b[r.off]
	r.off++
	return c
}

// ImportEngine builds a warm engine for cl from a payload previously
// produced by ExportState on an equivalent cluster, translating every
// canonical coordinate through cn into this program's IDs. The opts
// must carry the same precision knobs (fallback, budget, max-cond,
// interning) the caller would pass to a fresh engine; do not attach a
// context or hook — importing does no analysis work.
//
// Any decoding problem returns an error; callers should treat it as a
// cache miss (see cache.Cache.Corrupt) and run the engine fresh.
func ImportEngine(p *ir.Program, cg *callgraph.Graph, sa *steens.Analysis, cl *cluster.Cluster,
	cn *cache.Canon, data []byte, opts ...Option) (*Engine, error) {
	e := NewEngine(p, cg, sa, cl, opts...)
	r := &stateReader{b: data}

	// Minimum encoded sizes: a summary key is three uvarints, a tuple a
	// kind byte and an atom count, an atom three uvarints and an op byte,
	// a value set two uvarints, a flag byte and an object count.
	nKeys := r.count(3)
	for i := uint64(0); i < nKeys && r.err == nil; i++ {
		f, okf := cn.UnmapFunc(int32(r.uvarint()))
		ptr, okp := cn.UnmapVar(int32(r.uvarint()))
		if !okf || !okp {
			r.fail()
			break
		}
		k := e.keyOf(f, ptr)
		nTuples := r.count(2)
		ts := make([]tup, 0, nTuples)
		for j := uint64(0); j < nTuples && r.err == nil; j++ {
			t, ok := e.decodeTuple(cn, r)
			if !ok {
				r.fail()
				break
			}
			ts = append(ts, t)
		}
		// Deduplicate defensively: distinct canonical encodings can
		// re-intern to one tuple only in a corrupt payload, which is
		// external input.
		slices.SortFunc(ts, cmpTup)
		sum := &e.sums[k]
		sum.tups = slices.Compact(ts)
		if !sum.done {
			sum.done = true
			e.SummariesBuilt++
		}
	}

	nVR := r.count(4)
	if nVR > 0 {
		e.ptsVR = make(map[uint64]*valueResult, nVR)
	}
	for i := uint64(0); i < nVR && r.err == nil; i++ {
		v, okv := cn.UnmapVar(int32(r.uvarint()))
		loc, okl := cn.UnmapLoc(r.uvarint())
		if !okv || !okl {
			r.fail()
			break
		}
		flags := r.byte()
		vr := &valueResult{
			null:    flags&1 != 0,
			uninit:  flags&2 != 0,
			unknown: flags&4 != 0,
		}
		nObjs := r.count(1)
		vr.objs = make([]ir.VarID, 0, nObjs)
		for j := uint64(0); j < nObjs && r.err == nil; j++ {
			o, ok := cn.UnmapVar(int32(r.uvarint()))
			if !ok {
				r.fail()
				break
			}
			vr.objs = append(vr.objs, o)
		}
		// Canonical order is not this program's VarID order.
		e.ptsVR[intern.Pack2x32(int32(v), int32(loc))] = vr.finish()
	}

	e.TuplesProcessed = r.varint()
	e.spent = r.varint()
	if r.err == nil && r.off != len(r.b) {
		r.fail() // trailing garbage
	}
	if r.err != nil {
		return nil, r.err
	}
	return e, nil
}

// decodeTuple is encodeTuple's inverse: it reconstructs the token and
// re-interns the condition in this engine's tables.
func (e *Engine) decodeTuple(cn *cache.Canon, r *stateReader) (tup, bool) {
	kind := TokKind(r.byte())
	tok := Token{Kind: kind, V: ir.NoVar}
	switch kind {
	case TVar, TAddr:
		v, ok := cn.UnmapVar(int32(r.uvarint()))
		if !ok {
			return tup{}, false
		}
		tok.V = v
	case TNull, TUnknown:
	default:
		return tup{}, false
	}
	nAtoms := r.count(4)
	cond := TrueCondID
	if nAtoms > 0 {
		ids := make([]AtomID, 0, nAtoms)
		for i := uint64(0); i < nAtoms && r.err == nil; i++ {
			loc, okl := cn.UnmapLoc(r.uvarint())
			op := AtomOp(r.byte())
			x, okx := cn.UnmapVar(int32(r.uvarint()))
			y, oky := cn.UnmapVar(int32(r.uvarint()))
			if !okl || !okx || !oky || op > OpDiffTarget {
				return tup{}, false
			}
			ids = append(ids, e.tab.atomID(Atom{Loc: loc, Op: op, X: x, Y: y}))
		}
		if r.err != nil {
			return tup{}, false
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		// Deduplicate defensively (atoms of a valid condition are
		// distinct, but the payload is external input).
		dst := ids[:1]
		for _, id := range ids[1:] {
			if id != dst[len(dst)-1] {
				dst = append(dst, id)
			}
		}
		cond = e.tab.conds.ID(dst)
	}
	if r.err != nil {
		return tup{}, false
	}
	return tup{tok: tok, cond: cond}, true
}
