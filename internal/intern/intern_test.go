package intern

import (
	"math/rand"
	"testing"
)

func TestTableDenseIDs(t *testing.T) {
	tab := NewTable[string]()
	a := tab.ID("a")
	b := tab.ID("b")
	if a != 0 || b != 1 {
		t.Fatalf("IDs not dense: a=%d b=%d", a, b)
	}
	if got := tab.ID("a"); got != a {
		t.Errorf("re-interning changed the ID: %d != %d", got, a)
	}
	if tab.Value(b) != "b" || tab.Len() != 2 {
		t.Errorf("Value/Len wrong: %q len=%d", tab.Value(b), tab.Len())
	}
	if _, ok := tab.Lookup("c"); ok {
		t.Error("Lookup of an un-interned value reported ok")
	}
}

func TestSeqTableEmptyIsZero(t *testing.T) {
	tab := NewSeqTable()
	if tab.ID(nil) != 0 || tab.ID([]ID{}) != 0 {
		t.Fatal("empty sequence must intern as 0")
	}
	s := tab.ID([]ID{3, 7})
	if s == 0 {
		t.Fatal("non-empty sequence interned as 0")
	}
	if got := tab.ID([]ID{3, 7}); got != s {
		t.Errorf("re-interning changed the ID: %d != %d", got, s)
	}
	if v := tab.Value(s); len(v) != 2 || v[0] != 3 || v[1] != 7 {
		t.Errorf("Value = %v", v)
	}
}

func TestSeqTableCopies(t *testing.T) {
	tab := NewSeqTable()
	buf := []ID{1, 2}
	id := tab.ID(buf)
	buf[0] = 99
	if v := tab.Value(id); v[0] != 1 {
		t.Error("SeqTable aliased the caller's buffer")
	}
}

func TestPairMemo(t *testing.T) {
	var m PairMemo
	if _, ok := m.Get(1, 2); ok {
		t.Fatal("empty memo reported a hit")
	}
	m.Put(1, 2, 42)
	m.Put(2, 1, 7)
	if v, ok := m.Get(1, 2); !ok || v != 42 {
		t.Errorf("Get(1,2) = %d,%v", v, ok)
	}
	if v, ok := m.Get(2, 1); !ok || v != 7 {
		t.Errorf("Get(2,1) = %d,%v (pair key must be order-sensitive)", v, ok)
	}
	// Negative IDs must not collide with positive ones.
	m.Put(-1, 0, 5)
	if v, ok := m.Get(-1, 0); !ok || v != 5 {
		t.Errorf("Get(-1,0) = %d,%v", v, ok)
	}
}

func TestInsertSorted(t *testing.T) {
	seq := []ID{2, 5, 9}
	out, added := InsertSorted(seq, 5)
	if added || len(out) != 3 {
		t.Errorf("inserting a present element: %v added=%v", out, added)
	}
	out, added = InsertSorted(seq, 7)
	want := []ID{2, 5, 7, 9}
	if !added || len(out) != 4 {
		t.Fatalf("InsertSorted = %v added=%v", out, added)
	}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("InsertSorted = %v, want %v", out, want)
		}
	}
	if out, added = InsertSorted(nil, 3); !added || len(out) != 1 || out[0] != 3 {
		t.Errorf("InsertSorted(nil, 3) = %v added=%v", out, added)
	}
}

func TestMergeSortedSubsetsShareBacking(t *testing.T) {
	a := []ID{1, 2, 3}
	b := []ID{2, 3}
	if got := MergeSorted(a, b); &got[0] != &a[0] {
		t.Error("merging a superset should return it unchanged")
	}
	if got := MergeSorted(b, a); &got[0] != &a[0] {
		t.Error("merging into a superset should return it unchanged")
	}
	got := MergeSorted([]ID{1, 4}, []ID{2, 4, 8})
	want := []ID{1, 2, 4, 8}
	if len(got) != len(want) {
		t.Fatalf("MergeSorted = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("MergeSorted = %v, want %v", got, want)
		}
	}
}

func TestMergeSortedRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		set := map[ID]bool{}
		mk := func() []ID {
			var s []ID
			for v := ID(0); v < 30; v++ {
				if rng.Intn(3) == 0 {
					s = append(s, v)
				}
			}
			return s
		}
		a, b := mk(), mk()
		for _, v := range a {
			set[v] = true
		}
		for _, v := range b {
			set[v] = true
		}
		got := MergeSorted(a, b)
		if len(got) != len(set) {
			t.Fatalf("merge of %v and %v = %v (want %d elems)", a, b, got, len(set))
		}
		for i, v := range got {
			if !set[v] || (i > 0 && got[i-1] >= v) {
				t.Fatalf("merge of %v and %v = %v: bad element order", a, b, got)
			}
		}
	}
}

func TestPack2x32RoundTrip(t *testing.T) {
	for _, pair := range [][2]int32{{0, 0}, {1, -1}, {-5, 7}, {1 << 30, -(1 << 30)}} {
		hi, lo := Unpack2x32(Pack2x32(pair[0], pair[1]))
		if hi != pair[0] || lo != pair[1] {
			t.Errorf("round trip of %v = (%d, %d)", pair, hi, lo)
		}
	}
	if Pack2x32(0, -1) == Pack2x32(-1, 0) {
		t.Error("hi/lo must not collide")
	}
}

func TestNextPow2(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 1023: 1024, 1024: 1024}
	for in, want := range cases {
		if got := NextPow2(in); got != want {
			t.Errorf("NextPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestGrow(t *testing.T) {
	s := Grow([]int32{3, 0, 5}[:2], 4)
	if len(s) != 4 || s[0] != 3 || s[2] != 0 || s[3] != 0 {
		t.Errorf("Grow to 4 = %v, want [3 0 0 0]", s)
	}
	if g := Grow(s, 2); len(g) != 4 || &g[0] != &s[0] {
		t.Errorf("Grow to fewer elements must return s unchanged, got %v", g)
	}
	if g := Grow([]bool(nil), 0); g != nil {
		t.Errorf("Grow(nil, 0) = %v, want nil", g)
	}
}

// TestSeqTablesShareNothing: tables start from one shared value list
// holding the empty sequence; a table's first insert must copy it out.
func TestSeqTablesShareNothing(t *testing.T) {
	a, b := NewSeqTable(), NewSeqTable()
	ia, ib := a.ID([]ID{1}), b.ID([]ID{2})
	if ia != 1 || ib != 1 || a.Value(ia)[0] != 1 || b.Value(ib)[0] != 2 {
		t.Fatalf("tables interfere: a[%d] = %v, b[%d] = %v", ia, a.Value(ia), ib, b.Value(ib))
	}
	if a.Value(0) != nil || b.Value(0) != nil || NewSeqTable().Len() != 1 {
		t.Error("the empty sequence must stay ID 0 in every table")
	}
}
