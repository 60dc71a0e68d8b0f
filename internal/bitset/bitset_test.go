package bitset

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestAddHasRemove(t *testing.T) {
	s := New(0)
	if !s.Add(5) || !s.Add(100) || !s.Add(0) {
		t.Fatal("Add of fresh elements should return true")
	}
	if s.Add(5) {
		t.Error("Add of duplicate should return false")
	}
	for _, want := range []int{0, 5, 100} {
		if !s.Has(want) {
			t.Errorf("Has(%d) = false", want)
		}
	}
	if s.Has(6) || s.Has(1000) {
		t.Error("Has reported an absent element")
	}
	if s.Len() != 3 {
		t.Errorf("Len = %d, want 3", s.Len())
	}
	if !s.Remove(5) {
		t.Error("Remove(5) should return true")
	}
	if s.Remove(5) || s.Remove(999) {
		t.Error("Remove of absent element should return false")
	}
	if s.Has(5) {
		t.Error("5 still present after Remove")
	}
}

func TestZeroValueUsable(t *testing.T) {
	var s Set
	if !s.Empty() || s.Len() != 0 || s.Has(3) {
		t.Fatal("zero value should be an empty set")
	}
	s.Add(63)
	s.Add(64)
	if got := s.Elems(); len(got) != 2 || got[0] != 63 || got[1] != 64 {
		t.Fatalf("Elems = %v, want [63 64]", got)
	}
}

func TestUnionWith(t *testing.T) {
	a, b := New(0), New(0)
	a.Add(1)
	a.Add(70)
	b.Add(2)
	b.Add(70)
	if !a.UnionWith(b) {
		t.Error("union adding a new element should report change")
	}
	if a.UnionWith(b) {
		t.Error("repeated union should report no change")
	}
	if got := a.Elems(); !equalInts(got, []int{1, 2, 70}) {
		t.Errorf("Elems = %v, want [1 2 70]", got)
	}
	if a.UnionWith(nil) {
		t.Error("union with nil should report no change")
	}
}

func TestDiffFrom(t *testing.T) {
	a, b := New(0), New(0)
	a.Add(1)
	a.Add(2)
	b.Add(2)
	b.Add(3)
	b.Add(130)
	d := a.DiffFrom(b)
	if got := d.Elems(); !equalInts(got, []int{3, 130}) {
		t.Errorf("DiffFrom = %v, want [3 130]", got)
	}
	if got := a.DiffFrom(nil).Elems(); len(got) != 0 {
		t.Errorf("DiffFrom(nil) = %v, want empty", got)
	}
}

func TestEqualAndClone(t *testing.T) {
	a := New(0)
	a.Add(7)
	a.Add(200)
	c := a.Clone()
	if !a.Equal(c) || !c.Equal(a) {
		t.Error("clone should equal original")
	}
	c.Add(1)
	if a.Equal(c) {
		t.Error("sets differ but Equal says true")
	}
	// Trailing-zero words should not affect equality.
	d := New(0)
	d.Add(7)
	d.Add(200)
	d.Add(500)
	d.Remove(500)
	if !a.Equal(d) {
		t.Error("trailing zero words should be ignored by Equal")
	}
}

func TestIntersects(t *testing.T) {
	a, b := New(0), New(0)
	a.Add(64)
	b.Add(65)
	if a.Intersects(b) {
		t.Error("disjoint sets should not intersect")
	}
	b.Add(64)
	if !a.Intersects(b) {
		t.Error("sets sharing 64 should intersect")
	}
}

func TestForEachEarlyStop(t *testing.T) {
	s := New(0)
	for i := 0; i < 10; i++ {
		s.Add(i * 7)
	}
	var seen []int
	s.ForEach(func(i int) bool {
		seen = append(seen, i)
		return len(seen) < 3
	})
	if !equalInts(seen, []int{0, 7, 14}) {
		t.Errorf("early stop visited %v, want [0 7 14]", seen)
	}
}

func TestNegativeElement(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Add(-1) should panic")
		}
	}()
	New(0).Add(-1)
}

// TestAgainstMapOracle drives the set with random operations and compares
// with a map-based oracle.
func TestAgainstMapOracle(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New(0)
		oracle := map[int]bool{}
		for k := 0; k < 300; k++ {
			x := rng.Intn(256)
			switch rng.Intn(3) {
			case 0:
				if s.Add(x) == oracle[x] {
					return false
				}
				oracle[x] = true
			case 1:
				if s.Remove(x) != oracle[x] {
					return false
				}
				delete(oracle, x)
			case 2:
				if s.Has(x) != oracle[x] {
					return false
				}
			}
		}
		var want []int
		for x := range oracle {
			want = append(want, x)
		}
		sort.Ints(want)
		return equalInts(s.Elems(), want) && s.Len() == len(want)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func BenchmarkUnionWith(b *testing.B) {
	x, y := New(4096), New(4096)
	for i := 0; i < 4096; i += 3 {
		x.Add(i)
	}
	for i := 0; i < 4096; i += 5 {
		y.Add(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := x.Clone()
		c.UnionWith(y)
	}
}

// TestDiffFromLongerSubtrahend: when the receiver (the subtrahend) has
// more words than t, the result must still be sized by t and the extra
// receiver words must not be consulted past t's length.
func TestDiffFromLongerSubtrahend(t *testing.T) {
	s := New(0)
	s.Add(5)
	s.Add(300) // three extra words beyond t
	u := New(0)
	u.Add(5)
	u.Add(7)
	d := s.DiffFrom(u)
	if !equalInts(d.Elems(), []int{7}) {
		t.Errorf("t \\ s = %v, want [7]", d.Elems())
	}
	// And the degenerate directions.
	if d := s.DiffFrom(New(0)); !d.Empty() {
		t.Errorf("empty \\ s = %v, want empty", d.Elems())
	}
	if d := (&Set{}).DiffFrom(u); !equalInts(d.Elems(), []int{5, 7}) {
		t.Errorf("t \\ ∅ = %v, want [5 7]", d.Elems())
	}
	if d := s.DiffFrom(nil); !d.Empty() {
		t.Errorf("nil \\ s = %v, want empty", d.Elems())
	}
}

// TestIntersectsAfterRemove: Remove clears a bit without shrinking the
// word slice; Intersects over the now-zero tail must not report a stale
// intersection.
func TestIntersectsAfterRemove(t *testing.T) {
	a, b := New(0), New(0)
	a.Add(200)
	b.Add(200)
	if !a.Intersects(b) {
		t.Fatal("Intersects = false before Remove")
	}
	a.Remove(200)
	if a.Intersects(b) {
		t.Error("Intersects = true after the only shared bit was removed")
	}
	a.Add(3)
	b.Add(64) // different words, still disjoint
	if a.Intersects(b) {
		t.Error("Intersects = true for disjoint sets with trailing zero words")
	}
}

// TestUnionWithSelf: unioning a set with itself must be a no-op that
// reports no change, even though receiver and argument alias.
func TestUnionWithSelf(t *testing.T) {
	s := New(0)
	s.Add(1)
	s.Add(77)
	s.Add(128)
	want := s.Elems()
	if s.UnionWith(s) {
		t.Error("s.UnionWith(s) reported a change")
	}
	if !equalInts(s.Elems(), want) {
		t.Errorf("s changed under self-union: %v, want %v", s.Elems(), want)
	}
}

// TestAppendCanonical: equal sets must encode to equal bytes regardless
// of construction history (growth from Add at high indexes, trailing
// zero words left behind by Remove), and different sets must differ.
func TestAppendCanonical(t *testing.T) {
	a := New(0)
	a.Add(3)
	a.Add(70)

	b := New(1024)
	b.Add(900) // grow the word slice far past a's
	b.Remove(900)
	b.Add(70)
	b.Add(3)

	ea := a.AppendCanonical(nil)
	eb := b.AppendCanonical(nil)
	if string(ea) != string(eb) {
		t.Errorf("equal sets encode differently: %x vs %x", ea, eb)
	}

	c := a.Clone()
	c.Add(71)
	if string(c.AppendCanonical(nil)) == string(ea) {
		t.Error("different sets encode equally")
	}

	// Empty set: a bare zero word count, identical for every empty set.
	var empty Set
	drained := New(0)
	drained.Add(500)
	drained.Remove(500)
	if string(empty.AppendCanonical(nil)) != string(drained.AppendCanonical(nil)) {
		t.Error("empty sets encode differently")
	}

	// Appends to the given slice rather than replacing it.
	pre := []byte{0xAA}
	out := a.AppendCanonical(pre)
	if out[0] != 0xAA || string(out[1:]) != string(ea) {
		t.Error("AppendCanonical does not append to the given prefix")
	}
}

// TestGrowAllocs: a set reaching a high bit grows its words in one
// allocation, whether by Add or by UnionWith into an empty set, instead
// of once per doubling (seven times for bit 4095).
func TestGrowAllocs(t *testing.T) {
	src := &Set{}
	src.Add(4095)
	cases := []struct {
		name string
		grow func()
	}{
		{"Add", func() {
			var s Set
			s.Add(4095)
		}},
		{"UnionWith", func() {
			var s Set
			s.UnionWith(src)
		}},
	}
	for _, c := range cases {
		if n := testing.AllocsPerRun(100, c.grow); n > 1 {
			t.Errorf("%s of bit 4095 into an empty set: %.0f allocations, want 1", c.name, n)
		}
	}
}
