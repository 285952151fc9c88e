package cow

import (
	"math/rand"
	"testing"
)

// fillFrom returns a fill callback copying from src.
func fillFrom(src []int) func(dst []int, base int) {
	return func(dst []int, base int) { copy(dst, src[base:base+len(dst)]) }
}

// readAll flattens a column for comparison.
func readAll(c *Col[int]) []int {
	out := make([]int, c.Len())
	for i := range out {
		out[i] = c.At(i)
	}
	return out
}

func equal(a, b []int) bool {
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

// TestFillMaterializesAndShares drives the basic COW lifecycle: a
// fresh destination materializes fully, a clean re-fill shares every
// chunk (same backing arrays, zero allocations), and a marked element
// re-materializes exactly its chunk while the rest stay shared.
func TestFillMaterializesAndShares(t *testing.T) {
	const n, shift = 37, 3 // chunk size 8, last chunk 5 elements
	src := make([]int, n)
	for i := range src {
		src[i] = i * 11
	}
	tr := NewTracker(n, shift)
	var col Col[int]
	Fill(tr, &col, fillFrom(src))
	tr.Advance()
	if !equal(readAll(&col), src) {
		t.Fatalf("fresh fill mismatch: %v", readAll(&col))
	}
	if col.NumChunks() != 5 {
		t.Fatalf("NumChunks = %d, want 5", col.NumChunks())
	}
	if got := len(col.Chunk(4)); got != 5 {
		t.Fatalf("last chunk length = %d, want 5", got)
	}

	// Clean re-fill: zero allocations, chunks shared.
	before := make([][]int, col.NumChunks())
	for i := range before {
		before[i] = col.Chunk(i)
	}
	if a := testing.AllocsPerRun(20, func() {
		Fill(tr, &col, fillFrom(src))
		tr.Advance()
	}); a != 0 {
		t.Fatalf("clean re-fill allocated %v times per run, want 0", a)
	}
	for i := range before {
		if &col.Chunk(i)[0] != &before[i][0] {
			t.Fatalf("clean re-fill replaced chunk %d", i)
		}
	}

	// One marked element: only its chunk is rebuilt.
	src[19] = -1 // chunk 2
	tr.Mark(19)
	Fill(tr, &col, fillFrom(src))
	tr.Advance()
	if !equal(readAll(&col), src) {
		t.Fatalf("dirty re-fill mismatch")
	}
	for i := range before {
		same := &col.Chunk(i)[0] == &before[i][0]
		if i == 2 && same {
			t.Fatalf("dirty chunk 2 was not re-materialized")
		}
		if i != 2 && !same {
			t.Fatalf("clean chunk %d was re-materialized", i)
		}
	}
}

// TestFillNeverMutatesPublished pins immutability: the previous view's
// chunks hold their old values after the source mutates and a new view
// is filled.
func TestFillNeverMutatesPublished(t *testing.T) {
	const n, shift = 16, 2
	src := make([]int, n)
	for i := range src {
		src[i] = i
	}
	tr := NewTracker(n, shift)
	var a Col[int]
	Fill(tr, &a, fillFrom(src))
	tr.Advance()

	published := a // readers hold the struct by value via pointer-to-view
	src[5] = 500
	tr.Mark(5)
	b := a // chain the next view off the previous one
	Fill(tr, &b, fillFrom(src))
	tr.Advance()

	if published.At(5) != 5 {
		t.Fatalf("published view changed: At(5) = %d, want 5", published.At(5))
	}
	if b.At(5) != 500 {
		t.Fatalf("new view stale: At(5) = %d, want 500", b.At(5))
	}
	// Unmarked chunks are shared between the two views.
	if &published.Chunk(0)[0] != &b.Chunk(0)[0] {
		t.Fatalf("clean chunk not shared across views")
	}
}

// TestFillForeignDestinations checks the safety net: a zero-value
// destination, a destination from another tracker, and a destination
// refilled after a geometry change are all fully materialized.
func TestFillForeignDestinations(t *testing.T) {
	src := []int{1, 2, 3, 4, 5, 6, 7}
	tr := NewTracker(len(src), 1)
	var a Col[int]
	Fill(tr, &a, fillFrom(src))
	tr.Advance()

	// Foreign geometry: same length, different shift.
	tr2 := NewTracker(len(src), 2)
	b := a
	Fill(tr2, &b, fillFrom(src))
	tr2.Advance()
	if !equal(readAll(&b), src) || b.NumChunks() != 2 {
		t.Fatalf("foreign-geometry refill mismatch: %v (%d chunks)", readAll(&b), b.NumChunks())
	}

	// Fresh zero-value destination after many clean rounds.
	for i := 0; i < 5; i++ {
		Fill(tr, &a, fillFrom(src))
		tr.Advance()
	}
	var fresh Col[int]
	Fill(tr, &fresh, fillFrom(src))
	tr.Advance()
	if !equal(readAll(&fresh), src) {
		t.Fatalf("fresh destination mismatch: %v", readAll(&fresh))
	}
}

// TestMultipleChains pins the non-destructive-export property: two
// destinations chained off one tracker each see every mutation, even
// when they are filled at different cadences. This is what the
// COW-vs-full-copy differential tests and the benchmark baseline rely
// on.
func TestMultipleChains(t *testing.T) {
	const n, shift = 100, 3
	src := make([]int, n)
	tr := NewTracker(n, shift)
	rng := rand.New(rand.NewSource(7))
	var fast, slow Col[int]
	for round := 0; round < 200; round++ {
		for k := 0; k < 1+rng.Intn(4); k++ {
			i := rng.Intn(n)
			src[i] = rng.Int()
			tr.Mark(i)
		}
		Fill(tr, &fast, fillFrom(src))
		tr.Advance()
		if !equal(readAll(&fast), src) {
			t.Fatalf("round %d: fast chain diverged", round)
		}
		if round%7 == 0 {
			Fill(tr, &slow, fillFrom(src))
			tr.Advance()
			if !equal(readAll(&slow), src) {
				t.Fatalf("round %d: slow chain diverged", round)
			}
		}
	}
}

// TestMarkRangeAndAll covers the bulk marking path: MarkAll dirties
// every chunk, and the refill it forces matches the source.
func TestMarkRangeAndAll(t *testing.T) {
	const n, shift = 64, 3
	src := make([]int, n)
	tr := NewTracker(n, shift)
	var col Col[int]
	Fill(tr, &col, fillFrom(src))
	tr.Advance()

	gen := tr.Gen() - 1
	tr.MarkAll()
	if d := tr.DirtyChunks(gen); d != col.NumChunks() {
		t.Fatalf("MarkAll dirtied %d chunks, want %d", d, col.NumChunks())
	}
	for i := range src {
		src[i] = i + 1
	}
	Fill(tr, &col, fillFrom(src))
	tr.Advance()
	if !equal(readAll(&col), src) {
		t.Fatalf("refill after MarkAll mismatch")
	}
}

// TestDirtyFillAllocsBounded pins the publication cost: re-filling
// after one marked element allocates exactly the chunk-header copy
// plus the one rebuilt chunk, independent of column length.
func TestDirtyFillAllocsBounded(t *testing.T) {
	for _, n := range []int{1 << 11, 1 << 15} {
		src := make([]int, n)
		tr := NewTracker(n, 0)
		var col Col[int]
		Fill(tr, &col, fillFrom(src))
		tr.Advance()
		allocs := testing.AllocsPerRun(20, func() {
			tr.Mark(n / 2)
			Fill(tr, &col, fillFrom(src))
			tr.Advance()
		})
		if allocs != 2 {
			t.Fatalf("n=%d: dirty re-fill allocated %v times per run, want 2 (header + chunk)", n, allocs)
		}
	}
}
