// Package cow provides chunked copy-on-write columns: the publication
// primitive that lets the control plane export a full per-server
// column in O(changed chunks) instead of O(fleet).
//
// A Col is an immutable chunked view of a logical []T: the elements
// are stored in fixed power-of-two chunks, and successive exports of
// the same column SHARE the chunks that did not change — only dirty
// chunks are re-materialized. A Tracker records, per chunk, the
// export generation at which it was last mutated; Fill consults those
// watermarks to decide which chunks of the previous view it may alias
// and which it must rebuild.
//
// Contracts:
//
//   - A published Col is immutable. Fill never writes into a chunk the
//     destination already references: dirty chunks get fresh backing
//     arrays, so readers holding an older Col are never perturbed.
//   - A Col must only be re-filled against the Tracker that produced
//     it (generation watermarks are meaningless across trackers); any
//     destination the tracker does not recognize — zero value, foreign
//     geometry — is fully materialized, so misuse costs performance,
//     never correctness.
//   - Mutation marks and Fill/Advance must be externally serialized
//     (the daemon's write mutex); concurrent readers of published Cols
//     need no synchronization.
//
// The watermark scheme (rather than a clear-on-export dirty bitmap)
// makes exports non-destructive: any number of destinations can chain
// off one tracker — the steady-state published view, a differential
// test's full-copy twin, a debug fork — and each rebuilds exactly the
// chunks modified since IT was last filled.
package cow

// DefaultShift selects 1<<10 = 1024 elements per chunk: at the 100k
// hyper-scale target that is ~98 chunks, so a single-server mutation
// republishes 1/98th of a column while the per-publish chunk-header
// walk stays trivially small.
const DefaultShift = 10

// Col is an immutable chunked column view. The zero value is an empty
// column that any Fill fully materializes.
type Col[T any] struct {
	shift  uint
	mask   int
	n      int
	gen    uint64
	chunks [][]T
}

// Len returns the logical element count.
func (c *Col[T]) Len() int { return c.n }

// At returns element i. Cost is two indexed loads — the chunk-aware
// spelling of col[i] for read handlers that must stay allocation-free.
func (c *Col[T]) At(i int) T { return c.chunks[i>>c.shift][i&c.mask] }

// NumChunks returns the number of chunks backing the column.
func (c *Col[T]) NumChunks() int { return len(c.chunks) }

// Chunk returns chunk ci's backing slice. Callers must treat it as
// read-only: it may be shared with any number of other views.
func (c *Col[T]) Chunk(ci int) []T { return c.chunks[ci] }

// Tracker owns the dirty-chunk watermarks for one logical column
// geometry (all columns of one exporter share a tracker: the cluster's
// placement columns are marked by the same mutations, so tracking them
// separately would record identical bits several times).
type Tracker struct {
	shift   uint
	mask    int
	n       int
	nchunks int
	// gen is the current export generation; Advance bumps it after
	// each export round, so marks land on the new generation and the
	// previous round's views read as clean.
	gen uint64
	// maxMod is max(lastMod): one comparison decides "nothing changed
	// since this view was filled" without walking the watermarks.
	maxMod uint64
	// lastMod[ci] is the generation at which chunk ci was last marked.
	lastMod []uint64
}

// NewTracker builds a tracker for an n-element column chunked at
// 1<<shift elements (shift 0 selects DefaultShift). All chunks start
// marked so the first export of any destination materializes fully.
func NewTracker(n int, shift uint) *Tracker {
	if shift == 0 {
		shift = DefaultShift
	}
	t := &Tracker{shift: shift, mask: 1<<shift - 1, n: n, gen: 1, maxMod: 1}
	t.nchunks = (n + t.mask) >> shift
	t.lastMod = make([]uint64, t.nchunks)
	for i := range t.lastMod {
		t.lastMod[i] = 1
	}
	return t
}

// Len returns the tracked element count.
func (t *Tracker) Len() int { return t.n }

// Mark records that element i changed in the current generation.
func (t *Tracker) Mark(i int) {
	t.lastMod[i>>t.shift] = t.gen
	t.maxMod = t.gen
}

// MarkAll records a whole-column change (geometry rebuilds, bulk
// mutations that don't know what they touched).
func (t *Tracker) MarkAll() {
	for i := range t.lastMod {
		t.lastMod[i] = t.gen
	}
	t.maxMod = t.gen
}

// Advance closes the current export round: later marks are attributed
// to the next generation, so the views just filled read as clean until
// something actually changes. Call once after filling every column of
// the round.
func (t *Tracker) Advance() { t.gen++ }

// DirtyChunks reports how many chunks a destination filled at
// generation gen would re-materialize now — the publish-cost metric
// benchmarks report.
func (t *Tracker) DirtyChunks(gen uint64) int {
	d := 0
	for _, lm := range t.lastMod {
		if lm > gen {
			d++
		}
	}
	return d
}

// Gen returns the destination generation Fill stamps this round.
func (t *Tracker) Gen() uint64 { return t.gen }

// chunkBounds returns chunk ci's [base, end) element range.
func (t *Tracker) chunkBounds(ci int) (base, end int) {
	base = ci << t.shift
	end = base + 1<<t.shift
	if end > t.n {
		end = t.n
	}
	return base, end
}

// Fill rebuilds col to the tracker's current state. fill must write
// the current value of elements [base, base+len(dst)) into dst; it is
// invoked only for chunks that changed since col was last filled from
// this tracker (all chunks when col is fresh or foreign). The chunk
// slice passed to fill is never shared with a published view.
func Fill[T any](t *Tracker, col *Col[T], fill func(dst []T, base int)) {
	prevGen := col.gen
	match := col.n == t.n && col.shift == t.shift && len(col.chunks) == t.nchunks
	col.gen, col.n, col.shift, col.mask = t.gen, t.n, t.shift, t.mask
	if match && t.maxMod <= prevGen {
		return // nothing changed since col was filled: share everything
	}
	if !match {
		col.chunks = make([][]T, t.nchunks)
		for ci := range col.chunks {
			base, end := t.chunkBounds(ci)
			c := make([]T, end-base)
			fill(c, base)
			col.chunks[ci] = c
		}
		return
	}
	// Copy the chunk header (the previous view keeps its own) and
	// re-materialize only the chunks modified since col's generation.
	nc := make([][]T, t.nchunks)
	copy(nc, col.chunks)
	col.chunks = nc
	for ci, lm := range t.lastMod {
		if lm > prevGen {
			base, end := t.chunkBounds(ci)
			c := make([]T, end-base)
			fill(c, base)
			nc[ci] = c
		}
	}
}
