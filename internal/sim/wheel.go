package sim

import (
	"math"
	"math/bits"
	"sort"
)

// eventBefore is the kernel's total order: (at, seq) ascending. seq is
// unique, so there are no ties and any comparison sort produces the
// same sequence.
func eventBefore(a, b *Event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// sortEvents sorts in place by (at, seq) without allocating
// (sort.Slice would heap-allocate its closure on every bucket
// promotion). Insertion sort covers the common handful-sized bucket;
// larger runs take median-of-three quicksort with the same base case.
func sortEvents(s []*Event) {
	if len(s) <= 24 {
		insertionSortEvents(s)
		return
	}
	// Median-of-three pivot guards against presorted runs.
	m := len(s) / 2
	lo, hi := 0, len(s)-1
	if eventBefore(s[m], s[lo]) {
		s[m], s[lo] = s[lo], s[m]
	}
	if eventBefore(s[hi], s[m]) {
		s[m], s[hi] = s[hi], s[m]
		if eventBefore(s[m], s[lo]) {
			s[m], s[lo] = s[lo], s[m]
		}
	}
	pivot := s[m]
	i, j := lo, hi
	for i <= j {
		for eventBefore(s[i], pivot) {
			i++
		}
		for eventBefore(pivot, s[j]) {
			j--
		}
		if i <= j {
			s[i], s[j] = s[j], s[i]
			i++
			j--
		}
	}
	sortEvents(s[:j+1])
	sortEvents(s[i:])
}

func insertionSortEvents(s []*Event) {
	for i := 1; i < len(s); i++ {
		e := s[i]
		j := i - 1
		for j >= 0 && eventBefore(e, s[j]) {
			s[j+1] = s[j]
			j--
		}
		s[j+1] = e
	}
}

// The timing wheel quantizes virtual time into ticks of 1/tickHz
// seconds. tickHz is a power of two so `at * tickHz` is exact float64
// arithmetic (a pure exponent shift): the tick of a timestamp is a
// deterministic function of the timestamp alone, never of accumulated
// rounding. At 4096 ticks/second one bucket spans ~0.24 ms, a shade
// under the inter-event gap in the queueing harnesses, so level-0
// buckets hold a couple of events each and the per-promotion sort
// stays in insertion sort's cheapest regime (finer ticks buy nothing:
// promotions start outnumbering events).
const (
	wheelBits   = 6
	wheelSize   = 1 << wheelBits // buckets per level
	wheelLevels = 7
	tickHz      = 4096.0
	// wheelSpanTicks is the horizon of the top level: 64^7 ticks
	// (~2^30 virtual seconds, ≈34 years). Events beyond it park in
	// the overflow list until the wheel rebases.
	wheelSpanTicks = float64(1) * wheelSize * wheelSize * wheelSize *
		wheelSize * wheelSize * wheelSize * wheelSize
)

// Event location codes (Event.loc). A queued event records which
// container holds it so Reschedule can detach it in O(1) and so
// foreign events (owned by a different Simulation) are detected.
const (
	locNone     = -1 // not queued
	locDrain    = -3 // wheelQueue.drain (slot in Event.idx)
	locOverflow = -4 // wheelQueue.overflow (slot in Event.idx)
	// loc >= 0: wheel bucket level*wheelSize + bucket (slot in Event.idx)
)

// wheelLevel is one wheel of 64 buckets. Bucket j at level l holds
// events whose tick agrees with the cursor on every base-64 digit
// above l and whose digit l equals j. wheelQueue.occ mirrors bucket
// non-emptiness so the next event is found with one TrailingZeros64
// per level instead of a bucket scan.
type wheelLevel struct {
	buckets [wheelSize][]*Event
}

// wheelQueue is a hierarchical timing wheel with the same observable
// ordering as the binary heap: events fire in strictly increasing
// (at, seq) order.
//
// Determinism argument: cursor partitions tick space. Every queued
// event with tick < cursor sits in drain, which is kept sorted by
// (at, seq); every event with tick >= cursor sits in a wheel bucket
// (or overflow), and all of those order after everything in drain
// because a bucket holds exactly one tick value and ticks are
// monotone in time. Buckets are promoted into drain in increasing
// tick order and sorted by (at, seq) at promotion, and cascades only
// move events between levels without reordering the tick partition.
// Within a tick, (at, seq) is a total order (seq is unique), so the
// sort result is independent of insertion order. The global firing
// sequence is therefore exactly the (at, seq) ascending order the
// heap produces — bit-identical, which TestWheelMatchesHeap pins.
type wheelQueue struct {
	origin float64 // virtual time of tick 0 (changes only on rebase)
	// cursor is the smallest tick not yet promoted into drain.
	cursor uint64
	// drain holds the events currently being fired plus any late
	// arrivals whose tick already passed the cursor, sorted by
	// (at, seq). head indexes the next entry to pop.
	drain []*Event
	head  int
	// levels[0] is the finest wheel (1 tick per bucket); level l
	// buckets span 64^l ticks. occ packs the per-level occupancy
	// bitmaps into one cache line so promote's scans stay off the
	// ~10 KiB bucket array until a bucket is actually touched.
	levels [wheelLevels]wheelLevel
	occ    [wheelLevels]uint64
	// overflow parks events beyond the top-level horizon, unordered.
	// When every level is empty the wheel rebases its origin onto the
	// earliest overflow event and redistributes.
	overflow []*Event
	count    int
	// carry is set when a level-0 promotion carries the cursor into a
	// higher digit. Only then can a bucket at one of the cursor's own
	// digits be occupied (place always files at a digit strictly above
	// the cursor's), so promote's own-digit cascade pass is gated on it.
	carry bool
}

func newWheelQueue() *wheelQueue {
	w := &wheelQueue{}
	// Pre-carve a few slots for every bucket out of one backing array.
	// Buckets are first touched only when virtual time crosses their
	// block boundary, so growing them lazily would dribble allocations
	// through the whole run (and through the steady-state zero-alloc
	// tests); one up-front ~14 KiB array pays for all of them. Buckets
	// that outgrow their carve re-slice via append and keep the larger
	// storage from then on.
	const perBucket = 4
	backing := make([]*Event, wheelLevels*wheelSize*perBucket)
	for l := range w.levels {
		for b := range w.levels[l].buckets {
			o := (l*wheelSize + b) * perBucket
			w.levels[l].buckets[b] = backing[o : o : o+perBucket]
		}
	}
	return w
}

// tickOf maps a timestamp to a tick, or reports overflow. rel is
// clamped at zero: after a rebase the origin can sit ahead of Now, and
// anything scheduled before the origin belongs with the earliest tick.
func (w *wheelQueue) tickOf(at Time) (tick uint64, overflow bool) {
	rel := (float64(at) - w.origin) * tickHz
	if rel < 0 {
		return 0, false
	}
	// rel >= span also catches +Inf; NaN is rejected by Schedule.
	if rel >= wheelSpanTicks {
		return 0, true
	}
	return uint64(rel), false
}

func (w *wheelQueue) len() int { return w.count }

func (w *wheelQueue) push(e *Event) {
	w.count++
	w.place(e)
}

// place files an event into drain, a wheel bucket, or overflow
// according to its tick. Does not touch count (rebase reuses it).
func (w *wheelQueue) place(e *Event) {
	t, over := w.tickOf(e.at)
	w.placeAt(e, t, over)
}

// placeAt is place with the tick already computed (fix shares the
// computation with its same-slot check).
func (w *wheelQueue) placeAt(e *Event, t uint64, over bool) {
	if over {
		e.loc = locOverflow
		e.idx = len(w.overflow)
		w.overflow = append(w.overflow, e)
		return
	}
	if t < w.cursor {
		w.drainInsert(e)
		return
	}
	// Highest base-64 digit where the tick differs from the cursor
	// picks the level; the tick's digit at that level picks the
	// bucket. diff == 0 (tick == cursor, not yet promoted) lands in
	// level 0 like any other same-block tick.
	diff := t ^ w.cursor
	lvl := 0
	if diff != 0 {
		lvl = (bits.Len64(diff) - 1) / wheelBits
	}
	b := (t >> (lvl * wheelBits)) & (wheelSize - 1)
	wl := &w.levels[lvl]
	e.loc = int32(lvl*wheelSize + int(b))
	e.idx = len(wl.buckets[b])
	wl.buckets[b] = append(wl.buckets[b], e)
	w.occ[lvl] |= 1 << b
}

// drainInsert places a late event (tick already behind the cursor)
// into the sorted drain at its (at, seq) position.
func (w *wheelQueue) drainInsert(e *Event) {
	live := w.drain[w.head:]
	i := sort.Search(len(live), func(i int) bool {
		o := live[i]
		if o.at != e.at {
			return o.at > e.at
		}
		return o.seq > e.seq
	})
	w.drain = append(w.drain, nil)
	live = w.drain[w.head:]
	copy(live[i+1:], live[i:])
	live[i] = e
	e.loc = locDrain
	for k := i; k < len(live); k++ {
		live[k].idx = w.head + k
	}
}

// remove detaches a queued event from whichever container holds it.
func (w *wheelQueue) remove(e *Event) {
	switch {
	case e.loc == locDrain:
		live := w.drain[w.head:]
		i := e.idx - w.head
		copy(live[i:], live[i+1:])
		w.drain = w.drain[:len(w.drain)-1]
		live = w.drain[w.head:]
		for k := i; k < len(live); k++ {
			live[k].idx = w.head + k
		}
	case e.loc == locOverflow:
		// Swap-remove; the truncated tail slot keeps a stale pointer
		// (events are free-listed, nil-ing it would only add a write
		// barrier on the Reschedule hot path).
		last := len(w.overflow) - 1
		w.overflow[e.idx] = w.overflow[last]
		w.overflow[e.idx].idx = e.idx
		w.overflow = w.overflow[:last]
	default:
		lvl := int(e.loc) / wheelSize
		b := int(e.loc) % wheelSize
		wl := &w.levels[lvl]
		bk := wl.buckets[b]
		last := len(bk) - 1
		bk[e.idx] = bk[last]
		bk[e.idx].idx = e.idx
		wl.buckets[b] = bk[:last]
		if last == 0 {
			w.occ[lvl] &^= 1 << b
		}
	}
	e.loc = locNone
	e.idx = -1
}

// fix re-files an event after Reschedule updated its (at, seq).
// Buckets and the overflow list are unordered, so a retime that maps
// to the event's current slot — common for the host-wide completion
// retiming that processor sharing does on every share change — is a
// no-op instead of a remove/re-append pair.
func (w *wheelQueue) fix(e *Event) {
	t, over := w.tickOf(e.at)
	if e.loc >= 0 {
		if !over && t >= w.cursor {
			diff := t ^ w.cursor
			lvl := 0
			if diff != 0 {
				lvl = (bits.Len64(diff) - 1) / wheelBits
			}
			b := (t >> (lvl * wheelBits)) & (wheelSize - 1)
			if int32(lvl*wheelSize+int(b)) == e.loc {
				return
			}
		}
	} else if e.loc == locOverflow && over {
		return
	}
	w.remove(e)
	w.placeAt(e, t, over)
}

// queued reports whether e is currently held by this queue; used by
// Reschedule to reject fired, drained, and foreign events.
func (w *wheelQueue) queued(e *Event) bool {
	switch {
	case e.idx < 0:
		return false
	case e.loc == locDrain:
		return e.idx < len(w.drain) && w.drain[e.idx] == e
	case e.loc == locOverflow:
		return e.idx < len(w.overflow) && w.overflow[e.idx] == e
	case e.loc >= 0 && int(e.loc) < wheelLevels*wheelSize:
		bk := w.levels[int(e.loc)/wheelSize].buckets[int(e.loc)%wheelSize]
		return e.idx < len(bk) && bk[e.idx] == e
	}
	return false
}

// peek returns the earliest queued event without removing it,
// promoting wheel buckets into drain as needed. Promotion is
// order-safe before the event actually fires: late schedules that
// land behind the cursor are merge-inserted into drain, so the head
// of drain is always the global (at, seq) minimum — every wheel or
// drain event precedes origin+span, every finite overflow event is at
// or past it, and +Inf events come last of all.
func (w *wheelQueue) peek() *Event {
	for {
		if w.head < len(w.drain) {
			return w.drain[w.head]
		}
		if w.count > len(w.overflow) {
			// Drain is dry but the wheel levels are not.
			w.promote()
			return w.drain[w.head]
		}
		if len(w.overflow) == 0 {
			return nil
		}
		// Only overflow remains. Rebase onto the earliest finite
		// event; if none is left, hand out the +Inf events directly
		// in (at, seq) order — they must never enter the drain, or a
		// later-scheduled finite event would order after them.
		min := math.Inf(1)
		for _, e := range w.overflow {
			if float64(e.at) < min {
				min = float64(e.at)
			}
		}
		if math.IsInf(min, 1) {
			first := w.overflow[0]
			for _, e := range w.overflow[1:] {
				if eventBefore(e, first) {
					first = e
				}
			}
			return first
		}
		w.rebase(min)
	}
}

func (w *wheelQueue) pop() *Event {
	e := w.peek()
	if e == nil {
		return nil
	}
	if e.loc == locOverflow {
		w.remove(e)
	} else {
		// The fired slot is left as a stale pointer rather than
		// nil-ed: entries before head are never read, the next
		// promotion truncates them, and events are free-listed by the
		// kernel anyway — skipping the store saves a write barrier
		// per event.
		w.head++
		e.loc = locNone
		e.idx = -1
	}
	w.count--
	return e
}

// promote advances the cursor to the next occupied bucket, cascading
// higher-level buckets down until a level-0 bucket is reached, then
// sorts that bucket into the (empty) drain. Precondition: at least
// one event is queued in the wheel levels.
func (w *wheelQueue) promote() {
	for {
		// A cursor advance that carried into a higher digit can leave
		// that level's bucket at the cursor's own digit holding ticks
		// inside the current block — ticks that may precede anything
		// at lower levels. Cascade those first, highest level down
		// (redistribution lands strictly below the cascaded level and
		// never back on a cursor digit, so one pass per carry suffices).
		if w.carry {
			w.carry = false
			for l := wheelLevels - 1; l >= 1; l-- {
				d := (w.cursor >> (l * wheelBits)) & (wheelSize - 1)
				if w.occ[l]&(1<<d) != 0 {
					w.cascade(l, d)
				}
			}
		}
		lvl := -1
		var j uint64
		for l := 0; l < wheelLevels; l++ {
			d := (w.cursor >> (l * wheelBits)) & (wheelSize - 1)
			// Buckets at index >= the cursor's digit hold ticks at or
			// after the cursor (higher digits agree with the cursor).
			if m := w.occ[l] >> d << d; m != 0 {
				lvl, j = l, uint64(bits.TrailingZeros64(m))
				break
			}
		}
		if lvl < 0 {
			panic("sim: timing wheel promote on empty wheel")
		}
		if lvl == 0 {
			// One tick's worth of events: advance the cursor past it
			// and sort them into the drain. The slices swap storage —
			// copying the pointers out and nil-ing the bucket would
			// cost two write barriers per event on the hottest path.
			wl := &w.levels[0]
			wl.buckets[j], w.drain = w.drain[:0], wl.buckets[j]
			w.occ[0] &^= 1 << j
			w.cursor = (w.cursor&^(wheelSize-1) | j) + 1
			if w.cursor&(wheelSize-1) == 0 {
				// The increment wrapped the low digit: the cursor
				// carried into one or more higher digits, which may now
				// coincide with occupied buckets.
				w.carry = true
			}
			w.head = 0
			sortEvents(w.drain)
			for i, e := range w.drain {
				e.loc = locDrain
				e.idx = i
			}
			return
		}
		// The next occupied bucket is in a later level-lvl block:
		// jump the cursor to that block's start (every tick between
		// is provably unoccupied) and cascade the bucket down.
		shift := uint((lvl + 1) * wheelBits)
		w.cursor = w.cursor>>shift<<shift | j<<(uint(lvl)*wheelBits)
		w.cascade(lvl, j)
	}
}

// cascade empties bucket (lvl, j) — whose ticks now share the
// cursor's digit at lvl — redistributing its events into lower
// levels. The cursor is not moved; callers position it first.
func (w *wheelQueue) cascade(lvl int, j uint64) {
	wl := &w.levels[lvl]
	bk := wl.buckets[j]
	wl.buckets[j] = bk[:0]
	w.occ[lvl] &^= 1 << j
	// Redistribution lands strictly below lvl (the ticks share the
	// cursor's digit here), so bk's storage is never appended to
	// while iterating, and the stale tail needs no nil-ing.
	for _, e := range bk {
		w.place(e)
	}
}

// rebase re-anchors the wheel origin on min — the earliest (finite)
// overflow timestamp — and redistributes the overflow list. Only
// called when the wheel levels and drain are empty, so no queued tick
// references the old origin. Events still beyond the new horizon
// (including +Inf) fall back into overflow via place.
func (w *wheelQueue) rebase(min float64) {
	pending := w.overflow
	w.overflow = nil
	w.drain = w.drain[:0]
	w.head = 0
	w.cursor = 0
	w.carry = false
	w.origin = min
	for _, e := range pending {
		w.place(e)
	}
}
