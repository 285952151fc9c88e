package cluster

import "math/bits"

// placeIndex accelerates best-fit placement from O(fleet) per VM to
// O(buckets + words) by bucketing servers on remaining vcore headroom.
//
// Every server in the fleet shares one ServerSpec and one policy, so
// the vcore cap is uniform: a server's placement headroom is fully
// described by r = capV − vcoresUse ∈ [0, capV]. buckets[r] is a
// bitmap over server IDs (ID == slice position in Cluster.servers)
// holding exactly the non-failed, non-reserved servers with that
// headroom; summaries[r] is a second-level bitmap with one bit per
// bitmap word, so "first candidate in ID order" is two
// TrailingZeros64 calls instead of a word scan.
//
// Best-fit (minimum left = r − want, ties to the lowest ID) is then:
// scan r ascending from the smallest feasible bucket and take the
// first set bit — identical, candidate for candidate, to the linear
// scan it replaces, because left grows monotonically with r and
// bit order within a bucket is ID order. Candidates still pass
// through explain(), so memory and class constraints keep their
// exact semantics.
//
// Reserved servers are never indexed: the reserved path (Recover)
// keeps the linear scan, which is both rare and required to see
// buffer capacity the index deliberately hides.
type placeIndex struct {
	capV      int
	words     int
	buckets   [][]uint64
	summaries [][]uint64
	counts    []int
}

func newPlaceIndex(capV, nServers int) *placeIndex {
	ix := &placeIndex{
		capV:      capV,
		words:     (nServers + 63) / 64,
		buckets:   make([][]uint64, capV+1),
		summaries: make([][]uint64, capV+1),
		counts:    make([]int, capV+1),
	}
	return ix
}

// add inserts server id into bucket r, allocating the bucket lazily so
// a fleet that only ever occupies a few headroom levels stays small.
func (ix *placeIndex) add(id, r int) {
	if ix.buckets[r] == nil {
		ix.buckets[r] = make([]uint64, ix.words)
		ix.summaries[r] = make([]uint64, (ix.words+63)/64)
	}
	w := id >> 6
	ix.buckets[r][w] |= 1 << (uint(id) & 63)
	ix.summaries[r][w>>6] |= 1 << (uint(w) & 63)
	ix.counts[r]++
}

// remove deletes server id from bucket r.
func (ix *placeIndex) remove(id, r int) {
	w := id >> 6
	ix.buckets[r][w] &^= 1 << (uint(id) & 63)
	if ix.buckets[r][w] == 0 {
		ix.summaries[r][w>>6] &^= 1 << (uint(w) & 63)
	}
	ix.counts[r]--
}

// move relocates server id between headroom buckets.
func (ix *placeIndex) move(id, from, to int) {
	if from == to {
		return
	}
	ix.remove(id, from)
	ix.add(id, to)
}

// scan calls visit with candidate server IDs in (headroom ascending,
// ID ascending) order, starting at bucket minR, until visit returns
// true (accepted) or the buckets are exhausted. The visit callback
// must not mutate the index.
func (ix *placeIndex) scan(minR int, visit func(id int) bool) bool {
	if minR < 0 {
		minR = 0
	}
	for r := minR; r <= ix.capV; r++ {
		if ix.counts[r] == 0 {
			continue
		}
		sum := ix.summaries[r]
		bm := ix.buckets[r]
		for sw, sv := range sum {
			for sv != 0 {
				w := sw<<6 + bits.TrailingZeros64(sv)
				sv &= sv - 1
				for word := bm[w]; word != 0; word &= word - 1 {
					id := w<<6 + bits.TrailingZeros64(word)
					if visit(id) {
						return true
					}
				}
			}
		}
	}
	return false
}

// headroom returns the server's current index key. Only meaningful for
// indexed (non-failed, non-reserved) servers.
func (c *Cluster) headroom(s *Server) int {
	r := c.idx.capV - s.vcoresUse
	if r < 0 {
		r = 0
	}
	return r
}

// indexed reports whether s participates in the placement index.
func (c *Cluster) indexed(s *Server) bool {
	return !s.Failed && !s.Reserved
}

// rebuildIndex reconstructs the placement index from scratch. Called
// at construction and whenever the vcore cap changes (runtime
// oversubscription policy flips), which re-keys every server at once.
// It computes the vcore cap, the per-server allocation limit under the
// policy, that placement, headroom and ExportFlat read from c.idx.capV.
func (c *Cluster) rebuildIndex() {
	capV := c.Spec.PCores
	if c.Policy.CPUOversubRatio > 0 && c.Spec.Overclockable {
		capV = int(float64(c.Spec.PCores) * (1 + c.Policy.CPUOversubRatio))
	}
	c.idx = newPlaceIndex(capV, len(c.servers))
	for _, s := range c.servers {
		if c.indexed(s) {
			c.idx.add(s.ID, c.headroom(s))
		}
	}
}
