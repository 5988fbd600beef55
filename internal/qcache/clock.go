package qcache

// CLOCK eviction.  Each stripe keeps its entries on a ring with a sweeping
// hand: a hit warms an entry (ref up to 3), the hand cools it, and only a
// cold entry under the hand is evicted.  Scan resistance starts before the
// copy: a one-pass scan of never-repeated queries does not get past the door
// (door.go) and leaves only tags behind.  What the door lets through — a
// question seen twice and then dropped — still enters cold, so it recycles
// its own slot instead of flushing the warmed working set: the scan
// resistance the paper's buffer-management ancestors (CLOCK, GCLOCK) bought
// for page caches, applied to query results.  Benefit feeds in once, as
// observed hit rate through the ref lives; recompute cost decides admission
// only (qcache.go).

// evictFor frees room for `need` more bytes, evicting cold entries under
// the hand until the stripe fits its budget share again.  It returns false
// when the space cannot be freed (everything warm after a full cooling
// sweep bounds the work; in practice two passes always succeed because
// refs are capped).  Caller holds the stripe lock.
func (st *stripe) evictFor(need int64, c *Cache) bool {
	if st.bytes+need <= c.budget {
		return true
	}
	// Each live entry can absorb at most ref(≤3) cooling touches plus one
	// eviction; dead husks are reaped on sight without advancing the hand.
	for steps := 5*len(st.ring) + 1; steps > 0 && st.bytes+need > c.budget; steps-- {
		if len(st.ring) == 0 {
			break
		}
		if st.hand >= len(st.ring) {
			st.hand = 0
		}
		e := st.ring[st.hand]
		if e.dead {
			st.unring(st.hand)
			continue
		}
		if e.ref > 0 {
			e.ref--
			st.hand++
			continue
		}
		st.remove(e, c)
		st.unring(st.hand)
		st.stats.Evictions++
	}
	return st.bytes+need <= c.budget
}

// unring removes the ring slot at i by swapping in the last element; the
// hand stays put so the swapped-in entry is inspected next.
func (st *stripe) unring(i int) {
	last := len(st.ring) - 1
	st.ring[i] = st.ring[last]
	st.ring[last] = nil
	st.ring = st.ring[:last]
}
