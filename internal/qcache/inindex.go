package qcache

// The IN-reuse candidate index.  Every grouped IN entry of one (table,
// column, layer) is filed under each value it lists, so a subset lookup finds
// the entries that share values with a query by one posting lookup per
// query value.  The cost of a lookup follows the query, not the cache: a
// miss ends at the first query value nothing resident lists — one map probe
// for an ad-hoc list — however many entries are resident.  (The incrementally
// maintained value → postings index of Asadi & Lin, at result-cache scale.)
//
// Layout.  heads maps a value to its first posting, stored inline: an
// ad-hoc value is usually listed by one entry, which then costs one map
// slot and no chain node.  Further postings of the same value chain through
// nodes by 32-bit index.  A posting names its entry by a 32-bit list id
// resolved through owners; a refresh hands an entry's id to its successor
// by re-pointing that one slot, so bringing an entry current never rewrites
// a posting.  Slot 0 of owners and of nodes is reserved, so 0 reads
// as "not indexed" in entry.inID and as "end of chain" in posting.next.
//
// Everything here is touched only under the owning stripe's lock.

// posting is one (value → entry) edge of the index.
type posting struct {
	id   uint32 // list id: owners[id] is the live entry listing the value
	next uint32 // nodes index of the value's next posting; 0 ends the chain
}

// inIndex is one column's inverted index over its grouped IN entries.
type inIndex struct {
	heads    map[uint32]posting
	nodes    []posting
	freeNode uint32 // head of the free-node chain threaded through next
	owners   []*entry
	freeIDs  []uint32
	live     int // list ids in use; the stripe drops the index at 0
	// stamp marks the tallies of the lookup in progress: an entry whose
	// seen differs has not been counted yet, so no lookup ever clears the
	// previous one's scratch.
	stamp uint32
	// visits counts the posting heads probed and chain nodes walked by
	// lookups; the scaling-guard test reads it.
	visits int64
}

func newInIndex() *inIndex {
	return &inIndex{
		heads:  make(map[uint32]posting),
		nodes:  make([]posting, 1),
		owners: make([]*entry, 1),
	}
}

// add assigns e a list id and files it under each of its values.  A new
// posting becomes the value's head; the old head moves to a chain node.
func (ix *inIndex) add(e *entry) {
	if n := len(ix.freeIDs); n > 0 {
		e.inID = ix.freeIDs[n-1]
		ix.freeIDs = ix.freeIDs[:n-1]
		ix.owners[e.inID] = e
	} else {
		e.inID = uint32(len(ix.owners))
		ix.owners = append(ix.owners, e)
	}
	ix.live++
	for _, v := range e.vals {
		p := posting{id: e.inID}
		if old, ok := ix.heads[v]; ok {
			if p.next = ix.freeNode; p.next != 0 {
				ix.freeNode = ix.nodes[p.next].next
				ix.nodes[p.next] = old
			} else {
				p.next = uint32(len(ix.nodes))
				ix.nodes = append(ix.nodes, old)
			}
		}
		ix.heads[v] = p
	}
}

// inherit hands e's list id, and with it every posting of e, to its
// refreshed successor ne by re-pointing the id's one owner slot.
func (ix *inIndex) inherit(e, ne *entry) {
	ne.inID = e.inID
	ix.owners[ne.inID] = ne
}

// drop removes e's postings and releases its list id.
func (ix *inIndex) drop(e *entry) {
	for _, v := range e.vals {
		ix.unpost(v, e.inID)
	}
	ix.owners[e.inID] = nil
	ix.freeIDs = append(ix.freeIDs, e.inID)
	ix.live--
}

// unpost unlinks the posting (v → id).  The walk is as long as the number
// of resident entries listing v.
func (ix *inIndex) unpost(v, id uint32) {
	h := ix.heads[v]
	if h.id == id {
		if h.next == 0 {
			delete(ix.heads, v)
			return
		}
		ix.heads[v] = ix.nodes[h.next]
		ix.release(h.next)
		return
	}
	prev, n := uint32(0), h.next // prev 0: the predecessor is the inline head
	for ix.nodes[n].id != id {
		if n == 0 {
			panic("qcache: IN index lost a posting of a live entry")
		}
		prev, n = n, ix.nodes[n].next
	}
	if prev == 0 {
		h.next = ix.nodes[n].next
		ix.heads[v] = h
	} else {
		ix.nodes[prev].next = ix.nodes[n].next
	}
	ix.release(n)
}

// release returns a chain node to the free chain.
func (ix *inIndex) release(n uint32) {
	ix.nodes[n] = posting{next: ix.freeNode}
	ix.freeNode = n
}

// cover returns an entry serving a reader at tok that lists every value of
// distinct (deduplicated query values), or nil.  A query value with no
// posting ends the lookup: no resident entry can cover the query.  Coverage
// is tallied in the candidates' own scratch fields, so the lookup allocates
// nothing; an entry's list is deduplicated too, so the first candidate whose
// tally reaches len(distinct) lists them all.
func (ix *inIndex) cover(tok Token, distinct []uint32) *entry {
	ix.stamp++
	if ix.stamp == 0 { // wrapped: no old tally may read as current
		for _, e := range ix.owners {
			if e != nil {
				e.seen = 0
			}
		}
		ix.stamp = 1
	}
	want := uint32(len(distinct))
	for _, v := range distinct {
		ix.visits++
		p, ok := ix.heads[v]
		if !ok {
			return nil
		}
		for {
			e := ix.owners[p.id]
			if e.tok.serves(tok) {
				if e.seen != ix.stamp {
					e.seen, e.cnt = ix.stamp, 0
				}
				if e.cnt++; e.cnt == want {
					return e
				}
			}
			if p.next == 0 {
				break
			}
			ix.visits++
			p = ix.nodes[p.next]
		}
	}
	return nil
}
