package qcache

// Recurrence admission.  Nothing is cached at first sight: a result is worth
// a slot only if its question comes back, and a stream of ad-hoc questions
// (fresh parameters every query) would otherwise pay to copy, link and evict
// payloads nobody asks for again.  So each stripe keeps a door — a small
// set-associative table of question tags, no payload — and a miss notes its
// tag there under the same lock acquisition that counts it.  The miss that
// finds its tag already noted is the question's second sight: only then is
// the caller told to stage and insert a result (by the cost floor, byte
// budget and CLOCK as before).  The executor takes that verdict before it
// runs, so a first-time question builds no key run or group offsets either.
//
// The tag hashes the question (the whole Key), not the state it was asked
// against, so it survives absorbs, folds, DropTable and the eviction of its
// entry: a hot question whose entry a fold dropped is re-admitted by its next
// miss, not its next two.
//
// The recurrence window is the table's capacity, doorSets×doorWays = 4,096
// distinct misses per stripe: a question that recurs within a few hundred
// misses on its stripe is all but certain to find its tag, one that recurs
// tens of thousands of misses later has been overwritten and starts again.
// The price is stated, not hidden: a recurring question is computed twice
// before it is served from the cache, and a containment or subset source that
// is itself asked only once never becomes resident.

const (
	doorSets = 1024
	doorWays = 4
	// A stored tag keeps its low two bits for bookkeeping: doorNoted makes
	// every stored word non-zero (zero is an empty way) and doorAdmitted marks
	// a tag a later miss has found.
	doorNoted    = 1
	doorAdmitted = 2
)

// door is one stripe's tag table, allocated at the stripe's first miss.
type door struct {
	sets [doorSets][doorWays]uint32
	rnd  uint32 // victim picker state
}

// note records that the question hashed h missed and reports whether it had
// missed before.  A new tag takes an empty way; in a full set it replaces a
// tag already admitted — that question's entry is resident, so its tag only
// matters again after an eviction — and failing that a pseudo-random way, so
// five questions taking turns in one four-way set cannot evict each other
// for ever the way they would under FIFO or LRU.
func (d *door) note(h uint64) bool {
	set := &d.sets[h&(doorSets-1)]
	tag := uint32(h>>32)&^(doorNoted|doorAdmitted) | doorNoted
	empty, admitted := -1, -1
	for w, t := range set {
		switch {
		case t&^doorAdmitted == tag:
			set[w] = tag | doorAdmitted
			return true
		case t == 0 && empty < 0:
			empty = w
		case t&doorAdmitted != 0 && admitted < 0:
			admitted = w
		}
	}
	victim := empty
	if victim < 0 {
		victim = admitted
	}
	if victim < 0 {
		d.rnd = d.rnd*1664525 + 1013904223
		victim = int(d.rnd >> 30)
	}
	set[victim] = tag
	return false
}

// miss settles a lookup that found nothing to answer from: it counts the
// miss and returns the admission verdict — whether the caller should stage
// and insert the result it is about to compute.  A negative cost floor
// admits everything and keeps no door.  Caller holds the stripe lock.
func (st *stripe) miss(k Key, c *Cache) (admit bool) {
	st.stats.Misses++
	if c.opts.MinCostNs < 0 {
		return true
	}
	if st.door == nil {
		st.door = new(door)
	}
	if st.door.note(k.tag()) {
		return true
	}
	st.stats.Deferred++
	return false
}
