package qcache

// Canonical query fingerprints.  A cache entry is addressed by a Key — a
// comparable value identifying *what* was asked (table, column, predicate
// kind, normalized bounds or value-set hash) — and validated by a Token
// identifying *which state* it was answered against (fold generation and row
// high-water mark).  Keys deliberately exclude the token: the common
// dashboard pattern asks the same question across many states, and keeping
// the question stable lets a stale entry be detected (and its slot reused, or
// the entry brought current) the moment the same question arrives under a
// fresh token.

// Kind classifies the query surface a fingerprint came from.  Two surfaces
// never share entries even when their parameters collide.
type Kind uint8

const (
	// KindRange is a one-column range selection (lo ≤ col ≤ hi), with
	// Lo/Hi the raw closed value bounds as asked.  Raw values — not
	// domain IDs — because with a delta layer the frozen dictionary no
	// longer ranks every live value, so IDs are not canonical across an
	// absorbed append while the raw bounds are.
	KindRange Kind = 1 + iota
	// KindIn is an IN-list selection; Hash fingerprints the deduplicated
	// value list in first-occurrence order (result order depends on it).
	KindIn
	// KindWhere is a conjunction of range predicates; Hash fingerprints
	// the (column, lo, hi) raw closed bounds in predicate order.
	KindWhere
	// KindJoin is an indexed nested-loop join result; Hash fingerprints
	// the inner index identity.
	KindJoin
	// KindAgg is a grouped aggregation: Col is the group-by column and
	// Hash fingerprints the measure column plus the source-RID set (a
	// marker distinguishes the nil all-rows source from an explicit one).
	KindAgg
)

// Layer tags which invalidation domain an entry lives in: LayerTable
// entries (a table's query surfaces) are stamped with the owning table's
// generation (bumped by every fold), LayerEpoch entries (an index's own
// SelectRange) with the frozen index epoch they read.  The two layers answer the
// same questions against different snapshots of the data, so they must
// never share entries.
type Layer uint8

const (
	LayerTable Layer = iota
	LayerEpoch
)

// Token is the validity stamp of an entry, and the state of a reader: Gen is
// the fold generation (the table's, or the uid a sharded index was issued at
// its last rebuild) and Epoch the row high-water mark — a result stamped
// (g, m) is the answer over rows [0, m) of generation g.  Both components
// only ever grow.
type Token struct {
	Gen   uint64
	Epoch uint64
}

// serves reports whether an entry stamped t can answer a reader at r: same
// generation, and no row the reader cannot see.  The rows the entry is
// missing, [t.Epoch, r.Epoch), are merged in before it answers (patch.go).
func (t Token) serves(r Token) bool { return t.Gen == r.Gen && t.Epoch <= r.Epoch }

// Key is the canonical fingerprint of one query.  It is a comparable
// struct, used directly as the stripe map key.
type Key struct {
	Table string
	Col   string
	Kind  Kind
	Layer Layer
	// Lo, Hi are the raw closed value bounds of a range query; zero for
	// the other kinds.
	Lo, Hi uint32
	// Hash fingerprints the kind-specific parameters (IN-list values,
	// predicate list, join inner identity); zero for plain ranges.
	Hash uint64
	// N is a collision guard alongside Hash: the value count, predicate
	// count, or zero.
	N uint32
}

// FNV-1a, the same fingerprint primitive the snapshot checksums use; long
// value lists hash through HashWords instead.
const (
	HashSeed    = 14695981039346656037 // FNV-1a offset basis
	hashPrime64 = 1099511628211
)

// HashString folds a string into a running FNV-1a hash.
func HashString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * hashPrime64
	}
	h = (h ^ 0xff) * hashPrime64 // terminator: "ab","c" ≠ "a","bc"
	return h
}

// HashU32 folds one uint32 into a running FNV-1a hash.
func HashU32(h uint64, v uint32) uint64 {
	for i := 0; i < 4; i++ {
		h = (h ^ (uint64(v) & 0xff)) * hashPrime64
		v >>= 8
	}
	return h
}

// HashWords folds a uint32 slice into a running hash two values per 64-bit
// word (wordStep).  The length is folded in first, so a zero-padded tail
// ([1,2,0] against [1,2,0,0]) still differs.  Every step is a bijection of
// the running state for a fixed input word, so two lists of one length
// differing in a single value never collide.  Only in-memory cache
// fingerprints use it; nothing persists its output.
func HashWords(h uint64, vs []uint32) uint64 {
	h = wordStep(h, uint64(len(vs)))
	for ; len(vs) >= 2; vs = vs[2:] {
		h = wordStep(h, uint64(vs[0])|uint64(vs[1])<<32)
	}
	if len(vs) == 1 {
		h = wordStep(h, uint64(vs[0]))
	}
	return h ^ h>>32
}

// wordStep absorbs one 64-bit word: xor, multiply, xorshift, multiply.  Two
// multiplies, because a multiply carries only upward: a difference in the top
// bit alone passes through one multiply, and any linear mixing around it,
// unchanged, whatever the state — and the next word can then cancel it.  The
// xorshift between the two moves that difference to bit 31, where the second
// multiply's carries make what comes out depend on the state.
func wordStep(h, w uint64) uint64 {
	h = (h ^ w) * 0x9e3779b97f4a7c15
	h ^= h >> 32
	return h * 0xbf58476d1ce4e5b9
}

// colKey addresses the per-column containment candidate list inside a
// stripe: every cached range run for one (table, column, layer) triple.
type colKey struct {
	table string
	col   string
	layer Layer
}

// column is the (table, column, layer) triple k's reuse structures are
// filed under.
func (k Key) column() colKey { return colKey{table: k.Table, col: k.Col, layer: k.Layer} }

// identity hashes the fields that route a key: table, column, kind, layer.
func (k Key) identity() uint64 {
	h := HashString(HashString(HashSeed, k.Table), k.Col)
	return HashU32(h, uint32(k.Kind)<<8|uint32(k.Layer))
}

// stripeFor routes a key to its lock stripe.  Only the identity fields
// (table, column, kind, layer) participate, so all range entries of one
// column land in one stripe and containment scans need a single lock.
func (c *Cache) stripeFor(k Key) *stripe {
	return &c.stripes[k.identity()&c.stripeMask]
}

// tag hashes the whole question — identity and parameters, never the token —
// for the stripe's door (door.go).  FNV's multiply only carries low bits
// upward, so a finishing fold brings the high bits down before the door
// takes its set index from the bottom and its tag from the top.
func (k Key) tag() uint64 {
	h := HashU32(HashU32(k.identity(), k.Lo), k.Hi)
	h = HashU32(HashU32(h, uint32(k.Hash)), uint32(k.Hash>>32))
	h = HashU32(h, k.N)
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	return h ^ h>>33
}
