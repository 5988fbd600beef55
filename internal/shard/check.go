package shard

import (
	"fmt"
	"math/bits"
	"slices"
)

// Check verifies the structural invariants of every shard's current
// snapshot and returns the first violation: each base sorted and inside its
// shard's key range, both delta runs sorted and positioned where they
// claim, the tombstones a sub-multiset of the base covering each key's
// FIRST occurrences, the position directory exact at every base position,
// and the live count reconciled.  It reads a whole shard per call — a
// test's and a recovery check's tool, never a serving path.
func (x *Index) Check() error {
	for i, s := range x.shards {
		lo, hi := uint64(0), uint64(1)<<32
		if i > 0 {
			lo = uint64(x.bounds[i-1])
		}
		if i < len(x.bounds) {
			hi = uint64(x.bounds[i])
		}
		if err := s.cur.Load().check(lo, hi); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}

// check verifies one snapshot whose keys all lie in [lo, hi).
func (sn *snapshot) check(lo, hi uint64) error {
	n := len(sn.keys)
	if !slices.IsSorted(sn.keys) {
		return fmt.Errorf("base not sorted")
	}
	for _, r := range []*run{&sn.ins, &sn.tomb} {
		if len(r.pos) != len(r.keys) || !slices.IsSorted(r.keys) {
			return fmt.Errorf("a run of %d keys and %d positions, sorted %v", len(r.keys), len(r.pos), slices.IsSorted(r.keys))
		}
	}
	for _, ks := range [][]uint32{sn.keys, sn.ins.keys} {
		if len(ks) > 0 && (uint64(ks[0]) < lo || uint64(ks[len(ks)-1]) >= hi) {
			return fmt.Errorf("keys [%d, %d] outside the shard's range [%d, %d)", ks[0], ks[len(ks)-1], lo, hi)
		}
	}
	// Both runs are sorted, so one walk of the base finds each key's lower
	// bound in turn.
	lb := 0
	for i, k := range sn.ins.keys {
		for lb < n && sn.keys[lb] < k {
			lb++
		}
		if got := int(sn.ins.pos[i]); got != lb {
			return fmt.Errorf("ins[%d]=%d positioned at %d, base lower bound is %d", i, k, got, lb)
		}
	}
	lb, first := 0, 0 // first: the index of k's first tombstone
	for i, k := range sn.tomb.keys {
		if i == 0 || sn.tomb.keys[i-1] != k {
			first = i
		}
		for lb < n && sn.keys[lb] < k {
			lb++
		}
		want := lb + i - first
		if got := int(sn.tomb.pos[i]); got != want || want >= n || sn.keys[want] != k {
			return fmt.Errorf("tomb[%d]=%d positioned at %d, want base occurrence %d", i, k, got, want)
		}
	}
	if err := sn.checkDir(); err != nil {
		return err
	}
	if want := n + len(sn.ins.keys) - len(sn.tomb.keys); sn.total != want {
		return fmt.Errorf("total=%d, base %d + ins %d - tomb %d = %d", sn.total, n, len(sn.ins.keys), len(sn.tomb.keys), want)
	}
	return nil
}

// checkDir verifies the position directory at every base position lb in
// [0, n] against a walk over both runs' positions: the pair at(lb) names
// holds the counts of run keys positioned below lb's bucket, the bucket is
// marked exactly when a run key is positioned inside it, and a marked
// bucket's next pair counts the keys below its end.  The directory must
// also hold exactly one pair per marked bucket plus the closing totals
// pair, and nothing at all without a delta.  The runs' positions must
// already be checked ascending.
func (sn *snapshot) checkDir() error {
	d := &sn.dir
	if sn.deltaKeys() == 0 {
		if d.bits != nil || d.below != nil || d.cum != nil {
			return fmt.Errorf("empty delta carries a directory")
		}
		return nil
	}
	n := len(sn.keys)
	if len(d.bits) != n>>(dirShift+6)+1 || len(d.below) != len(d.bits) {
		return fmt.Errorf("directory has %d bit words and %d word counts over a %d-key base", len(d.bits), len(d.below), n)
	}
	marked := 0
	for _, w := range d.bits {
		marked += bits.OnesCount64(w)
	}
	if len(d.cum) != 2*(marked+1) {
		return fmt.Errorf("directory holds %d counts for %d marked buckets, want one pair each and a closing pair", len(d.cum), marked)
	}
	if i, tb := d.cum[len(d.cum)-2], d.cum[len(d.cum)-1]; int(i) != len(sn.ins.keys) || int(tb) != len(sn.tomb.keys) {
		return fmt.Errorf("closing directory pair (%d,%d), runs hold (%d,%d)", i, tb, len(sn.ins.keys), len(sn.tomb.keys))
	}
	// below advances a run's count of keys positioned below p.
	below := func(r *run, c int32, p int) int32 {
		for int(c) < len(r.pos) && int(r.pos[c]) < p {
			c++
		}
		return c
	}
	var insLo, tombLo int32
	for lo := 0; lo <= n; lo += 1 << dirShift {
		hi := lo + 1<<dirShift
		insHi, tombHi := below(&sn.ins, insLo, hi), below(&sn.tomb, tombLo, hi)
		for lb := lo; lb < hi && lb <= n; lb++ {
			i, hit := d.at(int32(lb))
			if i < 0 || i+2 > len(d.cum) || (hit && i+4 > len(d.cum)) {
				return fmt.Errorf("at(%d) names pair %d of %d", lb, i/2, len(d.cum)/2)
			}
			if d.cum[i] != insLo || d.cum[i+1] != tombLo {
				return fmt.Errorf("at(%d): pair (%d,%d), runs hold (%d,%d) below base position %d", lb, d.cum[i], d.cum[i+1], insLo, tombLo, lo)
			}
			if want := insHi+tombHi > insLo+tombLo; hit != want {
				return fmt.Errorf("at(%d): bucket [%d,%d) marked %v, holds %d run keys", lb, lo, hi, hit, insHi+tombHi-insLo-tombLo)
			}
			if hit && (d.cum[i+2] != insHi || d.cum[i+3] != tombHi) {
				return fmt.Errorf("at(%d): next pair (%d,%d), runs hold (%d,%d) below base position %d", lb, d.cum[i+2], d.cum[i+3], insHi, tombHi, hi)
			}
		}
		insLo, tombLo = insHi, tombHi
	}
	return nil
}
