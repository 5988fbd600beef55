package bloom

import "testing"

func TestNoFalseNegatives(t *testing.T) {
	keys := make([]uint32, 0, 5000)
	for i := 0; i < 5000; i++ {
		keys = append(keys, uint32(i*7+3))
	}
	f := Build(keys)
	for _, k := range keys {
		if !f.May(k) {
			t.Fatalf("false negative for %d", k)
		}
	}
}

func TestFalsePositiveRate(t *testing.T) {
	keys := make([]uint32, 0, 10000)
	for i := 0; i < 10000; i++ {
		keys = append(keys, uint32(i)*2) // evens
	}
	f := Build(keys)
	fp := 0
	const probes = 20000
	for i := 0; i < probes; i++ {
		if f.May(uint32(i)*2 + 1) { // odds: all absent
			fp++
		}
	}
	if rate := float64(fp) / probes; rate > 0.05 {
		t.Fatalf("false-positive rate %.3f, want < 0.05", rate)
	}
}

func TestZeroFilter(t *testing.T) {
	var f Filter
	if f.May(7) {
		t.Fatal("zero filter claimed membership")
	}
	if g := Build([]uint32(nil)); g.May(0) {
		t.Fatal("empty build claimed membership")
	}
}

// TestIntegerKeysDoNotAllocate pins the probe path: a point probe pays one
// hash per delta run, so neither May nor the per-key work of Build may reach
// the allocator (Build's one allocation is the bit array).
func TestIntegerKeysDoNotAllocate(t *testing.T) {
	keys := make([]uint32, 4096)
	for i := range keys {
		keys[i] = uint32(i) * 2654435761
	}
	f := Build(keys)
	hits := 0
	if n := testing.AllocsPerRun(100, func() {
		for _, k := range keys[:64] {
			if f.May(k + 1) {
				hits++
			}
		}
	}); n != 0 {
		t.Fatalf("May allocated %.1f times per 64 probes", n)
	}
	if n := testing.AllocsPerRun(20, func() { f = Build(keys) }); n != 1 {
		t.Fatalf("Build allocated %.1f times, want 1 (the bit array)", n)
	}
	_ = hits
}
