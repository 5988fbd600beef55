// Package cachesim simulates a multi-level set-associative cache hierarchy
// with LRU replacement, parameterised exactly like the paper describes a
// cache: ⟨capacity, block size, associativity⟩ (§3.1, §6.1).
//
// The paper's evaluation hardware no longer exists; this simulator stands in
// for it.  Driven by the address traces of internal/simidx it reproduces the
// cache-miss behaviour that the paper's wall-clock measurements reflect: the
// miss counts depend only on the access pattern and the cache geometry, not
// on the host CPU, so the figures regenerate deterministically on any
// machine.  Presets cover both machines in §6.1:
//
//	Ultra Sparc II: L1 ⟨16 KB, 32 B, 1-way⟩, L2 ⟨1 MB, 64 B, 1-way⟩, 296 MHz
//	Pentium II:     L1 ⟨16 KB, 32 B, 4-way⟩, L2 ⟨512 KB, 32 B, 4-way⟩, 333 MHz
package cachesim

import "fmt"

// Level parameterises one cache level.
type Level struct {
	Name        string
	Capacity    int     // bytes
	Line        int     // block size in bytes (power of two)
	Assoc       int     // ways per set (1 = direct-mapped)
	MissPenalty float64 // extra CPU cycles when this level misses
}

// Sets returns the number of sets of the level.
func (l Level) Sets() int { return l.Capacity / (l.Line * l.Assoc) }

// Machine is a cache hierarchy plus the CPU cost constants the §5.1 time
// model needs to turn event counts into seconds.
type Machine struct {
	Name       string
	ClockHz    float64
	Levels     []Level
	CmpCycles  float64 // one key comparison (register-resident)
	MoveCycles float64 // computing/following one child reference (D or A in §5.1)
}

// UltraSparcII returns the paper's primary evaluation machine.
// Miss penalties follow the paper's observation that "the miss penalty for
// the second level of cache is larger than that of the on-chip cache" and
// that a miss costs an order of magnitude more than a unit computation.
func UltraSparcII() *Machine {
	return &Machine{
		Name:    "Ultra Sparc II (296 MHz)",
		ClockHz: 296e6,
		Levels: []Level{
			{Name: "L1", Capacity: 16 << 10, Line: 32, Assoc: 1, MissPenalty: 6},
			{Name: "L2", Capacity: 1 << 20, Line: 64, Assoc: 1, MissPenalty: 60},
		},
		CmpCycles:  2,
		MoveCycles: 4,
	}
}

// PentiumII returns the paper's second evaluation machine.
func PentiumII() *Machine {
	return &Machine{
		Name:    "Pentium II (333 MHz)",
		ClockHz: 333e6,
		Levels: []Level{
			{Name: "L1", Capacity: 16 << 10, Line: 32, Assoc: 4, MissPenalty: 6},
			{Name: "L2", Capacity: 512 << 10, Line: 32, Assoc: 4, MissPenalty: 45},
		},
		CmpCycles:  2,
		MoveCycles: 4,
	}
}

// ModernServer returns a 2020s server-class hierarchy (three levels, a
// multi-hundred-megabyte L3).  It is not from the paper: it exists to
// demonstrate the paper's own thesis in reverse — when a giant cheap cache
// absorbs the working set, the miss penalty that powers the CSS-tree
// advantage shrinks, and the method gaps compress exactly as the host
// wall-clock measurements in README "Model vs measured" show.
func ModernServer() *Machine {
	return &Machine{
		Name:    "modern server (2.1 GHz, 256 MB L3)",
		ClockHz: 2.1e9,
		Levels: []Level{
			{Name: "L1", Capacity: 48 << 10, Line: 64, Assoc: 12, MissPenalty: 4},
			{Name: "L2", Capacity: 2 << 20, Line: 64, Assoc: 16, MissPenalty: 12},
			{Name: "L3", Capacity: 256 << 20, Line: 64, Assoc: 16, MissPenalty: 40},
		},
		CmpCycles:  1,
		MoveCycles: 1,
	}
}

// STLB returns a machine whose one level is a second-level TLB over pages
// of pageBytes: 2,048 entries, 16-way, as on current x86 server cores.  A
// TLB is a cache of translations, so it is modelled as a cache whose line
// is a page: a miss is a page walk.  Replaying a lookup trace through it
// counts the walks per lookup that a cache hierarchy's misses leave out.
// The walk penalty assumes the page-table entries hit in the data caches.
// On 32-bit hosts Capacity overflows for pages of 1 MiB and more.
func STLB(pageBytes int) *Machine {
	return &Machine{
		Name:    fmt.Sprintf("STLB (2048 entries, 16-way, %d KiB pages)", pageBytes>>10),
		ClockHz: 2.1e9,
		Levels: []Level{
			{Name: "STLB", Capacity: 2048 * pageBytes, Line: pageBytes, Assoc: 16, MissPenalty: 30},
		},
		CmpCycles:  1,
		MoveCycles: 1,
	}
}

// Hierarchy is a running instance of a machine's caches.
type Hierarchy struct {
	levels []levelState
	stats  Stats
}

type levelState struct {
	cfg      Level
	lineBits uint
	sets     int
	// tags[set*assoc+way]; ways ordered most- to least-recently used.
	tags  []uint64
	valid []bool
}

// Stats accumulates hierarchy activity.
type Stats struct {
	Accesses int64
	Hits     []int64 // per level
	Misses   []int64 // per level; Misses[last] are memory accesses
}

// New builds a cold hierarchy for the machine.
func New(m *Machine) *Hierarchy {
	h := &Hierarchy{
		levels: make([]levelState, len(m.Levels)),
		stats: Stats{
			Hits:   make([]int64, len(m.Levels)),
			Misses: make([]int64, len(m.Levels)),
		},
	}
	for i, cfg := range m.Levels {
		if cfg.Line <= 0 || cfg.Line&(cfg.Line-1) != 0 {
			panic(fmt.Sprintf("cachesim: line size %d not a power of two", cfg.Line))
		}
		if cfg.Assoc < 1 || cfg.Capacity%(cfg.Line*cfg.Assoc) != 0 {
			panic(fmt.Sprintf("cachesim: level %q capacity/assoc mismatch", cfg.Name))
		}
		s := levelState{cfg: cfg, sets: cfg.Sets()}
		for 1<<s.lineBits < cfg.Line {
			s.lineBits++
		}
		s.tags = make([]uint64, s.sets*cfg.Assoc)
		s.valid = make([]bool, s.sets*cfg.Assoc)
		h.levels[i] = s
	}
	return h
}

// Access touches size bytes at addr: every cache line spanned is looked up
// in L1; misses propagate to the next level, with LRU replacement at each.
func (h *Hierarchy) Access(addr uint64, size int) {
	if size <= 0 {
		return
	}
	first := h.levels[0]
	start := addr >> first.lineBits
	end := (addr + uint64(size) - 1) >> first.lineBits
	for lineAddr := start << first.lineBits; ; lineAddr += uint64(first.cfg.Line) {
		h.accessLine(lineAddr)
		if lineAddr>>first.lineBits >= end {
			break
		}
	}
}

// accessLine pushes one L1-line-sized reference through the hierarchy.
func (h *Hierarchy) accessLine(addr uint64) {
	h.stats.Accesses++
	for i := range h.levels {
		if h.levels[i].touch(addr) {
			h.stats.Hits[i]++
			return
		}
		h.stats.Misses[i]++
	}
}

// touch looks the address up in one level, refreshing LRU order; on miss it
// installs the line (evicting the LRU way) and reports false.
func (s *levelState) touch(addr uint64) bool {
	tag := addr >> s.lineBits
	set := int(tag % uint64(s.sets))
	base := set * s.cfg.Assoc
	for w := 0; w < s.cfg.Assoc; w++ {
		if s.valid[base+w] && s.tags[base+w] == tag {
			// Move to front (most recently used).
			for ; w > 0; w-- {
				s.tags[base+w] = s.tags[base+w-1]
				s.valid[base+w] = s.valid[base+w-1]
			}
			s.tags[base] = tag
			s.valid[base] = true
			return true
		}
	}
	// Miss: evict the last way.
	for w := s.cfg.Assoc - 1; w > 0; w-- {
		s.tags[base+w] = s.tags[base+w-1]
		s.valid[base+w] = s.valid[base+w-1]
	}
	s.tags[base] = tag
	s.valid[base] = true
	return false
}

// Stats returns a copy of the accumulated counters.
func (h *Hierarchy) Stats() Stats {
	out := h.stats
	out.Hits = append([]int64(nil), h.stats.Hits...)
	out.Misses = append([]int64(nil), h.stats.Misses...)
	return out
}

// Reset clears counters but keeps cache contents (for measuring a warm
// steady state after a warm-up pass).
func (h *Hierarchy) Reset() {
	h.stats.Accesses = 0
	for i := range h.stats.Hits {
		h.stats.Hits[i] = 0
		h.stats.Misses[i] = 0
	}
}

// PenaltyCycles converts the recorded misses into stall cycles on machine m.
func (s Stats) PenaltyCycles(m *Machine) float64 {
	total := 0.0
	for i, lvl := range m.Levels {
		if i < len(s.Misses) {
			total += float64(s.Misses[i]) * lvl.MissPenalty
		}
	}
	return total
}

// AddrAlloc hands out non-overlapping, aligned virtual address ranges so
// simulated structures occupy distinct memory, the way separate allocations
// would on the real machine.
type AddrAlloc struct{ next uint64 }

// NewAddrAlloc starts allocating at a non-zero base.
func NewAddrAlloc() *AddrAlloc { return &AddrAlloc{next: 1 << 20} }

// Alloc reserves size bytes aligned to align (power of two) and returns the
// base address.
func (a *AddrAlloc) Alloc(size int, align int) uint64 {
	if align <= 0 || align&(align-1) != 0 {
		panic("cachesim: bad alignment")
	}
	mask := uint64(align - 1)
	a.next = (a.next + mask) &^ mask
	base := a.next
	a.next += uint64(size)
	return base
}
