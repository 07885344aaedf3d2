// Package cache implements the set-associative cache and TLB structures
// of the simulated memory hierarchy: 32 KB 2-way L1 instruction and data
// caches (2-cycle data cache) and 256-entry TLBs with 8 KB pages
// (Table 1). The L2 NUCA organization built from 1 MB banks lives in
// package nuca and uses this package's Cache for each bank.
package cache

import (
	"fmt"
	"math/bits"
)

// Config describes one cache structure.
type Config struct {
	Name      string
	SizeBytes int
	Assoc     int
	LineBytes int
	// LatencyCycles is the access latency for a hit.
	LatencyCycles int
	// WriteBack selects write-back (true) or write-through behaviour.
	WriteBack bool
	// ECC marks the structure as ECC-protected. The paper's fault model
	// (§2) requires ECC on the data cache, the LVQ, and the trailing
	// core's register file; package fault consults this flag.
	ECC bool
}

// Validate reports a descriptive error for malformed geometry.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.Assoc <= 0 || c.LineBytes <= 0 {
		return fmt.Errorf("cache %q: non-positive geometry", c.Name)
	}
	lines := c.SizeBytes / c.LineBytes
	if lines%c.Assoc != 0 {
		return fmt.Errorf("cache %q: %d lines not divisible by assoc %d", c.Name, lines, c.Assoc)
	}
	sets := lines / c.Assoc
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache %q: set count %d not a power of two", c.Name, sets)
	}
	return nil
}

// Stats holds access counters for one cache.
type Stats struct {
	Accesses   uint64
	Misses     uint64
	Writebacks uint64
}

// MissRate returns misses per access (0 when idle).
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

type line struct {
	tag   uint64
	valid bool
	dirty bool
	lru   uint32
}

// Cache is a set-associative cache with true-LRU replacement.
type Cache struct {
	cfg      Config
	sets     [][]line
	setShift uint
	setMask  uint64
	// tagShift drops the set-index bits from a block number.
	tagShift uint
	clock    uint32
	stats    Stats
}

// New builds a cache from cfg; it panics if cfg is invalid (geometry is
// always statically known in this simulator).
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	nsets := cfg.SizeBytes / cfg.LineBytes / cfg.Assoc
	sets := make([][]line, nsets)
	backing := make([]line, nsets*cfg.Assoc)
	for i := range sets {
		sets[i], backing = backing[:cfg.Assoc:cfg.Assoc], backing[cfg.Assoc:]
	}
	shift := uint(0)
	for 1<<shift < cfg.LineBytes {
		shift++
	}
	mask := uint64(nsets - 1)
	return &Cache{cfg: cfg, sets: sets, setShift: shift, setMask: mask, tagShift: uint(bits.Len64(mask))}
}

// Reset invalidates every line and zeroes the statistics, returning c
// to the state New builds.
func (c *Cache) Reset() {
	for _, set := range c.sets {
		clear(set)
	}
	c.clock = 0
	c.stats = Stats{}
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a copy of the access counters.
func (c *Cache) Stats() Stats { return c.stats }

func (c *Cache) index(addr uint64) (set int, tag uint64) {
	blk := addr >> c.setShift
	return int(blk & c.setMask), blk >> c.tagShift
}

// Access performs a read (write=false) or write (write=true) to addr.
// It returns whether the access hit, and whether a dirty victim was
// written back (only meaningful on misses in write-back caches).
func (c *Cache) Access(addr uint64, write bool) (hit, writeback bool) {
	c.stats.Accesses++
	c.clock++
	set, tag := c.index(addr)
	ways := c.sets[set]
	for w := range ways {
		if ways[w].valid && ways[w].tag == tag {
			ways[w].lru = c.clock
			if write && c.cfg.WriteBack {
				ways[w].dirty = true
			}
			return true, false
		}
	}
	c.stats.Misses++
	// Fill: choose invalid way or true-LRU victim.
	victim := 0
	for w := range ways {
		if !ways[w].valid {
			victim = w
			goto fill
		}
		if ways[w].lru < ways[victim].lru {
			victim = w
		}
	}
	if ways[victim].dirty {
		writeback = true
		c.stats.Writebacks++
	}
fill:
	ways[victim] = line{tag: tag, valid: true, dirty: write && c.cfg.WriteBack, lru: c.clock}
	return false, writeback
}

// Probe reports whether addr is present without updating LRU or stats.
func (c *Cache) Probe(addr uint64) bool {
	set, tag := c.index(addr)
	for _, l := range c.sets[set] {
		if l.valid && l.tag == tag {
			return true
		}
	}
	return false
}

// Flush invalidates all lines, returning the number of dirty lines that
// would be written back.
func (c *Cache) Flush() int {
	dirty := 0
	for s := range c.sets {
		for w := range c.sets[s] {
			if c.sets[s][w].valid && c.sets[s][w].dirty {
				dirty++
			}
			c.sets[s][w] = line{}
		}
	}
	return dirty
}

// Default configurations from Table 1.
var (
	// L1I is the 32 KB 2-way instruction cache.
	L1I = Config{Name: "L1I", SizeBytes: 32 << 10, Assoc: 2, LineBytes: 64, LatencyCycles: 1}
	// L1D is the 32 KB 2-way, 2-cycle data cache. It must be
	// ECC-protected because the trailing core consumes its load values
	// through the LVQ (§2).
	L1D = Config{Name: "L1D", SizeBytes: 32 << 10, Assoc: 2, LineBytes: 64, LatencyCycles: 2, WriteBack: true, ECC: true}
)

// TLB is a simple fully-counted TLB model: 256 entries, 8 KB pages
// (Table 1), LRU replacement, modeled as set-associative with 64 sets ×
// 4 ways.
type TLB struct {
	c *Cache
}

// NewTLB returns a 256-entry TLB with 8 KB pages.
func NewTLB(name string) *TLB {
	return &TLB{c: New(Config{
		Name:      name,
		SizeBytes: 256 * 8192,
		Assoc:     4,
		LineBytes: 8192,
	})}
}

// Reset empties the TLB, as NewTLB builds it.
func (t *TLB) Reset() { t.c.Reset() }

// Access touches the page containing addr and reports a TLB hit.
func (t *TLB) Access(addr uint64) bool {
	hit, _ := t.c.Access(addr, false)
	return hit
}

// Stats returns the TLB's counters.
func (t *TLB) Stats() Stats { return t.c.Stats() }
