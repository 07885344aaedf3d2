// Package nuca implements the non-uniform L2 cache of the paper's §3.1:
// a large L2 partitioned into 1 MB banks reached over a grid network
// where each hop costs four cycles. Two placement policies are modeled:
//
//   - distributed sets: the set index selects a unique bank (simple, but
//     all banks are accessed uniformly);
//   - distributed ways: each way of a set lives in a different bank, a
//     centralized tag array near the controller is consulted first, and
//     hit promotion gradually migrates hot blocks to closer banks.
//
// The paper's configurations: the 2d-a baseline is a 6-way 6 MB L2
// (6 banks); the 2d-2a and 3d-2a models are 15-way 15 MB (15 banks).
package nuca

import (
	"fmt"

	"r3d/internal/noc"
)

// Policy selects the NUCA data-placement policy.
type Policy uint8

const (
	// DistributedSets spreads sets across banks (paper default).
	DistributedSets Policy = iota
	// DistributedWays spreads ways across banks with a central tag array.
	DistributedWays
)

func (p Policy) String() string {
	if p == DistributedSets {
		return "distributed-sets"
	}
	return "distributed-ways"
}

// Constants of the paper's L2 organization.
const (
	BankBytes = 1 << 20 // 1 MB banks
	LineBytes = 64
	// BankAccessCycles is the bank tag+data access time; with the
	// paper's mean hop distances it yields the reported average hit
	// latencies (18 cycles for 2d-a, 22 for 2d-2a).
	BankAccessCycles = 6
	// CentralTagCycles is the centralized tag array lookup time for the
	// distributed-ways policy.
	CentralTagCycles = 2
	// MemoryLatency is the latency to memory for the first chunk
	// (Table 1: 300 cycles at 2 GHz).
	MemoryLatency = 300
)

// Config describes one NUCA instance.
type Config struct {
	Name   string
	Policy Policy
	// HopsPerBank gives the one-way hop distance from the controller to
	// each bank; its length fixes both capacity (1 MB per bank) and
	// associativity (ways = banks for distributed sets as well, keeping
	// total capacity and associativity tied the way the paper's 6-way
	// 6 MB / 15-way 15 MB organizations are).
	HopsPerBank []int
}

// Banks returns the bank count.
func (c Config) Banks() int { return len(c.HopsPerBank) }

// SizeBytes returns the total capacity.
func (c Config) SizeBytes() int { return c.Banks() * BankBytes }

// Validate reports malformed configurations.
func (c Config) Validate() error {
	if len(c.HopsPerBank) == 0 {
		return fmt.Errorf("nuca %q: no banks", c.Name)
	}
	for i, h := range c.HopsPerBank {
		if h < 0 {
			return fmt.Errorf("nuca %q: bank %d negative hops", c.Name, i)
		}
	}
	return nil
}

// Stats accumulates NUCA access statistics.
type Stats struct {
	Accesses      uint64
	Misses        uint64
	Writebacks    uint64
	HitLatencySum uint64
	BankAccesses  []uint64
}

// MissRate returns misses per access.
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// MeanHitLatency returns the average hit latency in cycles.
func (s Stats) MeanHitLatency() float64 {
	hits := s.Accesses - s.Misses
	if hits == 0 {
		return 0
	}
	return float64(s.HitLatencySum) / float64(hits)
}

type line struct {
	tag   uint64
	valid bool
	dirty bool
	lru   uint32
}

// Cache is one NUCA L2 instance.
type Cache struct {
	cfg   Config
	net   *noc.Network
	ways  int
	nsets int
	// lines holds every set's ways back to back: set i is
	// lines[i*ways : (i+1)*ways] (see set).
	lines []line
	// bankOfWay maps way index → bank for the distributed-ways policy
	// (ways sorted by distance, way 0 closest). For distributed sets it
	// is nil and the bank is derived from the set index.
	bankOfWay []int
	clock     uint32
	stats     Stats
}

// New builds a NUCA cache; it panics on invalid configuration (geometry
// is static in this simulator).
func New(cfg Config) *Cache {
	c := &Cache{}
	c.Reset(cfg)
	return c
}

// Reset returns c to the state New(cfg) builds: an empty cache of cfg's
// organization. It reuses c's line array when that has room for cfg's
// lines, so one cache can serve windows of every organization without
// reallocating. It panics on invalid configuration.
func (c *Cache) Reset(cfg Config) {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	banks := cfg.Banks()
	totalLines := cfg.SizeBytes() / LineBytes
	ways := banks
	nsets := totalLines / ways
	lines := c.lines
	if cap(lines) < nsets*ways {
		lines = make([]line, nsets*ways)
	} else {
		lines = lines[:nsets*ways]
		clear(lines)
	}
	*c = Cache{
		cfg:   cfg,
		net:   noc.New(cfg.HopsPerBank),
		ways:  ways,
		nsets: nsets,
		lines: lines,
		stats: Stats{BankAccesses: make([]uint64, banks)},
	}
	if cfg.Policy == DistributedWays {
		c.bankOfWay = banksByDistance(cfg.HopsPerBank)
	}
}

// CopyTo makes dst a copy of c: its organization, lines, replacement
// state, network counters and statistics. It reuses dst's line array
// when that has room, as Reset does.
func (c *Cache) CopyTo(dst *Cache) {
	lines := dst.lines
	if cap(lines) < len(c.lines) {
		lines = make([]line, len(c.lines))
	}
	lines = lines[:len(c.lines)]
	copy(lines, c.lines)
	net := dst.net
	if net == nil {
		net = new(noc.Network)
	}
	*net = *c.net
	banks := append(dst.stats.BankAccesses[:0], c.stats.BankAccesses...)
	*dst = *c
	dst.lines, dst.net, dst.stats.BankAccesses = lines, net, banks
}

// banksByDistance returns bank indices sorted ascending by hop count
// (stable on index for determinism).
func banksByDistance(hops []int) []int {
	idx := make([]int, len(hops))
	for i := range idx {
		idx[i] = i
	}
	// insertion sort: tiny n, stable
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0 && hops[idx[j]] < hops[idx[j-1]]; j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
	return idx
}

// Config returns the cache configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a copy of the statistics (the BankAccesses slice is
// copied).
func (c *Cache) Stats() Stats {
	s := c.stats
	s.BankAccesses = append([]uint64(nil), c.stats.BankAccesses...)
	return s
}

// Network exposes the underlying network model (for power accounting).
func (c *Cache) Network() *noc.Network { return c.net }

func (c *Cache) index(addr uint64) (set int, tag uint64) {
	blk := addr / LineBytes
	return int(blk % uint64(c.nsets)), blk / uint64(c.nsets)
}

// set returns the ways of set i.
func (c *Cache) set(i int) []line {
	lo := i * c.ways
	return c.lines[lo : lo+c.ways : lo+c.ways]
}

// bankOf returns the bank holding (set, way) under the active policy.
func (c *Cache) bankOf(set, way int) int {
	if c.cfg.Policy == DistributedSets {
		return set % c.cfg.Banks()
	}
	return c.bankOfWay[way]
}

// Access looks up addr, returning the access latency in cycles and
// whether it missed (the latency of a miss includes the probe that
// discovered the miss but not the 300-cycle memory trip, which the core
// model accounts separately so it can overlap it).
func (c *Cache) Access(addr uint64, write bool) (latency int, miss bool) {
	c.stats.Accesses++
	c.clock++
	set, tag := c.index(addr)
	ways := c.set(set)

	for w := range ways {
		if ways[w].valid && ways[w].tag == tag {
			bank := c.bankOf(set, w)
			lat := c.hitLatency(bank)
			ways[w].lru = c.clock
			if write {
				ways[w].dirty = true
			}
			c.stats.BankAccesses[bank]++
			c.net.Record(bank)
			c.stats.HitLatencySum += uint64(lat)
			if c.cfg.Policy == DistributedWays {
				c.promote(set, w)
			}
			return lat, false
		}
	}

	// Miss: fill LRU (or invalid) way.
	c.stats.Misses++
	victim := 0
	for w := range ways {
		if !ways[w].valid {
			victim = w
			break
		}
		if ways[w].lru < ways[victim].lru {
			victim = w
		}
	}
	if ways[victim].valid && ways[victim].dirty {
		c.stats.Writebacks++
	}
	ways[victim] = line{tag: tag, valid: true, dirty: write, lru: c.clock}
	bank := c.bankOf(set, victim)
	c.stats.BankAccesses[bank]++
	c.net.Record(bank)
	return c.hitLatency(bank), true
}

// hitLatency is the controller-to-bank round trip plus bank access time,
// plus the central tag lookup for the ways policy.
func (c *Cache) hitLatency(bank int) int {
	lat := BankAccessCycles + c.net.RoundTripCycles(bank)
	if c.cfg.Policy == DistributedWays {
		lat += CentralTagCycles
	}
	return lat
}

// promote swaps a hit block one step toward the closest bank (way
// ordering is by distance under the distributed-ways policy), modeling
// gradual data migration.
func (c *Cache) promote(set, way int) {
	if way == 0 {
		return
	}
	ways := c.set(set)
	ways[way], ways[way-1] = ways[way-1], ways[way]
}

// Probe reports presence without side effects.
func (c *Cache) Probe(addr uint64) bool {
	set, tag := c.index(addr)
	for _, l := range c.set(set) {
		if l.valid && l.tag == tag {
			return true
		}
	}
	return false
}

// --- Paper configurations --------------------------------------------------

// Hop layouts calibrated to the paper's reported mean L2 hit latencies:
// 18 cycles for the 6-bank 2d-a organization and 22 cycles for the
// 15-bank 2d-2a organization; the 3d-2a top-die banks sit directly above
// the lower die so the inter-die via adds no hops and the mean horizontal
// distance stays at the 2d-a level (§3.3: "the move to 3D does not help
// reduce the average L2 hit time compared to 2d-a").
var (
	hops2DA  = []int{1, 1, 1, 2, 2, 2}
	hops2D2A = []int{1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 2, 3, 3, 3, 3}
	hops3D2A = []int{1, 1, 1, 2, 2, 2, 1, 1, 1, 1, 2, 2, 2, 2, 2}
)

// Config2DA returns the 6 MB 6-bank baseline L2 (model 2d-a and the
// lower die of 3d-checker).
func Config2DA(p Policy) Config {
	return Config{Name: "2d-a", Policy: p, HopsPerBank: append([]int(nil), hops2DA...)}
}

// Config2D2A returns the 15 MB 15-bank single-die L2 (model 2d-2a).
func Config2D2A(p Policy) Config {
	return Config{Name: "2d-2a", Policy: p, HopsPerBank: append([]int(nil), hops2D2A...)}
}

// Config3D2A returns the 15 MB L2 with 6 lower-die banks and 9 banks on
// the stacked die (model 3d-2a).
func Config3D2A(p Policy) Config {
	return Config{Name: "3d-2a", Policy: p, HopsPerBank: append([]int(nil), hops3D2A...)}
}

// ByName returns the paper configuration named "2d-a", "2d-2a" or
// "3d-2a" with placement policy p; "" selects 2d-a.
func ByName(name string, p Policy) (Config, error) {
	switch name {
	case "", "2d-a":
		return Config2DA(p), nil
	case "2d-2a":
		return Config2D2A(p), nil
	case "3d-2a":
		return Config3D2A(p), nil
	}
	return Config{}, fmt.Errorf("nuca: unknown L2 organization %q", name)
}
