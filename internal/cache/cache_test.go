package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestConfigValidate(t *testing.T) {
	good := Config{Name: "c", SizeBytes: 1024, Assoc: 2, LineBytes: 64}
	if err := good.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	bad := []Config{
		{Name: "zero", SizeBytes: 0, Assoc: 1, LineBytes: 64},
		{Name: "assoc", SizeBytes: 1024, Assoc: 3, LineBytes: 64},
		{Name: "sets", SizeBytes: 192 * 64, Assoc: 1, LineBytes: 64},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %q should be rejected", c.Name)
		}
	}
}

func TestNewPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(Config{Name: "bad"})
}

func TestColdMissThenHit(t *testing.T) {
	c := New(Config{Name: "t", SizeBytes: 1024, Assoc: 2, LineBytes: 64})
	hit, _ := c.Access(0x40, false)
	if hit {
		t.Error("cold access must miss")
	}
	hit, _ = c.Access(0x40, false)
	if !hit {
		t.Error("second access must hit")
	}
	// Same line, different offset.
	hit, _ = c.Access(0x7f, false)
	if !hit {
		t.Error("same-line access must hit")
	}
	s := c.Stats()
	if s.Accesses != 3 || s.Misses != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestLRUEviction(t *testing.T) {
	// 2-way cache: fill both ways of set 0, touch the first, insert a
	// third conflicting line; the untouched one must be evicted.
	c := New(Config{Name: "t", SizeBytes: 2 * 64 * 8, Assoc: 2, LineBytes: 64}) // 8 sets
	setStride := uint64(8 * 64)
	a, b, d := uint64(0), setStride, 2*setStride
	c.Access(a, false)
	c.Access(b, false)
	c.Access(a, false) // a is MRU
	c.Access(d, false) // evicts b
	if !c.Probe(a) {
		t.Error("MRU line evicted")
	}
	if c.Probe(b) {
		t.Error("LRU line should have been evicted")
	}
	if !c.Probe(d) {
		t.Error("new line missing")
	}
}

func TestWritebackOnDirtyEviction(t *testing.T) {
	c := New(Config{Name: "t", SizeBytes: 64 * 2, Assoc: 1, LineBytes: 64, WriteBack: true}) // 2 sets, direct-mapped
	c.Access(0, true)                                                                        // dirty line in set 0
	_, wb := c.Access(128, false)
	if !wb {
		t.Error("evicting a dirty line must report a writeback")
	}
	if c.Stats().Writebacks != 1 {
		t.Errorf("Writebacks = %d, want 1", c.Stats().Writebacks)
	}
	// Clean eviction: no writeback.
	_, wb = c.Access(256, false)
	if wb {
		t.Error("clean eviction must not write back")
	}
}

func TestWriteThroughNeverDirty(t *testing.T) {
	c := New(Config{Name: "t", SizeBytes: 64, Assoc: 1, LineBytes: 64})
	c.Access(0, true)
	_, wb := c.Access(64, false)
	if wb {
		t.Error("write-through cache must not write back")
	}
}

func TestProbeDoesNotPerturb(t *testing.T) {
	c := New(Config{Name: "t", SizeBytes: 1024, Assoc: 2, LineBytes: 64})
	c.Probe(0x40)
	s := c.Stats()
	if s.Accesses != 0 || s.Misses != 0 {
		t.Errorf("Probe must not count: %+v", s)
	}
}

func TestFlush(t *testing.T) {
	c := New(Config{Name: "t", SizeBytes: 1024, Assoc: 2, LineBytes: 64, WriteBack: true})
	c.Access(0, true)
	c.Access(64, false)
	if dirty := c.Flush(); dirty != 1 {
		t.Errorf("Flush dirty = %d, want 1", dirty)
	}
	if c.Probe(0) || c.Probe(64) {
		t.Error("flush must invalidate everything")
	}
}

func TestMissRate(t *testing.T) {
	var s Stats
	if s.MissRate() != 0 {
		t.Error("idle miss rate should be 0")
	}
	s = Stats{Accesses: 4, Misses: 1}
	if s.MissRate() != 0.25 {
		t.Errorf("MissRate = %v", s.MissRate())
	}
}

func TestWorkingSetFitsAfterWarmup(t *testing.T) {
	// Property: a working set no larger than the cache never misses
	// after one warmup pass (true-LRU, power-of-two lines).
	c := New(L1D)
	lines := L1D.SizeBytes / L1D.LineBytes
	for i := 0; i < lines; i++ {
		c.Access(uint64(i*L1D.LineBytes), false)
	}
	before := c.Stats().Misses
	for pass := 0; pass < 3; pass++ {
		for i := 0; i < lines; i++ {
			c.Access(uint64(i*L1D.LineBytes), false)
		}
	}
	if c.Stats().Misses != before {
		t.Errorf("resident working set missed: %d new misses", c.Stats().Misses-before)
	}
}

func TestAccessHitConsistentWithProbe(t *testing.T) {
	c := New(Config{Name: "q", SizeBytes: 4096, Assoc: 4, LineBytes: 64})
	f := func(addrs []uint16) bool {
		for _, a := range addrs {
			addr := uint64(a)
			want := c.Probe(addr)
			hit, _ := c.Access(addr, false)
			if hit != want {
				return false
			}
			if !c.Probe(addr) { // after access the line must be present
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTLB(t *testing.T) {
	tlb := NewTLB("DTLB")
	if tlb.Access(0x1234) {
		t.Error("cold TLB must miss")
	}
	if !tlb.Access(0x1fff) {
		t.Error("same page must hit")
	}
	if tlb.Access(0x2000) {
		t.Error("next page must miss")
	}
	if tlb.Stats().Misses != 2 {
		t.Errorf("TLB misses = %d, want 2", tlb.Stats().Misses)
	}
}

func TestDefaultConfigsValid(t *testing.T) {
	for _, cfg := range []Config{L1I, L1D} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("default %q invalid: %v", cfg.Name, err)
		}
	}
	if !L1D.ECC {
		t.Error("the data cache must be ECC-protected (paper §2)")
	}
	if L1D.LatencyCycles != 2 {
		t.Error("L1D is a 2-cycle cache (Table 1)")
	}
}

// TestMoreWaysNeverMoreMisses checks true-LRU stack inclusion: over one
// address stream and one set count, a cache with more ways holds every
// line a cache with fewer ways holds, so it hits wherever the smaller
// one hits and never misses more. The caches then run a second stream
// after Reset and must miss exactly as fresh caches do.
func TestMoreWaysNeverMoreMisses(t *testing.T) {
	const sets, lineBytes, maxWays = 64, 64, 12
	stream := func(seed int64) []uint64 {
		rng := rand.New(rand.NewSource(seed))
		s := make([]uint64, 100_000)
		for i := range s {
			switch r := rng.Float64(); {
			case r < 0.4: // four hot lines per set
				s[i] = uint64(rng.Intn(4*sets)) * lineBytes
			case r < 0.8: // a loop of eight lines per set
				s[i] = uint64(i%(8*sets)) * lineBytes
			default: // anywhere in 16 MB
				s[i] = uint64(rng.Intn(16 << 20))
			}
		}
		return s
	}
	cfg := func(ways int) Config {
		return Config{Name: "lru", SizeBytes: sets * ways * lineBytes, Assoc: ways, LineBytes: lineBytes, WriteBack: true}
	}
	run := func(caches []*Cache, addrs []uint64) {
		for i, a := range addrs {
			write := i%5 == 0
			smallerHit := false
			for w := range caches {
				hit, _ := caches[w].Access(a, write)
				if smallerHit && !hit {
					t.Fatalf("access %d: %d ways missed a line that %d ways held", i, w+1, w)
				}
				smallerHit = hit
			}
		}
		for w := 1; w < len(caches); w++ {
			if caches[w].Stats().Misses > caches[w-1].Stats().Misses {
				t.Errorf("%d ways missed %d times, %d ways %d", w+1, caches[w].Stats().Misses, w, caches[w-1].Stats().Misses)
			}
		}
	}
	used := make([]*Cache, maxWays)
	fresh := make([]*Cache, maxWays)
	for w := range used {
		used[w], fresh[w] = New(cfg(w+1)), New(cfg(w+1))
	}
	run(used, stream(1))
	if used[0].Stats().Misses == used[maxWays-1].Stats().Misses {
		t.Fatal("the stream does not separate the associativities")
	}
	for _, c := range used {
		c.Reset()
	}
	second := stream(2)
	run(used, second)
	run(fresh, second)
	for w := range used {
		if used[w].Stats() != fresh[w].Stats() {
			t.Errorf("%d ways after Reset: %+v, fresh: %+v", w+1, used[w].Stats(), fresh[w].Stats())
		}
	}
}
