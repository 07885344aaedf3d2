package nuca

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

func TestPaperConfigCapacities(t *testing.T) {
	c2a := Config2DA(DistributedSets)
	if c2a.SizeBytes() != 6<<20 || c2a.Banks() != 6 {
		t.Errorf("2d-a must be a 6-bank 6MB L2: %d banks, %d bytes", c2a.Banks(), c2a.SizeBytes())
	}
	for _, cfg := range []Config{Config2D2A(DistributedSets), Config3D2A(DistributedSets)} {
		if cfg.SizeBytes() != 15<<20 || cfg.Banks() != 15 {
			t.Errorf("%s must be a 15-bank 15MB L2", cfg.Name)
		}
	}
}

func TestByName(t *testing.T) {
	for _, c := range []struct {
		name string
		want Config
	}{
		{"", Config2DA(DistributedWays)},
		{"2d-a", Config2DA(DistributedWays)},
		{"2d-2a", Config2D2A(DistributedWays)},
		{"3d-2a", Config3D2A(DistributedWays)},
	} {
		got, err := ByName(c.name, DistributedWays)
		if err != nil || !reflect.DeepEqual(got, c.want) {
			t.Errorf("ByName(%q) = %+v, %v; want %+v", c.name, got, err, c.want)
		}
	}
	if _, err := ByName("3d-a", DistributedSets); err == nil {
		t.Error("an unknown organization must error")
	}
}

func TestMeanHitLatenciesMatchPaper(t *testing.T) {
	// §3.3: average L2 hit latency is 18 cycles for 2d-a, 22 for 2d-2a,
	// and 3d-2a stays at the 2d-a level.
	cases := []struct {
		cfg  Config
		want float64
		tol  float64
	}{
		{Config2DA(DistributedSets), 18, 0.01},
		{Config2D2A(DistributedSets), 22, 0.01},
		{Config3D2A(DistributedSets), 18, 0.5},
	}
	for _, c := range cases {
		n := New(c.cfg)
		got := BankAccessCycles + 2*CyclesPerHopTimes(n)
		if math.Abs(got-c.want) > c.tol {
			t.Errorf("%s mean hit latency = %.2f, want %.0f", c.cfg.Name, got, c.want)
		}
	}
}

// CyclesPerHopTimes returns mean one-way network cycles for uniform bank
// access (helper using the embedded network).
func CyclesPerHopTimes(c *Cache) float64 {
	return c.Network().MeanHops() * 4
}

func TestColdMissThenHit(t *testing.T) {
	c := New(Config2DA(DistributedSets))
	lat, miss := c.Access(0x1000, false)
	if !miss {
		t.Error("cold access must miss")
	}
	if lat <= 0 {
		t.Error("latency must be positive")
	}
	_, miss = c.Access(0x1000, false)
	if miss {
		t.Error("second access must hit")
	}
	s := c.Stats()
	if s.Accesses != 2 || s.Misses != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestDistributedSetsUniformBankUse(t *testing.T) {
	c := New(Config2DA(DistributedSets))
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 60000; i++ {
		c.Access(uint64(r.Intn(1<<26))&^63, false)
	}
	s := c.Stats()
	mean := float64(s.Accesses) / float64(len(s.BankAccesses))
	for b, n := range s.BankAccesses {
		if math.Abs(float64(n)-mean)/mean > 0.1 {
			t.Errorf("bank %d accesses %d deviate >10%% from mean %.0f", b, n, mean)
		}
	}
}

func TestDistributedWaysMigration(t *testing.T) {
	// Repeated hits to the same block must migrate it to the closest
	// bank, reducing its hit latency to the minimum.
	cfg := Config2D2A(DistributedWays)
	c := New(cfg)
	addr := uint64(0x40000)
	c.Access(addr, false) // miss, fills somewhere
	var lat int
	for i := 0; i < 20; i++ {
		lat, _ = c.Access(addr, false)
	}
	minHops := 99
	for _, h := range cfg.HopsPerBank {
		if h < minHops {
			minHops = h
		}
	}
	want := BankAccessCycles + CentralTagCycles + 2*4*minHops
	if lat != want {
		t.Errorf("hot block latency = %d, want %d after migration", lat, want)
	}
}

func TestDistributedWaysBeatsSetsOnHotWorkingSet(t *testing.T) {
	// §3.3: the distributed-way policy performs slightly better because
	// data migrates toward the controller when the working set is small.
	run := func(p Policy) float64 {
		c := New(Config2D2A(p))
		r := rand.New(rand.NewSource(9))
		// Working set much smaller than capacity → mostly hits.
		for i := 0; i < 80000; i++ {
			c.Access(uint64(r.Intn(1<<20))&^63, false)
		}
		return c.Stats().MeanHitLatency()
	}
	sets := run(DistributedSets)
	ways := run(DistributedWays)
	if ways >= sets {
		t.Errorf("distributed-ways mean hit latency %.2f should beat distributed-sets %.2f", ways, sets)
	}
}

func TestLargerCacheLowersMissRate(t *testing.T) {
	// A 9 MB working set thrashes the 6 MB L2 but fits in the 15 MB L2
	// (the art-like behaviour in §3.3).
	run := func(cfg Config) float64 {
		c := New(cfg)
		r := rand.New(rand.NewSource(3))
		for i := 0; i < 300000; i++ {
			c.Access(uint64(r.Intn(9<<20))&^63, false)
		}
		return c.Stats().MissRate()
	}
	small := run(Config2DA(DistributedSets))
	big := run(Config2D2A(DistributedSets))
	if big >= small {
		t.Errorf("15MB miss rate %.3f should be below 6MB %.3f", big, small)
	}
	if small < 0.2 {
		t.Errorf("9MB working set should thrash a 6MB cache, miss rate %.3f", small)
	}
}

func TestWritebackCounting(t *testing.T) {
	c := New(Config2DA(DistributedSets))
	// Dirty a line, then evict it by filling its set with conflicting
	// tags (same set index every 6MB stride × ways...).
	c.Access(0, true)
	stride := uint64(c.nsets * LineBytes)
	for i := 1; i <= c.ways; i++ {
		c.Access(uint64(i)*stride, false)
	}
	if c.Stats().Writebacks != 1 {
		t.Errorf("Writebacks = %d, want 1", c.Stats().Writebacks)
	}
}

func TestProbe(t *testing.T) {
	c := New(Config2DA(DistributedSets))
	if c.Probe(0x80) {
		t.Error("cold probe must be false")
	}
	c.Access(0x80, false)
	if !c.Probe(0x80) {
		t.Error("probe after access must be true")
	}
	if got := c.Stats().Accesses; got != 1 {
		t.Errorf("Probe must not count accesses: %d", got)
	}
}

func TestValidate(t *testing.T) {
	if err := (Config{Name: "x"}).Validate(); err == nil {
		t.Error("empty config must be invalid")
	}
	if err := (Config{Name: "x", HopsPerBank: []int{-1}}).Validate(); err == nil {
		t.Error("negative hops must be invalid")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("New must panic on invalid config")
		}
	}()
	New(Config{Name: "bad"})
}

func TestBanksByDistance(t *testing.T) {
	got := banksByDistance([]int{3, 1, 2, 1})
	want := []int{1, 3, 2, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("banksByDistance = %v, want %v", got, want)
		}
	}
}

func TestStatsCopyIsolated(t *testing.T) {
	c := New(Config2DA(DistributedSets))
	c.Access(0, false)
	s := c.Stats()
	s.BankAccesses[0] = 999
	if c.Stats().BankAccesses[0] == 999 {
		t.Error("Stats must return a copy of BankAccesses")
	}
}

func TestPolicyString(t *testing.T) {
	if DistributedSets.String() != "distributed-sets" || DistributedWays.String() != "distributed-ways" {
		t.Error("policy names wrong")
	}
}

// TestResetMatchesNew resets a cache that has run under one
// organization onto each paper organization and requires it to be
// deeply equal to a fresh cache of that organization.
func TestResetMatchesNew(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	c := New(Config3D2A(DistributedWays))
	for _, cfg := range []Config{Config2DA(DistributedSets), Config2D2A(DistributedWays), Config3D2A(DistributedSets), Config2DA(DistributedWays)} {
		for i := 0; i < 50_000; i++ {
			c.Access(uint64(rng.Intn(32<<20)), rng.Intn(4) == 0)
		}
		c.Reset(cfg)
		if !reflect.DeepEqual(c, New(cfg)) {
			t.Fatalf("%s/%s: a reset cache differs from a fresh one", cfg.Name, cfg.Policy)
		}
	}
}
