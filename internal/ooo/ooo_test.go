package ooo

import (
	"reflect"
	"slices"
	"testing"

	"r3d/internal/isa"
	"r3d/internal/nuca"
	"r3d/internal/trace"
)

func newL2() *nuca.Cache { return nuca.New(nuca.Config2DA(nuca.DistributedSets)) }

// fixedSource replays a repeating pattern of instructions.
type fixedSource struct {
	pattern []isa.Inst
	i       int
	seq     uint64
}

func (f *fixedSource) Next() isa.Inst {
	in := f.pattern[f.i%len(f.pattern)]
	in.Seq = f.seq
	in.PC = 0x1000 + uint64(f.i%len(f.pattern))*4
	f.seq++
	f.i++
	return in
}

func TestConfigValidate(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := Default()
	bad.ROBSize = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero ROB accepted")
	}
	bad = Default()
	bad.FetchWidth = -1
	if err := bad.Validate(); err == nil {
		t.Fatal("negative width accepted")
	}
	if _, err := New(bad, &fixedSource{pattern: []isa.Inst{{Op: isa.IntALU}}}, newL2()); err == nil {
		t.Fatal("New must reject invalid config")
	}
}

func TestIndependentALUStreamReachesHighIPC(t *testing.T) {
	// Fully independent single-cycle ALU ops: IPC should approach the
	// 4-wide machine width.
	src := &fixedSource{pattern: []isa.Inst{
		{Op: isa.IntALU, Dest: isa.ZeroReg, Src1: isa.ZeroReg, Src2: isa.ZeroReg},
	}}
	c, err := New(Default(), src, newL2())
	if err != nil {
		t.Fatal(err)
	}
	s := c.Run(100000)
	if ipc := s.IPC(); ipc < 3.5 {
		t.Errorf("independent ALU IPC = %.2f, want ≥3.5", ipc)
	}
}

func TestSerialChainBoundsIPC(t *testing.T) {
	// Every instruction depends on the previous one through r1: IPC
	// cannot exceed 1.
	src := &fixedSource{pattern: []isa.Inst{
		{Op: isa.IntALU, Dest: 1, Src1: 1, Src2: isa.ZeroReg},
	}}
	c, _ := New(Default(), src, newL2())
	s := c.Run(50000)
	if ipc := s.IPC(); ipc > 1.01 {
		t.Errorf("serial chain IPC = %.2f, want ≤1", ipc)
	}
	if ipc := s.IPC(); ipc < 0.8 {
		t.Errorf("serial chain IPC = %.2f, want ≈1", ipc)
	}
}

func TestSerialMultChainIPC(t *testing.T) {
	// A dependent multiply chain is bounded by the 3-cycle latency.
	src := &fixedSource{pattern: []isa.Inst{
		{Op: isa.IntMult, Dest: 1, Src1: 1, Src2: isa.ZeroReg},
	}}
	c, _ := New(Default(), src, newL2())
	s := c.Run(30000)
	ipc := s.IPC()
	if ipc > 0.36 || ipc < 0.28 {
		t.Errorf("mult chain IPC = %.3f, want ≈1/3", ipc)
	}
}

func TestFPThroughputBoundedByUnits(t *testing.T) {
	// Independent FP adds with only one FP ALU: IPC ≤ 1.
	src := &fixedSource{pattern: []isa.Inst{
		{Op: isa.FPALU, Dest: isa.NumIntRegs + isa.ZeroReg, Src1: isa.NumIntRegs + isa.ZeroReg, Src2: isa.NumIntRegs + isa.ZeroReg},
	}}
	c, _ := New(Default(), src, newL2())
	s := c.Run(30000)
	if ipc := s.IPC(); ipc > 1.01 {
		t.Errorf("single-FPALU IPC = %.2f, want ≤1", ipc)
	}
}

func TestHotLoadsHitL1(t *testing.T) {
	// Loads to a single line: after warmup everything hits L1.
	src := &fixedSource{pattern: []isa.Inst{
		{Op: isa.Load, Dest: 1, Src1: isa.ZeroReg, Src2: isa.ZeroReg, Addr: 0x100},
		{Op: isa.IntALU, Dest: 2, Src1: 1, Src2: isa.ZeroReg},
	}}
	c, _ := New(Default(), src, newL2())
	s := c.Run(20000)
	if s.L1DMisses > 2 {
		t.Errorf("L1D misses = %d, want ≤2", s.L1DMisses)
	}
	if s.Activity.DCacheAccesses == 0 {
		t.Error("no D-cache activity recorded")
	}
}

func TestMemoryBoundStreamIsSlow(t *testing.T) {
	// Dependent loads striding through a huge region: every load misses
	// L2 and serializes → IPC collapses.
	pattern := make([]isa.Inst, 1)
	pattern[0] = isa.Inst{Op: isa.Load, Dest: 1, Src1: 1, Src2: isa.ZeroReg}
	src := &addrStride{stride: 1 << 20}
	c, _ := New(Default(), src, newL2())
	s := c.Run(3000)
	if ipc := s.IPC(); ipc > 0.02 {
		t.Errorf("L2-missing dependent loads IPC = %.4f, want tiny", ipc)
	}
	if s.L2Misses == 0 {
		t.Error("expected L2 misses")
	}
}

type addrStride struct {
	seq    uint64
	addr   uint64
	stride uint64
}

func (a *addrStride) Next() isa.Inst {
	a.addr += a.stride
	in := isa.Inst{Seq: a.seq, PC: 0x1000, Op: isa.Load, Dest: 1, Src1: 1, Src2: isa.ZeroReg, Addr: a.addr}
	a.seq++
	return in
}

func TestMispredictionCostsCycles(t *testing.T) {
	run := func(name string) float64 {
		b, err := trace.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		g := trace.MustGenerator(b.Profile, 1)
		c, _ := New(Default(), g, newL2())
		return c.Run(100000).IPC()
	}
	// mcf (random-heavy branches, pointer chains) must be far slower
	// than mesa (predictable, high ILP).
	if mcf, mesa := run("mcf"), run("mesa"); mcf >= mesa*0.6 {
		t.Errorf("mcf IPC %.2f should be well below mesa %.2f", mcf, mesa)
	}
}

func TestStepCommitBudget(t *testing.T) {
	src := &fixedSource{pattern: []isa.Inst{
		{Op: isa.IntALU, Dest: isa.ZeroReg, Src1: isa.ZeroReg, Src2: isa.ZeroReg},
	}}
	c, _ := New(Default(), src, newL2())
	// With budget 0 nothing ever commits.
	for i := 0; i < 100; i++ {
		if got := c.Step(0); len(got) != 0 {
			t.Fatalf("commit budget 0 violated: %d committed", len(got))
		}
	}
	if c.Stats().Instructions != 0 {
		t.Fatal("instructions committed despite zero budget")
	}
	// With budget 2 at most 2 commit per cycle.
	for i := 0; i < 100; i++ {
		if got := c.Step(2); len(got) > 2 {
			t.Fatalf("commit budget 2 violated: %d", len(got))
		}
	}
	if c.Stats().Instructions == 0 {
		t.Fatal("nothing committed with positive budget")
	}
}

// TestCommittedOrderIsProgramOrder: Step returns every instruction
// once, in program order and exactly as the source produced it, whether
// the committed run is a view of the instruction ring or a copy of a run
// that wraps. Every profile runs with commit budgets 0..4 in stretches,
// and a long zero-budget stretch every 3,000 cycles fills the ROB and
// the IFQ, so fetch then writes into the slots just before the ones the
// same cycle's commit frees. A second generator of the same seed gives
// the expected stream.
func TestCommittedOrderIsProgramOrder(t *testing.T) {
	for _, b := range trace.Suite() {
		t.Run(b.Profile.Name, func(t *testing.T) {
			c, _ := New(Default(), trace.MustGenerator(b.Profile, 2), newL2())
			want := trace.MustGenerator(b.Profile, 2)
			fills := 0
			for i := 0; c.Stats().Instructions < 20_000; i++ {
				budget := i / 50 % 5
				if i%3000 >= 2000 {
					budget = 0
				}
				got := c.Step(budget)
				if len(got) > budget {
					t.Fatalf("cycle %d: committed %d with budget %d", c.Cycle(), len(got), budget)
				}
				for _, in := range got {
					if w := want.Next(); in != w {
						t.Fatalf("cycle %d: committed\n%+v\nwant\n%+v", c.Cycle(), in, w)
					}
				}
				if c.robCount == c.cfg.ROBSize && c.ifqCount == c.cfg.IFQSize {
					fills++
				}
			}
			if fills == 0 {
				t.Error("the ROB and the IFQ were never full at once")
			}
		})
	}
}

func TestDeterminism(t *testing.T) {
	run := func() Stats {
		b, _ := trace.ByName("vpr")
		g := trace.MustGenerator(b.Profile, 77)
		c, _ := New(Default(), g, newL2())
		return c.Run(50000)
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("simulation not deterministic:\n%+v\n%+v", a, b)
	}
}

func TestDrainAfterBudget(t *testing.T) {
	b, _ := trace.ByName("gzip")
	g := trace.MustGenerator(b.Profile, 3)
	c, _ := New(Default(), g, newL2())
	c.SetFetchBudget(1000)
	for i := 0; i < 100000 && !c.Drained(); i++ {
		c.Step(4)
	}
	if !c.Drained() {
		t.Fatal("core failed to drain after fetch budget")
	}
	if got := c.Stats().Instructions; got != 1000 {
		t.Errorf("committed %d, want exactly the 1000 fetched", got)
	}
}

func TestBiggerL2ReducesMissesForStraddlingWorkingSet(t *testing.T) {
	// Independent loads scanning a 7 MB ring: the second and later
	// passes thrash a 6 MB L2 (LRU scan pathology) but hit entirely in a
	// 15 MB L2 — the §3.3 capacity effect.
	run := func(cfg nuca.Config) float64 {
		src := &ringScan{ring: 7 << 20, stride: 64}
		c, _ := New(Default(), src, nuca.New(cfg))
		s := c.Run(400000)
		return s.L2MissesPer10k()
	}
	small := run(nuca.Config2DA(nuca.DistributedSets))
	big := run(nuca.Config2D2A(nuca.DistributedSets))
	if big >= small/2 {
		t.Errorf("7MB scan: 15MB L2 misses/10k %.2f should be far below 6MB %.2f", big, small)
	}
}

type ringScan struct {
	seq, addr    uint64
	ring, stride uint64
}

func (r *ringScan) Next() isa.Inst {
	r.addr += r.stride
	if r.addr >= r.ring {
		r.addr = 0
	}
	in := isa.Inst{Seq: r.seq, PC: 0x1000, Op: isa.Load, Dest: 1, Src1: isa.ZeroReg, Src2: isa.ZeroReg, Addr: 0x8000_0000 + r.addr}
	r.seq++
	return in
}

func TestResetStats(t *testing.T) {
	b, _ := trace.ByName("gzip")
	g := trace.MustGenerator(b.Profile, 8)
	c, _ := New(Default(), g, newL2())
	c.Run(20000)
	c.ResetStats()
	s := c.Stats()
	if s.Instructions != 0 || s.Activity.Cycles != 0 {
		t.Errorf("ResetStats left residue: %+v", s)
	}
	// The core keeps running fine after a reset.
	c.SetFetchBudget(^uint64(0))
	for c.Stats().Instructions < 1000 {
		c.Step(4)
	}
}

// TestStepDoesNotAllocate: the scheduler's lists are preallocated to
// the ROB size, so no cycle allocates.
func TestStepDoesNotAllocate(t *testing.T) {
	b, _ := trace.ByName("mcf")
	c, _ := New(Default(), trace.MustGenerator(b.Profile, 4), newL2())
	c.Run(5000)
	c.SetFetchBudget(^uint64(0)) // keep the pipeline busy while measuring
	if n := testing.AllocsPerRun(2000, func() { c.Step(4) }); n != 0 {
		t.Errorf("Step allocates %.2f times per cycle, want 0", n)
	}
}

// TestQuietCyclesMatchFullSteps: skipping the cycles before wake changes
// nothing, one at a time or in one call. Three cores from one seed run
// in lockstep on every profile; the reference clears wake before every
// Step, so all its stages run every cycle, and a third core skips each
// quiet stretch in one call (Skip, up to the next fetch-budget change),
// over which the other two must commit nothing. Commit budgets sweep
// 0..4 in stretches, and a finite fetch budget drains the pipeline
// before fetch restarts.
func TestQuietCyclesMatchFullSteps(t *testing.T) {
	for _, b := range trace.Suite() {
		t.Run(b.Profile.Name, func(t *testing.T) {
			fast, _ := New(Default(), trace.MustGenerator(b.Profile, 5), newL2())
			full, _ := New(Default(), trace.MustGenerator(b.Profile, 5), newL2())
			skip, _ := New(Default(), trace.MustGenerator(b.Profile, 5), newL2())
			step := func(i int) []isa.Inst {
				budget := i / 50 % 5
				full.wake = 0
				got, want := fast.Step(budget), full.Step(budget)
				if !slices.Equal(got, want) {
					t.Fatalf("cycle %d: committed %v, every-stage reference %v", fast.Cycle(), got, want)
				}
				return want
			}
			skipped := 0
			for i := 0; i < 20_000; {
				switch i {
				case 8_000:
					fast.SetFetchBudget(fast.fetchedTot + 300)
					full.SetFetchBudget(full.fetchedTot + 300)
					skip.SetFetchBudget(skip.fetchedTot + 300)
				case 12_000:
					fast.SetFetchBudget(^uint64(0))
					full.SetFetchBudget(^uint64(0))
					skip.SetFetchBudget(^uint64(0))
				}
				next := 20_000
				for _, e := range []int{12_000, 8_000} {
					if i < e {
						next = e
					}
				}
				if k := min(skip.Quiet(), uint64(next-i)); k > 0 {
					skip.Skip(k)
					for range k {
						if len(step(i)) > 0 {
							t.Fatalf("cycle %d: a cycle Quiet counted committed", fast.Cycle())
						}
						i++
					}
					skipped++
				} else {
					got := skip.Step(i / 50 % 5)
					if want := step(i); !slices.Equal(got, want) {
						t.Fatalf("cycle %d: the skipping core committed %v, the reference %v", skip.Cycle(), got, want)
					}
					i++
				}
				if skip.Stats() != full.Stats() || skip.Cycle() != full.Cycle() {
					t.Fatalf("cycle %d: the skipping core differs:\n%+v\n%+v", full.Cycle(), skip.Stats(), full.Stats())
				}
			}
			if fast.Stats() != full.Stats() {
				t.Errorf("stats differ:\n%+v\n%+v", fast.Stats(), full.Stats())
			}
			if skipped == 0 {
				t.Error("no quiet stretch was skipped")
			}
		})
	}
}

func TestStatsAccessors(t *testing.T) {
	var s Stats
	if s.IPC() != 0 || s.L2MissesPer10k() != 0 || s.MeanL2HitLatency() != 0 {
		t.Error("zero-value stats accessors must return 0")
	}
}

// TestResetMatchesNew runs a core over one stream and L2 organization,
// resets it onto another stream, a smaller L2 and a different memory
// latency, and requires it to be deeply equal to a core built fresh for
// those, and to stay equal while both run.
func TestResetMatchesNew(t *testing.T) {
	b, err := trace.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	used, err := New(Default(), trace.MustGenerator(b.Profile, 1), nuca.New(nuca.Config3D2A(nuca.DistributedWays)))
	if err != nil {
		t.Fatal(err)
	}
	used.Run(20_000)

	cfg := Default()
	cfg.MemLatencyCycles = 270
	l2 := used.L2()
	l2.Reset(nuca.Config2DA(nuca.DistributedSets))
	if err := used.Reset(cfg, trace.MustGenerator(b.Profile, 2), l2); err != nil {
		t.Fatal(err)
	}
	fresh, err := New(cfg, trace.MustGenerator(b.Profile, 2), newL2())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(used, fresh) {
		t.Fatal("a reset core differs from a fresh one")
	}
	if got, want := used.Run(10_000), fresh.Run(10_000); got != want {
		t.Fatalf("after reset: %+v, fresh: %+v", got, want)
	}
	if !reflect.DeepEqual(used, fresh) {
		t.Fatal("a reset core and a fresh one diverged while running")
	}

	bad := cfg
	bad.ROBSize = 0
	if err := used.Reset(bad, trace.MustGenerator(b.Profile, 2), l2); err == nil {
		t.Fatal("Reset accepted a zero ROB")
	}
	if !reflect.DeepEqual(used, fresh) {
		t.Fatal("a failed Reset changed the core")
	}
}

// TestNextCommitsPredictsCommit: NextCommits, asked before every Step,
// is what a full-width Step commits. On every profile, with commit
// budgets swept 0..4 in stretches and a finite fetch budget that drains
// the pipeline, as in TestQuietCyclesMatchFullSteps, a Step with budget
// b commits min(b, NextCommits()) — exactly NextCommits at full width —
// and a twin core that never asks commits the same in every cycle.
func TestNextCommitsPredictsCommit(t *testing.T) {
	for _, b := range trace.Suite() {
		t.Run(b.Profile.Name, func(t *testing.T) {
			c, _ := New(Default(), trace.MustGenerator(b.Profile, 5), newL2())
			twin, _ := New(Default(), trace.MustGenerator(b.Profile, 5), newL2())
			for i := range 20_000 {
				switch i {
				case 8_000:
					c.SetFetchBudget(c.fetchedTot + 300)
					twin.SetFetchBudget(twin.fetchedTot + 300)
				case 12_000:
					c.SetFetchBudget(^uint64(0))
					twin.SetFetchBudget(^uint64(0))
				}
				budget := i / 50 % 5
				n := c.NextCommits()
				got, want := c.Step(budget), twin.Step(budget)
				if len(got) != min(budget, n) {
					t.Fatalf("cycle %d: budget %d committed %d, NextCommits said %d", c.Cycle(), budget, len(got), n)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("cycle %d: committed %v, a core that never asked %v", c.Cycle(), got, want)
				}
			}
			if c.Stats() != twin.Stats() {
				t.Errorf("stats differ:\n%+v\n%+v", c.Stats(), twin.Stats())
			}
		})
	}
}

// TestCopyToIsIndependent copies a core over a tape at several cycles of
// a run on every profile, first into a zero Core and then over earlier
// copies, whose tables it reuses. A copy stepped with the original's
// budgets commits what the original commits in every cycle and stays
// deeply equal to it (statistics, L2 and predictor included); a copy
// taken at the same cycle as another, stepped while the original steps
// with other budgets, matches the other, which stepped alone before the
// original moved.
func TestCopyToIsIndependent(t *testing.T) {
	var a, b Core
	for _, bench := range trace.Suite() {
		t.Run(bench.Profile.Name, func(t *testing.T) {
			src := trace.NewTape(trace.MustGenerator(bench.Profile, 3)).Reader()
			orig, _ := New(Default(), src, newL2())
			budget := func(i int) int { return i / 40 % 5 }
			for i := range 3_000 {
				orig.Step(budget(i))
			}
			for round := range 3 {
				// The same budgets: the copy follows the original.
				orig.CopyTo(&a, src.Clone())
				if !reflect.DeepEqual(orig, &a) {
					t.Fatalf("round %d: a fresh copy differs from its original", round)
				}
				for i := range 1_500 {
					got, want := a.Step(budget(i)), orig.Step(budget(i))
					if !slices.Equal(got, want) {
						t.Fatalf("round %d, cycle %d: the copy committed %v, the original %v", round, a.Cycle(), got, want)
					}
				}
				if !reflect.DeepEqual(orig, &a) {
					t.Fatalf("round %d: copy and original diverged under the same budgets: stats %+v vs %+v", round, a.Stats(), orig.Stats())
				}

				// Other budgets for the original: two copies from one
				// cycle agree, whenever the original moves.
				orig.CopyTo(&a, src.Clone())
				orig.CopyTo(&b, src.Clone())
				var alone [][]isa.Inst
				for i := range 1_500 {
					alone = append(alone, slices.Clone(b.Step(budget(i))))
				}
				for i := range 1_500 {
					orig.Step(4 - budget(i))
					if got := a.Step(budget(i)); !slices.Equal(got, alone[i]) {
						t.Fatalf("round %d, cycle %d: the original's steps reached its copy: committed %v, alone %v", round, a.Cycle(), got, alone[i])
					}
				}
				if a.Stats() != b.Stats() || !reflect.DeepEqual(a.L2().Stats(), b.L2().Stats()) || a.PredictorStats() != b.PredictorStats() {
					t.Fatalf("round %d: a copy stepped beside its original ended unlike one stepped alone", round)
				}
			}
		})
	}
}
