package r3d

// One benchmark per table and figure of the paper (the regeneration cost
// of each artifact), plus microbenchmarks of the main simulator loops.
// Figure/section benchmarks use reduced windows so a -bench=. run stays
// tractable; `go run ./cmd/r3dbench` produces the publication-quality
// numbers recorded in EXPERIMENTS.md.

import (
	"slices"
	"testing"

	"r3d/internal/core"
	"r3d/internal/experiment"
	"r3d/internal/inorder"
	"r3d/internal/nuca"
	"r3d/internal/ooo"
	"r3d/internal/trace"
)

// benchQuality is a cut-down window for benchmark iterations.
func benchQuality() experiment.Quality {
	return experiment.Quality{
		WarmupInsts:  20_000,
		MeasureInsts: 40_000,
		Benchmarks:   []string{"gzip", "swim"},
		ThermalTolC:  1e-3, ThermalMaxIters: 20_000,
		Seed: 42,
	}
}

func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiment.NewSession(benchQuality())
		if _, err := experiment.Table2(s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiment.Table4()
	}
}

func BenchmarkTable5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Table5(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiment.Table6()
	}
}

func BenchmarkTable7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiment.Table7()
	}
}

func BenchmarkTable8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Table8(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiment.NewSession(benchQuality())
		if _, err := experiment.Figure4(s, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiment.NewSession(benchQuality())
		if _, err := experiment.Figure5(s, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiment.NewSession(benchQuality())
		if _, err := experiment.Figure6(s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiment.NewSession(benchQuality())
		if _, err := experiment.Figure7(s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Figure8(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Figure9(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSection32(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiment.NewSession(benchQuality())
		if _, err := experiment.Section32Variants(s, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSection33(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiment.NewSession(benchQuality())
		if _, err := experiment.Section33(s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSection34(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Section34(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSection35(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiment.NewSession(benchQuality())
		if _, err := experiment.Section35(s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSection4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiment.NewSession(benchQuality())
		if _, err := experiment.Section4(s); err != nil {
			b.Fatal(err)
		}
	}
}

// --- simulator microbenchmarks ----------------------------------------------

// BenchmarkLeadingCore measures raw out-of-order simulation speed
// (reported as ns and allocs per simulated instruction) on a
// compute-bound profile (gzip) and a memory-bound one (mcf), whose L2
// misses leave the core idle for hundreds of cycles at a time. It
// advances as the experiment windows do, each quiet stretch in one call
// (ooo.Core.Advance).
func BenchmarkLeadingCore(b *testing.B) {
	for _, name := range []string{"gzip", "mcf"} {
		b.Run(name, func(b *testing.B) {
			bench, err := trace.ByName(name)
			if err != nil {
				b.Fatal(err)
			}
			g := trace.MustGenerator(bench.Profile, 1)
			c, err := ooo.New(ooo.Default(), g, nuca.New(nuca.Config2DA(nuca.DistributedSets)))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			target := uint64(0)
			for i := 0; i < b.N; i++ {
				target++
				for c.Committed() < target {
					c.Advance(4)
				}
			}
		})
	}
}

// BenchmarkCoupledCore measures the RMT system's step loop on the same
// profiles without the set-up BenchmarkReliableSystem pays every op:
// one system per profile, warmed over 20,000 instructions, steps until
// one more instruction commits, each quiet stretch of the leading core
// in one call as the experiment windows run it (core.System.Advance).
// Its gap to BenchmarkLeadingCore is the cost of coupling the checker
// to the leading core.
func BenchmarkCoupledCore(b *testing.B) {
	for _, name := range []string{"gzip", "mcf"} {
		b.Run(name, func(b *testing.B) {
			bench, err := trace.ByName(name)
			if err != nil {
				b.Fatal(err)
			}
			g := trace.MustGenerator(bench.Profile, 1)
			lead, err := ooo.New(ooo.Default(), g, nuca.New(nuca.Config2DA(nuca.DistributedSets)))
			if err != nil {
				b.Fatal(err)
			}
			sys, err := core.New(core.Default(ooo.Default()), lead)
			if err != nil {
				b.Fatal(err)
			}
			sys.Run(20_000)
			lead.SetFetchBudget(^uint64(0))
			b.ReportAllocs()
			b.ResetTimer()
			target := lead.Committed()
			for i := 0; i < b.N; i++ {
				target++
				for lead.Committed() < target {
					sys.Advance(^uint64(0))
				}
			}
		})
	}
}

// BenchmarkStreamWindows measures a Prefetch batch's work on one
// instruction stream: a fresh one-worker session at Fast() with windows
// a fifth as long (the perfbench windows workload's quality, seed 42)
// prefetches the stream's 14 windows of the registry manifests, among
// them the 2d-a leading-core window and the coupled windows that share
// its leading core. One op is one prefetch; ns/inst divides it by the
// leading-core instructions the 14 windows commit, warm-up and
// measurement (36,000 each; a window commits at most three more in each
// phase).
func BenchmarkStreamWindows(b *testing.B) {
	q := experiment.Fast()
	q.WarmupInsts /= 5
	q.MeasureInsts /= 5
	for _, name := range []string{"gzip", "mcf"} {
		b.Run(name, func(b *testing.B) {
			var keys []experiment.RunKey
			for _, k := range experiment.ManifestUnion(q, experiment.Registry()) {
				if k.Bench == name && !slices.Contains(keys, k) {
					keys = append(keys, k)
				}
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s := experiment.NewSessionWith(q, experiment.SessionOptions{Workers: 1})
				if err := s.Prefetch(keys); err != nil {
					b.Fatal(err)
				}
			}
			insts := float64(len(keys)) * float64(q.WarmupInsts+q.MeasureInsts)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/insts, "ns/inst")
		})
	}
}

// BenchmarkChecker measures the trailing checker alone (ns per checked
// instruction) over the stream the leading core commits, captured as the
// RVQ entries the coupler would queue: 65,536 instructions per profile,
// checked from the start by a fresh checker whenever they run out. The
// checker issues a window of up to its width per Step, as the coupler
// hands it, so BenchmarkCoupledCore minus BenchmarkLeadingCore minus
// this is the cost of the coupling itself.
func BenchmarkChecker(b *testing.B) {
	for _, name := range []string{"gzip", "mcf"} {
		b.Run(name, func(b *testing.B) {
			bench, err := trace.ByName(name)
			if err != nil {
				b.Fatal(err)
			}
			lead, err := ooo.New(ooo.Default(), trace.MustGenerator(bench.Profile, 1), nuca.New(nuca.Config2DA(nuca.DistributedSets)))
			if err != nil {
				b.Fatal(err)
			}
			const n = 1 << 16
			entries := make([]inorder.Entry, 0, n)
			for len(entries) < n {
				for _, in := range lead.Step(ooo.Default().CommitWidth) {
					entries = append(entries, inorder.MakeEntry(in))
				}
			}
			entries = entries[:n]
			cfg := inorder.Default()
			outcomes := make([]inorder.CheckOutcome, cfg.Width)
			var ck *inorder.Checker
			pos := len(entries)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; {
				if pos == len(entries) {
					ck, pos = inorder.New(cfg), 0
				}
				k := ck.Step(entries[pos:min(pos+cfg.Width, len(entries))], outcomes)
				pos += k
				i += k
			}
		})
	}
}

// BenchmarkReliableSystem measures the coupled RMT simulation speed.
func BenchmarkReliableSystem(b *testing.B) {
	r, err := RunReliable("gzip", L2Org2DA, 20_000, 2.0, 1)
	if err != nil || r.Instructions == 0 {
		b.Fatalf("setup failed: %v", err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunReliable("gzip", L2Org2DA, 20_000, 2.0, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTraceGeneration measures synthetic workload generation.
func BenchmarkTraceGeneration(b *testing.B) {
	bench, _ := trace.ByName("swim")
	g := trace.MustGenerator(bench.Profile, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Next()
	}
}

// BenchmarkTapeReplay measures replaying a recorded stream, the source
// a Prefetch batch gives every window after the first of its stream:
// one op is one instruction of a 65,536-instruction swim recording,
// replayed from the start each time it ends. Compare it with
// BenchmarkTraceGeneration, which draws the same stream.
func BenchmarkTapeReplay(b *testing.B) {
	bench, _ := trace.ByName("swim")
	tape := trace.NewTape(trace.MustGenerator(bench.Profile, 1))
	const n = 1 << 16
	r := tape.Reader()
	for i := 0; i < n; i++ {
		r.Next()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%n == 0 {
			r = tape.Reader()
		}
		r.Next()
	}
}

// BenchmarkWindowSetup measures building a window's leading core and
// 2d-a L2 (one op = one core with its L2): "fresh" allocates them as a
// window built from scratch does, "reset" resets a core and L2 that
// have run, as a Prefetch batch's workers do between windows.
func BenchmarkWindowSetup(b *testing.B) {
	bench, _ := trace.ByName("gzip")
	g := trace.MustGenerator(bench.Profile, 1)
	l2cfg := nuca.Config2DA(nuca.DistributedSets)
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ooo.New(ooo.Default(), g, nuca.New(l2cfg)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("reset", func(b *testing.B) {
		c, err := ooo.New(ooo.Default(), g, nuca.New(l2cfg))
		if err != nil {
			b.Fatal(err)
		}
		c.Run(20_000)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			l2 := c.L2()
			l2.Reset(l2cfg)
			if err := c.Reset(ooo.Default(), g, l2); err != nil {
				b.Fatal(err)
			}
		}
	})
}
