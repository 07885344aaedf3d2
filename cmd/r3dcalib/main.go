// Command r3dcalib sweeps the 19 synthetic workload profiles through
// the leading core at both L2 capacities and prints, per benchmark, the
// measured IPC against its Figure 6 calibration target, the branch
// misprediction and L1D miss rates, the mean L2 hit latency, and the L2
// miss densities at 6 MB and 15 MB. It is the tool used to tune the
// profile parameters in internal/trace/profiles.go (see DESIGN.md §2 on
// the SPEC2k substitution).
package main

import (
	"flag"
	"fmt"
	"time"

	"r3d/internal/nuca"
	"r3d/internal/ooo"
	"r3d/internal/trace"
)

func main() {
	warm := flag.Uint64("warmup", 400_000, "warmup instructions")
	meas := flag.Uint64("measure", 300_000, "measured instructions")
	seed := flag.Int64("seed", 42, "workload seed")
	flag.Parse()

	// Wall-clock reads are driver-side instrumentation only: t0/el
	// measure host throughput (the kinst/s line below) and never feed a
	// simulated quantity, which all advance on cycle counters. That is
	// the model/driver boundary the r3dlint wallclock check enforces —
	// time.Now is legal here in cmd/, and rejected under internal/.
	t0 := time.Now()
	var totIns uint64
	fmt.Printf("%-9s %6s %6s | %6s %7s %7s | %7s %7s\n",
		"bench", "tgtIPC", "IPC", "mispr%", "L1D%", "L2hit", "m10k@6", "m10k@15")
	var sum6, sum15 float64
	for _, b := range trace.Suite() {
		run := func(cfg nuca.Config) ooo.Stats {
			g := trace.MustGenerator(b.Profile, *seed)
			c, err := ooo.New(ooo.Default(), g, nuca.New(cfg))
			if err != nil {
				panic(err)
			}
			c.Run(*warm)
			c.ResetStats()
			c.SetFetchBudget(^uint64(0))
			for c.Stats().Instructions < *meas {
				c.Advance(4)
			}
			totIns += *warm + *meas
			return c.Stats()
		}
		s6 := run(nuca.Config2DA(nuca.DistributedSets))
		s15 := run(nuca.Config2D2A(nuca.DistributedSets))

		g := trace.MustGenerator(b.Profile, *seed)
		c, _ := ooo.New(ooo.Default(), g, nuca.New(nuca.Config2DA(nuca.DistributedSets)))
		c.Run(*warm + *meas)
		ps := c.PredictorStats()
		ds := c.L1DStats()
		fmt.Printf("%-9s %6.2f %6.2f | %5.1f%% %6.2f%% %7.1f | %7.2f %7.2f\n",
			b.Profile.Name, b.Targets.IPC, s6.IPC(),
			ps.MispredictRate()*100, ds.MissRate()*100, s6.MeanL2HitLatency(),
			s6.L2MissesPer10k(), s15.L2MissesPer10k())
		sum6 += s6.L2MissesPer10k()
		sum15 += s15.L2MissesPer10k()
	}
	fmt.Printf("suite avg m10k: %.2f @6MB  %.2f @15MB (paper: 1.43 → 1.25)\n", sum6/19, sum15/19)
	el := time.Since(t0)
	fmt.Printf("total %v, %.0f kinst/s\n", el, float64(totIns)/el.Seconds()/1000)
}
