// Package r3d is a library-level facade over the reliability-3D
// simulator: a reproduction of "Leveraging 3D Technology for Improved
// Reliability" (Madan & Balasubramonian, MICRO 2007).
//
// The simulator couples an out-of-order leading core with an in-order
// checker core through register/load/branch value queues (redundant
// multi-threading), runs synthetic SPEC2k-like workloads through real
// branch-predictor and NUCA-cache models, and layers Wattch-style power,
// HotSpot-style 3D thermal, interconnect, technology-scaling and
// fault-injection models on top — enough to regenerate every table and
// figure of the paper's evaluation (see cmd/r3dbench and EXPERIMENTS.md).
//
// This package exposes the common entry points with plain result types;
// the full models live under internal/ and are exercised by the
// examples, the r3dbench/r3dsim tools and the benchmark suite.
package r3d

import (
	"fmt"

	"r3d/internal/campaign"
	"r3d/internal/core"
	"r3d/internal/fault"
	"r3d/internal/nuca"
	"r3d/internal/ooo"
	"r3d/internal/tech"
	"r3d/internal/trace"
)

// Benchmarks returns the names of the 19 SPEC2k-like workloads.
func Benchmarks() []string { return trace.Names() }

// L2Org selects the paper's cache organizations.
type L2Org string

// The three L2 organizations of the paper's §3.
const (
	L2Org2DA  L2Org = "2d-a"  // 6 MB, 6 banks
	L2Org2D2A L2Org = "2d-2a" // 15 MB, single large die
	L2Org3D2A L2Org = "3d-2a" // 15 MB, 9 banks stacked
)

// Result summarizes a standalone leading-core run.
type Result struct {
	Benchmark      string
	Instructions   uint64
	Cycles         uint64
	IPC            float64
	L2MissesPer10k float64
	L2HitLatency   float64
	MispredictRate float64
}

// RunBenchmark simulates n instructions of the named workload on the
// out-of-order leading core with the given L2 organization.
func RunBenchmark(name string, org L2Org, n uint64, seed int64) (Result, error) {
	b, err := trace.ByName(name)
	if err != nil {
		return Result{}, err
	}
	l2cfg, err := nuca.ByName(string(org), nuca.DistributedSets)
	if err != nil {
		return Result{}, err
	}
	g := trace.MustGenerator(b.Profile, seed)
	c, err := ooo.New(ooo.Default(), g, nuca.New(l2cfg))
	if err != nil {
		return Result{}, err
	}
	s := c.Run(n)
	return Result{
		Benchmark:      name,
		Instructions:   s.Instructions,
		Cycles:         s.Activity.Cycles,
		IPC:            s.IPC(),
		L2MissesPer10k: s.L2MissesPer10k(),
		L2HitLatency:   s.MeanL2HitLatency(),
		MispredictRate: c.PredictorStats().MispredictRate(),
	}, nil
}

// ReliableResult summarizes a redundant-multithreading run.
type ReliableResult struct {
	Result
	CheckerIPC         float64
	MeanCheckerFreqGHz float64
	Checked            uint64
	LeadStallCycles    uint64
	ErrorsDetected     uint64
	ErrorsRecovered    uint64
	ErrorsUnrecovered  uint64
}

// RunReliable simulates n instructions on the full reliable processor:
// leading core plus DFS-throttled in-order checker. maxCheckerGHz caps
// the checker's frequency range (2.0 for the homogeneous stack, 1.4 for
// the §4 90 nm checker die).
func RunReliable(name string, org L2Org, n uint64, maxCheckerGHz float64, seed int64) (ReliableResult, error) {
	sys, err := campaign.BuildSystem(campaign.TrialSpec{
		Bench: name, L2: string(org), CheckerMaxGHz: maxCheckerGHz,
		Config: fault.CampaignConfig{Seed: seed},
	})
	if err != nil {
		return ReliableResult{}, err
	}
	st := sys.Run(n)
	return reliableResult(name, sys, st), nil
}

// InjectionResult reports a fault-injection campaign.
type InjectionResult struct {
	ReliableResult
	LeadInjected   uint64
	RFInjected     uint64
	MultiBitUpsets uint64
	Coverage       float64
	// Status reports how the supervised trial ended: "ok", or "hung"
	// when the forward-progress watchdog stopped a wedged system (the
	// statistics are then the partial window up to the wedge).
	Status string
	// WatchdogReason qualifies a hung run (e.g. "no-progress").
	WatchdogReason string
}

// RunInjection runs a soft-error injection campaign on the reliable
// processor: leading-core datapath upsets and trailer register-file
// upsets arrive at the given (accelerated) rates per million cycles,
// with the multi-bit-upset fraction of the given technology node.
//
// The run executes under the internal/campaign supervisor: a wedged
// system is stopped by the forward-progress watchdog and reported with
// Status "hung" instead of spinning forever, and a panicking trial
// surfaces as an error instead of killing the process. Grid campaigns
// over many seeds and rates belong to cmd/r3dfault.
func RunInjection(name string, n uint64, nodeNm int, leadPerM, checkerPerM float64, seed int64) (InjectionResult, error) {
	spec := campaign.TrialSpec{Bench: name, L2: string(L2Org2DA), CheckerMaxGHz: 2.0, Config: fault.CampaignConfig{
		Instructions:         n,
		CycleBudget:          fault.DefaultCycleBudget(n),
		LeadSoftPerMCycle:    leadPerM,
		CheckerSoftPerMCycle: checkerPerM,
		TimingNode:           tech.Node(nodeNm),
		Seed:                 seed,
	}}
	sys, err := campaign.BuildSystem(spec)
	if err != nil {
		return InjectionResult{}, err
	}
	out := campaign.RunSupervised(sys, spec.Config, campaign.Watchdog{})
	if out.Status == campaign.StatusCrashed {
		return InjectionResult{}, fmt.Errorf("r3d: injection campaign crashed: %s", out.Reason)
	}
	res := out.Result
	return InjectionResult{
		ReliableResult: reliableResult(name, sys, sys.Stats()),
		LeadInjected:   res.LeadInjected,
		RFInjected:     res.RFInjected,
		MultiBitUpsets: res.MBUs,
		Coverage:       res.Coverage(),
		Status:         string(out.Status),
		WatchdogReason: out.Reason,
	}, nil
}

// TechScaling returns the Table 8 dynamic and leakage power factors for
// implementing a fixed design on oldNm instead of newNm.
func TechScaling(oldNm, newNm int) (dynamic, leakage float64, err error) {
	s, err := tech.ScalePower(tech.Node(oldNm), tech.Node(newNm))
	if err != nil {
		return 0, 0, err
	}
	return s.Dynamic, s.Leakage, nil
}

func reliableResult(name string, sys *core.System, st core.SystemStats) ReliableResult {
	lead := sys.Lead().Stats()
	cs := sys.Checker().Stats()
	return ReliableResult{
		Result: Result{
			Benchmark:      name,
			Instructions:   lead.Instructions,
			Cycles:         lead.Activity.Cycles,
			IPC:            lead.IPC(),
			L2MissesPer10k: lead.L2MissesPer10k(),
			L2HitLatency:   lead.MeanL2HitLatency(),
			MispredictRate: sys.Lead().PredictorStats().MispredictRate(),
		},
		CheckerIPC:         cs.IPC(),
		MeanCheckerFreqGHz: sys.MeanCheckerFreqGHz(),
		Checked:            cs.Checked,
		LeadStallCycles:    st.LeadStallCycles,
		ErrorsDetected:     st.ErrorsDetected,
		ErrorsRecovered:    st.ErrorsRecovered,
		ErrorsUnrecovered:  st.ErrorsUnrecovered,
	}
}
