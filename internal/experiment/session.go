// Package experiment regenerates every table and figure of the paper's
// evaluation. Each experiment is a function from a shared Session to a
// typed result with a String() renderer that prints rows in the paper's
// format, plus a manifest that declares the simulation windows it needs
// up front (see registry.go). The Session memoizes windows behind a
// deterministic parallel run engine (internal/runsched): duplicate
// requests join in-flight computations, manifests prefetch in parallel
// across a bounded worker pool, and output is byte-identical at any
// worker count. See DESIGN.md §4 for the experiment ↔ module index and
// EXPERIMENTS.md for paper-vs-measured numbers.
package experiment

import (
	"slices"
	"sync"
	"sync/atomic"

	"r3d/internal/core"
	"r3d/internal/nuca"
	"r3d/internal/ooo"
	"r3d/internal/power"
	"r3d/internal/runsched"
	"r3d/internal/thermal"
	"r3d/internal/trace"
)

// Quality selects simulation window sizes: Fast for tests, Full for the
// r3dbench tool.
type Quality struct {
	WarmupInsts  uint64
	MeasureInsts uint64
	// Benchmarks restricts the suite (nil = all 19).
	Benchmarks []string
	// ThermalTolC / ThermalMaxIters bound the SOR solver.
	ThermalTolC     thermal.Celsius
	ThermalMaxIters int
	Seed            int64
}

// Fast returns a test-sized quality (≈6× smaller windows, 6-benchmark
// subset).
func Fast() Quality {
	return Quality{
		WarmupInsts:  60_000,
		MeasureInsts: 120_000,
		Benchmarks:   []string{"gzip", "mcf", "mesa", "swim", "twolf", "art"},
		ThermalTolC:  1e-4, ThermalMaxIters: 40_000,
		Seed: 42,
	}
}

// Full returns the quality used for the published numbers in
// EXPERIMENTS.md: all 19 benchmarks, 400k-instruction warmup and
// measurement windows (the paper used 100M-instruction Simpoint
// windows; see EXPERIMENTS.md for the window-length caveats).
func Full() Quality {
	return Quality{
		WarmupInsts:  1_200_000,
		MeasureInsts: 400_000,
		ThermalTolC:  2e-5, ThermalMaxIters: 100_000,
		Seed: 42,
	}
}

// Suite returns the benchmark list for this quality.
func (q Quality) Suite() []trace.Benchmark {
	all := trace.Suite()
	if q.Benchmarks == nil {
		return all
	}
	var out []trace.Benchmark
	for _, name := range q.Benchmarks {
		for _, b := range all {
			if b.Profile.Name == name {
				out = append(out, b)
			}
		}
	}
	return out
}

// LeadRun is one cached leading-core window.
type LeadRun struct {
	Bench   string
	Stats   ooo.Stats
	L2Stats nuca.Stats
	Pred    float64 // mispredict rate
}

// IPC returns the measured IPC.
func (r LeadRun) IPC() float64 { return r.Stats.IPC() }

// RMTRun is one cached RMT window.
type RMTRun struct {
	Bench         string
	Lead          ooo.Stats
	Sys           core.SystemStats
	CheckerIPC    float64
	CheckerUtil   float64 // issued / (cycles × width)
	MeanFreqGHz   float64
	FreqFractions []float64 // 10 bins of 0.1·f
}

// runValue is the engine's memo slot: one window of either family.
// Exactly one of the two fields is meaningful, selected by the key's
// Kind (KindLeading → lead, everything else → rmt).
type runValue struct {
	lead LeadRun
	rmt  RMTRun
}

// Session caches simulation windows across experiments behind a
// deterministic run engine. It is safe for concurrent use. The engine
// memoizes one value per RunKey with per-key singleflight; below it,
// the session memoizes one simulation per window spec (window.go), so
// keys that name the same configuration — the ablation's default
// variant, the sweep's 200-entry RVQ and the 2.0 GHz RMT window —
// share one simulation while each is still computed, reported and
// persisted under its own name. Thermal solves are memoized the same
// way: each distinct case (geometry + power maps) is a pure function of
// its key, solved once on a private State over a shared immutable
// thermal.Model and published as an immutable snapshot. The window
// memo, the snapshot store and the model cache are each a
// runsched.Flight, which holds no lock across a simulation, a solve or
// a model build, so independent windows and thermal cases run
// concurrently.
type Session struct {
	Q   Quality
	eng *runsched.Engine[RunKey, runValue]

	// sims holds each simulation by the spec it ran.
	sims runsched.Flight[windowSpec, runValue]
	// simMu guards the shared marks and the batch set-up (the three
	// fields below).
	simMu sync.Mutex
	// shared marks the computed keys whose value came from another
	// key's simulation.
	// r3dlint:guardedby simMu
	shared map[RunKey]bool
	// batches counts the Prefetch calls running now, and setup is the
	// set-up their windows share (setup.go): the first batch makes it
	// and the last one drops it.
	// r3dlint:guardedby simMu
	batches int
	// r3dlint:guardedby simMu
	setup *setUp

	// snapshots holds the published solve per case key, and models the
	// immutable thermal model per stack geometry.
	snapshots runsched.Flight[thermalKey, *thermalSnapshot]
	models    runsched.Flight[string, *thermal.Model]
	// thermalCount counts the snapshot store's traffic (ThermalStats).
	thermalCount struct{ solves, hits, joins, fineIters, coarseIters atomic.Int64 }

	// thermalWarn counts solves that hit ThermalMaxIters before reaching
	// ThermalTolC (see ThermalResult.Converged).
	thermalWarn atomic.Int64
}

// SessionOptions tunes a session beyond quality: parallelism,
// observability, and the RMT-style shadow self-verification of cached
// windows.
type SessionOptions struct {
	// Workers bounds the prefetch pool (≤0 selects 1).
	Workers int
	// Clock supplies monotonic nanoseconds for engine counters; nil
	// zeroes all timings (model code never reads the host clock).
	Clock func() int64
	// ShadowFraction re-verifies that fraction of cache hits — including
	// windows preloaded from a persisted cache — by recomputing them
	// from scratch and byte-comparing canonical encodings. Divergences
	// are reported by ShadowDivergences, never silently repaired.
	ShadowFraction float64
}

// NewSession creates a serial session (one worker, no run timing) —
// the byte-identical baseline every parallel configuration is measured
// against.
func NewSession(q Quality) *Session {
	return NewSessionWith(q, SessionOptions{Workers: 1})
}

// NewSessionWith creates a session with the full option set. Prefetch
// batches fan out across opts.Workers; output is byte-identical for any
// worker count.
func NewSessionWith(q Quality, opts SessionOptions) *Session {
	s := &Session{Q: q, shared: map[RunKey]bool{}}
	engOpts := runsched.Options[RunKey, runValue]{
		Workers: opts.Workers,
		Compare: CompareRunKeys,
		Clock:   opts.Clock,
	}
	if opts.ShadowFraction > 0 {
		engOpts.ShadowFraction = opts.ShadowFraction
		engOpts.Hash = hashRunKey
		engOpts.Encode = encodeRunValue
	}
	s.eng = runsched.New(s.computeRun, engOpts)
	return s
}

// Interrupt asks the session's run engine to drain gracefully:
// in-flight windows finish and commit (so SaveCache persists them), and
// Prefetch reports runsched.ErrInterrupted for the windows it skipped.
func (s *Session) Interrupt() { s.eng.Interrupt() }

// ThermalWarnings returns how many thermal solves failed to converge
// within the quality's iteration budget.
func (s *Session) ThermalWarnings() int64 { return s.thermalWarn.Load() }

// ShadowDivergences returns the cached windows (canonical key order)
// whose shadow recomputation did not reproduce them byte-for-byte.
func (s *Session) ShadowDivergences() []runsched.Divergence[RunKey] {
	return s.eng.Divergences()
}

// Prefetch computes the given windows across the session's worker pool,
// deduplicated and committed in canonical key order. Experiments
// requested afterwards find their windows memoized; windows a manifest
// could not declare statically are computed on demand (and still
// deduplicated through the same singleflight).
//
// A batch dispatches the windows of one instruction stream together and
// replays that stream from one recording, and its workers reuse their
// leading cores and L2s from window to window (setup.go); windows
// computed outside any batch build everything from scratch.
func (s *Session) Prefetch(keys []RunKey) error {
	return s.PrefetchUntil(keys, nil)
}

// PrefetchUntil is Prefetch with a per-batch stop channel: closing stop
// drains this batch only — in-flight windows finish and commit, skipped
// windows stay uncomputed (never poisoned), and the call reports
// runsched.ErrInterrupted. Other callers sharing the session keep
// running; this is how a server imposes per-request deadlines over one
// shared memo cache.
func (s *Session) PrefetchUntil(keys []RunKey, stop <-chan struct{}) error {
	keys = slices.Clone(keys)
	slices.SortFunc(keys, compareStreams)
	s.beginBatch(keys)
	defer s.endBatch()
	return s.eng.PrefetchUntil(keys, stop)
}

// EngineStats returns the run engine's observability counters.
func (s *Session) EngineStats() runsched.Stats {
	return s.eng.Stats()
}

// L2Config names the paper's cache organizations for lookups.
type L2Config int

// The four chip models of §3.3.
const (
	L2DA  L2Config = iota // 6 MB, 6 banks (2d-a and 3d-checker)
	L2D2A                 // 15 MB, single die (2d-2a)
	L3D2A                 // 15 MB, stacked banks (3d-2a)
)

func (c L2Config) String() string {
	switch c {
	case L2D2A:
		return "2d-2a"
	case L3D2A:
		return "3d-2a"
	default:
		return "2d-a"
	}
}

// Leading runs (or returns the memoized) standalone leading-core
// window. memLatency overrides the 300-cycle memory latency when
// positive (the §3.3 frequency-scaling study).
func (s *Session) Leading(bench string, l2c L2Config, policy nuca.Policy, memLatency int) (LeadRun, error) {
	v, err := s.eng.Get(LeadingKey(s.Q, bench, l2c, policy, memLatency))
	return v.lead, err
}

// RMT runs (or returns the memoized) coupled leading+checker window.
// maxCheckerGHz caps the checker's DFS range (2.0 homogeneous, 1.4 for
// the §4 90 nm die).
func (s *Session) RMT(bench string, l2c L2Config, maxCheckerGHz float64) (RMTRun, error) {
	v, err := s.eng.Get(RMTKey(s.Q, bench, l2c, maxCheckerGHz))
	return v.rmt, err
}

// SuiteActivity returns the per-unit activity factors and the mean L2
// per-bank access rate averaged over the quality's suite, for a given
// L2 organization — the inputs to the thermal experiments.
func (s *Session) SuiteActivity(l2c L2Config) (power.Activity, float64, error) {
	suite := s.Q.Suite()
	sum := power.Activity{}
	var l2Rate float64
	for _, b := range suite {
		r, err := s.Leading(b.Profile.Name, l2c, nuca.DistributedSets, 0)
		if err != nil {
			return nil, 0, err
		}
		act := power.ActivityFromStats(r.Stats, ooo.Default())
		//lint:ignore maporder each key of sum is updated independently, so order cannot affect any entry
		for k, v := range act {
			sum[k] += v
		}
		banks := len(r.L2Stats.BankAccesses)
		if cycles := r.Stats.Activity.Cycles; cycles > 0 && banks > 0 {
			l2Rate += float64(r.L2Stats.Accesses) / float64(cycles) / float64(banks)
		}
	}
	n := float64(len(suite))
	//lint:ignore maporder per-key scaling touches each entry exactly once; order-independent
	for k := range sum {
		sum[k] /= n
	}
	return sum, l2Rate / n, nil
}

// BenchActivity returns one benchmark's activity factors and per-bank L2
// access rate.
func (s *Session) BenchActivity(bench string, l2c L2Config) (power.Activity, float64, error) {
	r, err := s.Leading(bench, l2c, nuca.DistributedSets, 0)
	if err != nil {
		return nil, 0, err
	}
	act := power.ActivityFromStats(r.Stats, ooo.Default())
	banks := len(r.L2Stats.BankAccesses)
	rate := 0.0
	if cycles := r.Stats.Activity.Cycles; cycles > 0 && banks > 0 {
		rate = float64(r.L2Stats.Accesses) / float64(cycles) / float64(banks)
	}
	return act, rate, nil
}
