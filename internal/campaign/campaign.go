// Package campaign is the hardened Monte Carlo harness over the fault
// package's injection machinery: it fans a grid of trial configurations
// across a worker pool and keeps the harness itself alive through every
// pathology a trial can exhibit.
//
// The paper's reliability claims (§3.5, §4, Figure 9) rest on
// statistical fault-injection campaigns — thousands of config×seed
// trials — and a harness that studies failures must survive them:
//
//   - a trial that panics is caught and reported as a structured
//     outcome with Status "crashed" instead of killing the process;
//   - a trial whose simulated system stops retiring instructions (a
//     wedged RVQ barrier, a recovery livelock) is detected by a
//     forward-progress watchdog — cycle budget plus no-retire deadline,
//     both measured in simulated cycles so detection is deterministic —
//     and reported as "hung", giving the study a wedge statistic;
//   - trials that hit the watchdog under heavy rate acceleration may be
//     retried a bounded number of times with a deterministically
//     perturbed seed;
//   - every completed trial is journaled as one CRC-guarded JSONL line,
//     so an interrupted campaign resumes from the partial journal and
//     the final aggregate is byte-identical to an uninterrupted run;
//   - closing Config.Stop drains gracefully: in-flight trials finish
//     and the journal is flushed before Run returns a partial
//     (resumable) report;
//   - resumed outcomes can be shadow-verified RMT-style: a
//     deterministic fraction is re-executed from scratch in the worker
//     pool and byte-compared against the stored result, with mismatches
//     surfaced as structured divergence findings instead of silently
//     trusted;
//   - aggregation orders trials by ID, never by completion order, so
//     the repo's determinism guarantee extends to parallel runs.
package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"r3d/internal/core"
	"r3d/internal/fault"
	"r3d/internal/iofault"
	"r3d/internal/nuca"
	"r3d/internal/ooo"
	"r3d/internal/trace"
)

// Status classifies how a trial ended.
type Status string

// The outcome taxonomy: a trial either reaches its instruction target
// (ok), is stopped by the watchdog (hung), or dies by panic or setup
// failure (crashed). The harness process survives all three.
const (
	StatusOK      Status = "ok"
	StatusHung    Status = "hung"
	StatusCrashed Status = "crashed"
)

// Reasons attached to non-ok outcomes.
const (
	ReasonNoProgress  = "no-progress"  // Progress() flat for the no-retire deadline
	ReasonCycleBudget = "cycle-budget" // hard CycleBudget reached
	ReasonWallClock   = "wall-clock"   // host-clock stall timeout (harness last resort)
)

// TrialSpec is one grid point: a workload/system selection plus the
// injection configuration to run on it. IDs must be unique within a
// campaign; they key journal resume and aggregate ordering.
type TrialSpec struct {
	ID    string `json:"id"`
	Bench string `json:"bench"`
	// L2 selects the cache organization: "2d-a" (default), "2d-2a" or
	// "3d-2a".
	L2 string `json:"l2,omitempty"`
	// CheckerMaxGHz caps the checker DFS range (0 = the 2.0 GHz
	// homogeneous stack).
	CheckerMaxGHz float64              `json:"checker_max_ghz,omitempty"`
	Config        fault.CampaignConfig `json:"config"`
}

// TrialOutcome is the structured result of one trial, whatever happened
// to it. It is what the journal stores and the report aggregates, so it
// deliberately contains no wall-clock timestamps or host-dependent
// fields: two runs of the same spec produce identical outcomes.
type TrialOutcome struct {
	ID     string `json:"id"`
	Status Status `json:"status"`
	// Reason qualifies non-ok outcomes: a watchdog reason for hung
	// trials, the panic or setup error message for crashed ones.
	Reason string `json:"reason,omitempty"`
	// Attempts counts runs of this trial including retries (≥ 1).
	Attempts int `json:"attempts"`
	// HungAtCycle is the leading cycle at which the watchdog fired.
	HungAtCycle uint64 `json:"hung_at_cycle,omitempty"`
	// Result holds the (possibly partial, for hung trials) campaign
	// statistics; nil for crashed trials.
	Result *fault.CampaignResult `json:"result,omitempty"`
}

// Watchdog bounds a trial's forward progress in simulated time. Both
// limits are deterministic functions of the simulation, so whether a
// trial hangs — and at which cycle — is identical on every run.
type Watchdog struct {
	// NoProgressCycles is the no-retire deadline: the trial is hung if
	// the system's Progress counter does not advance for this many
	// leading cycles. Must comfortably exceed recovery penalties and
	// DFS ramp transients; 0 selects DefaultNoProgressCycles.
	NoProgressCycles uint64
	// CheckEveryCycles is the probe granularity (0 selects
	// DefaultCheckEveryCycles). Probing every cycle would double the
	// cost of the hot loop for no detection benefit.
	CheckEveryCycles uint64
}

// Watchdog defaults: the recovery penalty is 80 cycles and DFS
// transients span a few thousand, so 50k no-retire cycles only ever
// trips on a genuinely wedged system.
const (
	DefaultNoProgressCycles = 50_000
	DefaultCheckEveryCycles = 1024
)

func (w Watchdog) withDefaults() Watchdog {
	if w.NoProgressCycles == 0 {
		w.NoProgressCycles = DefaultNoProgressCycles
	}
	if w.CheckEveryCycles == 0 {
		w.CheckEveryCycles = DefaultCheckEveryCycles
	}
	return w
}

// SystemBuilder constructs the RMT system for one trial. The builder is
// called once per attempt, with the attempt's (possibly retry-perturbed)
// seed already substituted into spec.Config.Seed.
type SystemBuilder func(spec TrialSpec) (*core.System, error)

// BuildSystem is the default builder: synthetic workload by name,
// selected L2 organization, default leading core, checker capped at
// spec.CheckerMaxGHz.
func BuildSystem(spec TrialSpec) (*core.System, error) {
	b, err := trace.ByName(spec.Bench)
	if err != nil {
		return nil, err
	}
	l2cfg, err := nuca.ByName(spec.L2, nuca.DistributedSets)
	if err != nil {
		return nil, err
	}
	g := trace.MustGenerator(b.Profile, spec.Config.Seed)
	lead, err := ooo.New(ooo.Default(), g, nuca.New(l2cfg))
	if err != nil {
		return nil, err
	}
	cfg := core.Default(ooo.Default())
	if spec.CheckerMaxGHz > 0 {
		cfg.CheckerMaxFreqGHz = spec.CheckerMaxGHz
	}
	return core.New(cfg, lead)
}

// Config drives Run.
type Config struct {
	// Workers is the goroutine-pool width (≤ 0 selects 1; trials are
	// deterministic per spec, so any width yields the same report).
	Workers int
	// MaxRetries is the bounded per-trial retry budget for trials the
	// watchdog reports hung: each retry perturbs the seed by a fixed
	// stride, giving acceleration-induced wedges another draw. Crashed
	// trials are not retried — a deterministic panic would only repeat.
	MaxRetries int
	// JournalPath appends one JSONL line per completed trial ("",
	// disables journaling). With Resume, previously journaled outcomes
	// are reused instead of re-running their trials; the journal is the
	// campaign's only recovery record.
	JournalPath string
	Resume      bool
	// ShadowFraction in (0,1] enables RMT-style self-verification of
	// resumed state: that fraction of journaled outcomes — selected
	// deterministically by trial-ID hash — is re-executed from scratch
	// in the worker pool and byte-compared against the stored result.
	// Divergences land in Report.ShadowDivergences; the stored value
	// still feeds the aggregate (the shadow checker detects, it does not
	// silently repair).
	ShadowFraction float64
	// Stop, when closed, drains the campaign gracefully: no new trials
	// are dispatched, in-flight trials finish and the journal is
	// flushed. The returned report carries Interrupted=true and only the
	// completed trials.
	Stop     <-chan struct{}
	Watchdog Watchdog
	// OnOutcome, when non-nil, observes every freshly executed trial as
	// it commits (journal-restored outcomes are not replayed through it).
	// It is called from worker goroutines, possibly concurrently, with no
	// harness locks held; it must be cheap and concurrency-safe. Progress
	// reporting is its intended use — it cannot alter outcomes.
	OnOutcome func(TrialOutcome)
	// FS is the filesystem the journal goes through. nil selects the
	// real filesystem; the chaos harness injects a seeded fault lattice
	// here.
	FS iofault.FS
	// StallTimeout is a host-clock last resort against harness bugs: a
	// trial goroutine that produces no outcome within this wall time is
	// abandoned and reported hung with ReasonWallClock. It is off (0)
	// by default because the simulated-cycle watchdog already bounds
	// every well-formed trial deterministically; enabling it trades
	// bit-reproducibility of pathological runs for liveness.
	StallTimeout time.Duration
	// Builder overrides system construction (nil = BuildSystem).
	Builder SystemBuilder
}

// retrySeedStride separates retry seeds from every seed a sane grid
// would enumerate, while staying a deterministic function of the
// attempt number.
const retrySeedStride = 1_000_003

type runner struct {
	cfg     Config
	wd      Watchdog
	builder SystemBuilder
}

// Run executes the campaign and aggregates a Report ordered by trial
// ID. The returned error reports harness failures only (duplicate IDs,
// journal I/O or mismatch); trial failures — panics, wedges — are
// data, carried in the report, and the caller should exit 0 on them. A
// graceful drain (Config.Stop) is not an error either: the report
// simply carries Interrupted plus the trials that completed.
func Run(cfg Config, specs []TrialSpec) (*Report, error) {
	seen := make(map[string]bool, len(specs))
	for _, sp := range specs {
		if sp.ID == "" {
			return nil, fmt.Errorf("campaign: trial with empty ID")
		}
		if seen[sp.ID] {
			return nil, fmt.Errorf("campaign: duplicate trial ID %q", sp.ID)
		}
		seen[sp.ID] = true
	}
	r := &runner{cfg: cfg, wd: cfg.Watchdog.withDefaults(), builder: cfg.Builder}
	if r.builder == nil {
		r.builder = BuildSystem
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = 1
	}

	fp, err := gridFingerprint(specs)
	if err != nil {
		return nil, err
	}
	var notes []string
	completed := map[string]TrialOutcome{}
	var jr *journal
	if cfg.JournalPath != "" {
		fsys := cfg.FS
		if fsys == nil {
			fsys = iofault.OS()
		}
		var fromJournal []TrialOutcome
		jr, fromJournal, notes, err = openJournal(fsys, cfg.JournalPath, fp, cfg.Resume)
		if err != nil {
			return nil, err
		}
		for _, out := range fromJournal {
			completed[out.ID] = out
		}
	}

	outcomes := make([]TrialOutcome, len(specs))
	var pending, shadows []int
	for i, sp := range specs {
		out, ok := completed[sp.ID]
		if !ok {
			pending = append(pending, i)
			continue
		}
		outcomes[i] = out
		if shadowEligible(cfg.ShadowFraction, out) {
			shadows = append(shadows, i)
		}
	}

	// Real trials first, shadow re-verifications after: on a drained
	// run, unfinished work beats unfinished double-checking.
	type job struct {
		idx    int
		shadow bool
	}
	jobList := make([]job, 0, len(pending)+len(shadows))
	for _, i := range pending {
		jobList = append(jobList, job{idx: i})
	}
	for _, i := range shadows {
		jobList = append(jobList, job{idx: i, shadow: true})
	}

	// Per-trial-index slots: every job owns its index exclusively, so
	// workers write without locks (the same discipline outcomes uses).
	divSlots := make([]ShadowDivergence, len(specs))
	divHit := make([]bool, len(specs))
	var shadowChecked atomic.Int64

	jobs := make(chan job)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				if j.shadow {
					shadowChecked.Add(1)
					if d, ok := r.shadowCheck(specs[j.idx], outcomes[j.idx]); !ok {
						divSlots[j.idx] = d
						divHit[j.idx] = true
					}
					continue
				}
				out := r.trialWithTimeout(specs[j.idx])
				outcomes[j.idx] = out
				if jr != nil {
					jr.append(out)
				}
				if cfg.OnOutcome != nil {
					cfg.OnOutcome(out)
				}
			}
		}()
	}
	interrupted := false
dispatch:
	for _, jb := range jobList {
		select {
		case jobs <- jb:
		case <-cfg.Stop:
			interrupted = true
			break dispatch
		}
	}
	close(jobs)
	wg.Wait()

	if jr != nil {
		jr.sync()
		if err := jr.close(); err != nil {
			return nil, err
		}
	}

	// A drained run reports only what completed; the zero-valued slots
	// of never-dispatched trials are excluded, so the partial aggregate
	// is itself well-formed (and resumable into the full one).
	present := outcomes
	if interrupted {
		present = present[:0:0]
		for _, out := range outcomes {
			if out.ID != "" {
				present = append(present, out)
			}
		}
	}
	rep := buildReport(present)
	rep.Interrupted = interrupted
	var divs []ShadowDivergence
	for i := range divHit {
		if divHit[i] {
			divs = append(divs, divSlots[i])
		}
	}
	sort.Slice(divs, func(i, j int) bool { return divs[i].ID < divs[j].ID })
	rep.ShadowDivergences = divs
	rep.ShadowChecked = int(shadowChecked.Load())
	rep.Notes = notes
	return rep, nil
}

// shadowEligible reports whether a restored outcome is a shadow-check
// candidate: selection is a deterministic function of the trial ID, so
// which trials get re-verified is reproducible. Wall-clock-hung
// outcomes are excluded — they are the one outcome class that is not a
// pure function of the spec.
func shadowEligible(fraction float64, out TrialOutcome) bool {
	if fraction <= 0 || out.Reason == ReasonWallClock {
		return false
	}
	if fraction >= 1 {
		return true
	}
	h := fnv.New32a()
	_, _ = h.Write([]byte(out.ID)) // fnv.Write cannot fail
	return float64(h.Sum32())/float64(1<<32) < fraction
}

// shadowCheck is the RMT mirror for restored state: re-execute the
// trial from scratch and byte-compare the canonical encodings. ok=false
// carries a structured divergence finding.
func (r *runner) shadowCheck(spec TrialSpec, stored TrialOutcome) (ShadowDivergence, bool) {
	recomputed := r.runTrial(spec)
	a, aerr := json.Marshal(stored)
	b, berr := json.Marshal(recomputed)
	if aerr == nil && berr == nil && bytes.Equal(a, b) {
		return ShadowDivergence{}, true
	}
	return ShadowDivergence{ID: spec.ID, Stored: string(a), Recomputed: string(b)}, false
}

// trialWithTimeout wraps runTrial in the optional host-clock stall
// guard. A trial abandoned here leaks its goroutine by design: there is
// no way to preempt it, and keeping the campaign alive is the point.
func (r *runner) trialWithTimeout(spec TrialSpec) TrialOutcome {
	if r.cfg.StallTimeout <= 0 {
		return r.runTrial(spec)
	}
	ch := make(chan TrialOutcome, 1)
	go func() { ch <- r.runTrial(spec) }()
	//lint:ignore wallclock watchdog driver: the host-clock stall guard is the harness's last resort against a trial the simulated-cycle watchdog cannot bound (e.g. a bug in Step itself); it is opt-in and never fires on well-formed trials
	timer := time.NewTimer(r.cfg.StallTimeout)
	defer timer.Stop()
	select {
	case out := <-ch:
		return out
	case <-timer.C:
		return TrialOutcome{ID: spec.ID, Status: StatusHung, Reason: ReasonWallClock, Attempts: 1}
	}
}

// runTrial runs one trial with the bounded retry policy for hung
// outcomes. The attempt budget is explicit in the loop condition so
// termination is provable: the abandoned trialWithTimeout goroutine
// holding this loop runs at most MaxRetries+1 attempts.
func (r *runner) runTrial(spec TrialSpec) TrialOutcome {
	attempts := r.cfg.MaxRetries + 1
	if attempts < 1 {
		attempts = 1
	}
	var out TrialOutcome
	for attempt := 1; attempt <= attempts; attempt++ {
		s := spec
		s.Config.Seed = spec.Config.Seed + int64(attempt-1)*retrySeedStride
		out = r.runAttempt(s)
		out.ID = spec.ID
		out.Attempts = attempt
		if out.Status != StatusHung {
			return out
		}
	}
	return out
}

// runAttempt builds the system and drives the campaign under the
// watchdog, converting panics into crashed outcomes.
func (r *runner) runAttempt(spec TrialSpec) (out TrialOutcome) {
	defer func() {
		if p := recover(); p != nil {
			out = TrialOutcome{Status: StatusCrashed, Reason: fmt.Sprintf("panic: %v", p)}
		}
	}()
	sys, err := r.builder(spec)
	if err != nil {
		return TrialOutcome{Status: StatusCrashed, Reason: "build: " + err.Error()}
	}
	return RunSupervised(sys, spec.Config, r.wd)
}

// RunSupervised drives one injection campaign over an existing system
// under the forward-progress watchdog, with panic isolation. It is the
// single-trial core of the harness, exported so the r3d facade's
// RunInjection gains the same protections.
func RunSupervised(sys *core.System, cfg fault.CampaignConfig, wd Watchdog) (out TrialOutcome) {
	defer func() {
		if p := recover(); p != nil {
			out = TrialOutcome{Status: StatusCrashed, Reason: fmt.Sprintf("panic: %v", p)}
		}
	}()
	wd = wd.withDefaults()
	camp, err := fault.NewCampaign(sys, cfg)
	if err != nil {
		return TrialOutcome{Status: StatusCrashed, Reason: "config: " + err.Error()}
	}
	hung := func(reason string) TrialOutcome {
		res := camp.Result()
		return TrialOutcome{Status: StatusHung, Reason: reason, HungAtCycle: camp.Cycles(), Result: &res}
	}
	lastProgress := sys.Progress()
	lastAdvance := uint64(0)
	// The watchdog probes on every cycle count that is a multiple of
	// CheckEveryCycles; camp.Cycles() starts at 0, and each Advance runs
	// at most the cycles left to the next probe, so a countdown finds
	// them without a division per cycle.
	probeIn := wd.CheckEveryCycles
	for !camp.Done() {
		if camp.BudgetExhausted() {
			return hung(ReasonCycleBudget)
		}
		if probeIn -= camp.Advance(probeIn); probeIn > 0 {
			continue
		}
		probeIn = wd.CheckEveryCycles
		if p := sys.Progress(); p > lastProgress {
			lastProgress, lastAdvance = p, camp.Cycles()
		} else if camp.Cycles()-lastAdvance >= wd.NoProgressCycles {
			return hung(ReasonNoProgress)
		}
	}
	res := camp.Result()
	return TrialOutcome{Status: StatusOK, Result: &res}
}
