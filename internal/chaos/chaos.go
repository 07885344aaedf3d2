// Package chaos is the deterministic storage-fault chaos harness: it
// drives the campaign harness and the serving daemon over a seeded
// fault lattice (internal/iofault) and asserts the repo's
// crash-consistency contract end to end.
//
// Each scenario is a pure function of its seed. The same seed replays
// the same fault schedule over the same operation sequence, so a
// failure reproduces byte-for-byte — the property that turns a chaos
// finding into a regression test instead of a flake. The invariants
// every scenario enforces mirror the paper's reliability claims at the
// harness layer:
//
//   - no torn state is ever loaded: restores land on a record
//     boundary, never on a fragment;
//   - a restored aggregate is byte-identical to an uninterrupted run —
//     crash-recovery is invisible in the output;
//   - caches and job stores are never poisoned: corruption (bit flips,
//     dropped syncs) is detected and dropped, or refused loudly, never
//     served;
//   - persistent storage failure degrades serving (health flips,
//     compute continues) instead of crashing it, and recovery re-arms.
//
// The package is wallclock-clean like all model code: the only way
// time enters is the injected Sleep hook, which cmd/r3dchaos wires to
// a real sleeper and tests leave nil (spin with yields).
package chaos

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"runtime"

	"r3d/internal/backoff"
	"r3d/internal/campaign"
	"r3d/internal/experiment"
	"r3d/internal/iofault"
	"r3d/internal/serve"
	"r3d/internal/tech"
)

// Options drives one scenario run.
type Options struct {
	// Seed selects the fault schedule, the grid coordinates and the
	// kill points. Everything a scenario does is a deterministic
	// function of it.
	Seed int64
	// Sleep, when non-nil, is called wherever the harness yields while
	// polling asynchronous daemon state, and is handed to the fault
	// lattice for slow-I/O injections. nil polls with scheduler yields
	// and accounts (but does not serve) the latency.
	Sleep func(ns int64)
	// Logf observes scenario progress (nil discards).
	Logf func(format string, args ...any)
}

func (o Options) logf(format string, args ...any) {
	if o.Logf != nil {
		o.Logf(format, args...)
	}
}

// Result is what one scenario hands back for reporting and for the
// determinism cross-check.
type Result struct {
	Scenario string
	Seed     int64
	// Cycles counts run→kill→resume iterations actually executed.
	Cycles int
	// FaultLog is every injected fault in order, one canonical line per
	// fault, prefixed by its cycle. Same seed ⇒ same log, byte for byte.
	FaultLog []string
	// Aggregate is the scenario's canonical output (the campaign report
	// JSON, or the concatenated job results), compared byte-for-byte by
	// the determinism scenario.
	Aggregate []byte
	// Notes records recoveries the scenario observed (torn records
	// truncated, journals refused and dropped).
	Notes []string
}

// Scenario pairs a name with its runner, for sweep drivers.
type Scenario struct {
	Name string
	Run  func(Options) (*Result, error)
}

// Scenarios lists every scenario in sweep order.
func Scenarios() []Scenario {
	return []Scenario{
		{Name: "campaign-crash-resume", Run: CampaignCrashResume},
		{Name: "serve-kill-restore", Run: ServeKillRestore},
		{Name: "serve-degraded", Run: DegradedServing},
		{Name: "campaign-determinism", Run: CampaignDeterminism},
	}
}

// chaosGrid is the small campaign every crash/resume cycle replays:
// three trials whose seeds vary with the chaos seed, heavy enough to
// cross several journal appends, light enough to rerun dozens of times
// per sweep.
func chaosGrid(seed int64) campaign.Grid {
	v := seed % 5
	if v < 0 {
		v += 5
	}
	return campaign.Grid{
		Benches:      []string{"gzip"},
		Seeds:        []int64{1 + v, 101 + v, 201 + v},
		LeadRates:    []float64{40},
		Instructions: 20_000,
		Node:         tech.Node65,
	}
}

// chaosSchedule derives one cycle's fault lattice from the scenario
// rng. Rates stay low enough that the bounded retry layers usually
// absorb them; the crash cliff recedes with each cycle so the campaign
// eventually outruns it.
func chaosSchedule(rng *rand.Rand, seed int64, cycle int) iofault.Schedule {
	return iofault.Schedule{
		Seed:        seed*1_000 + int64(cycle),
		WriteErr:    rng.Float64() * 0.06,
		ShortWrite:  rng.Float64() * 0.04,
		ENOSPC:      rng.Float64() * 0.03,
		BitFlip:     rng.Float64() * 0.02,
		SyncDrop:    rng.Float64() * 0.05,
		RenameErr:   rng.Float64() * 0.03,
		SlowIO:      rng.Float64() * 0.05,
		SlowIONanos: 1_000,
		// A clean run makes nine journal operations (create, header,
		// the first append, its sync, the directory sync of the new
		// file, two more appends, the final sync, close). The crash
		// window starts inside them and recedes five ops per cycle, so
		// early cycles genuinely kill the run and a later one outruns
		// the cliff.
		CrashAtOp: 2 + rng.Int63n(7) + int64(cycle)*5,
	}
}

const (
	campaignJournal = "/campaign/journal.jsonl"
	maxCycles       = 6
)

// CampaignCrashResume runs the campaign grid under escalating fault
// schedules, killing and resuming it until it completes, then asserts
// the final aggregate is byte-identical to an uninterrupted fault-free
// run. Each kill is either a process death (volatile state survives —
// torn journal suffixes included) or a machine crash (everything
// unsynced is lost), chosen deterministically per cycle.
func CampaignCrashResume(opts Options) (*Result, error) {
	res := &Result{Scenario: "campaign-crash-resume", Seed: opts.Seed}
	grid := chaosGrid(opts.Seed)
	specs, err := grid.Trials()
	if err != nil {
		return res, err
	}

	// Baseline: the same grid, uninterrupted, on a clean filesystem.
	baseRep, err := campaign.Run(campaign.Config{
		Workers:     1,
		JournalPath: campaignJournal,
		FS:          iofault.NewMemFS(),
	}, specs)
	if err != nil {
		return res, fmt.Errorf("chaos: baseline campaign: %w", err)
	}
	base, err := baseRep.JSON()
	if err != nil {
		return res, err
	}

	mem := iofault.NewMemFS()
	rng := rand.New(rand.NewSource(opts.Seed))
	for cycle := 0; cycle < maxCycles; cycle++ {
		sched := chaosSchedule(rng, opts.Seed, cycle)
		machineCrash := rng.Float64() < 0.5
		ffs := iofault.NewFaultFS(mem, sched, opts.Sleep)
		rep, runErr := campaign.Run(campaign.Config{
			Workers:     1,
			JournalPath: campaignJournal,
			Resume:      cycle > 0,
			FS:          ffs,
			Stop:        ffs.Crashed(),
		}, specs)
		res.Cycles++
		for _, line := range ffs.LogLines() {
			res.FaultLog = append(res.FaultLog, fmt.Sprintf("cycle=%d %s", cycle, line))
		}
		crashFired := false
		select {
		case <-ffs.Crashed():
			crashFired = true
		default:
		}
		if runErr == nil && !crashFired && !rep.Interrupted {
			// The campaign outran this cycle's crash point: it is complete.
			res.Notes = append(res.Notes, rep.Notes...)
			return res, finishCampaign(res, rep, base, opts)
		}
		if runErr != nil {
			res.Notes = append(res.Notes, fmt.Sprintf("cycle %d died: %v", cycle, runErr))
		} else {
			res.Notes = append(res.Notes, fmt.Sprintf("cycle %d drained after crash (%d/%d trials)", cycle, rep.Summary.Trials, len(specs)))
		}
		if machineCrash {
			mem.Crash()
			res.Notes = append(res.Notes, fmt.Sprintf("cycle %d: machine crash — unsynced state dropped", cycle))
		} else {
			res.Notes = append(res.Notes, fmt.Sprintf("cycle %d: process kill — volatile state survives", cycle))
		}
		opts.logf("chaos: seed %d cycle %d: %d faults injected", opts.Seed, cycle, len(ffs.Log()))
	}

	// Final fault-free resume: whatever the cycles left behind, recovery
	// must complete the grid without loading torn state.
	cleanCfg := campaign.Config{
		Workers:     1,
		JournalPath: campaignJournal,
		Resume:      true,
		FS:          mem,
	}
	rep, runErr := campaign.Run(cleanCfg, specs)
	if runErr != nil {
		// The journal's loud-refusal path: durably corrupted framing (a
		// bit-flipped header a kill made permanent) is detected, never
		// silently replayed. The operator action it demands — a fresh
		// journal path — is modelled by dropping the file; recomputation
		// still converges on the identical aggregate.
		res.Notes = append(res.Notes, fmt.Sprintf("clean resume refused: %v; dropping journal per its recovery contract", runErr))
		if rerr := mem.Remove(campaignJournal); rerr != nil && !os.IsNotExist(rerr) {
			return res, fmt.Errorf("chaos: drop refused journal: %w", rerr)
		}
		if rep, runErr = campaign.Run(cleanCfg, specs); runErr != nil {
			return res, fmt.Errorf("chaos: seed %d: resume still failing on a clean filesystem: %w", opts.Seed, runErr)
		}
	}
	if rep.Interrupted {
		return res, fmt.Errorf("chaos: seed %d: fault-free resume reported interrupted", opts.Seed)
	}
	res.Notes = append(res.Notes, rep.Notes...)
	return res, finishCampaign(res, rep, base, opts)
}

// finishCampaign records the final aggregate and enforces the central
// invariant: recovery is invisible in the output.
func finishCampaign(res *Result, rep *campaign.Report, base []byte, opts Options) error {
	got, err := rep.JSON()
	if err != nil {
		return err
	}
	res.Aggregate = got
	if !bytes.Equal(got, base) {
		return fmt.Errorf("chaos: seed %d: resumed aggregate diverges from the uninterrupted baseline (%d vs %d bytes)", opts.Seed, len(got), len(base))
	}
	opts.logf("chaos: seed %d: aggregate byte-identical to baseline after %d cycle(s)", opts.Seed, res.Cycles)
	return nil
}

// serveTier is the single cheap tier every serve scenario configures.
func serveTier() []serve.Tier {
	return []serve.Tier{{Name: "fast", Quality: experiment.Quality{
		WarmupInsts:  5_000,
		MeasureInsts: 10_000,
		Benchmarks:   []string{"gzip"},
		ThermalTolC:  1e-3, ThermalMaxIters: 10_000,
		Seed: 42,
	}}}
}

// jobRecord is one live job's identity and result bytes, kept for the
// post-restore byte-identity check.
type jobRecord struct {
	id   string
	body []byte
	ct   string
}

// runServeJob submits one single-trial campaign job and waits for it to
// finish, returning its result bytes.
func runServeJob(s *serve.Server, seed int64, client string) (jobRecord, error) {
	grid := chaosGrid(seed)
	grid.Seeds = grid.Seeds[:1] // one trial per job keeps the sweep quick
	sub, serr := s.Submit(serve.Submission{Kind: serve.KindCampaign, Grid: &grid}, client)
	if serr != nil {
		return jobRecord{}, fmt.Errorf("chaos: submit: %v", serr)
	}
	j, ok := s.JobByID(sub.Job.ID)
	if !ok {
		return jobRecord{}, fmt.Errorf("chaos: job %s vanished after admission", sub.Job.ID)
	}
	<-j.Done()
	st := j.Status()
	if st.State != serve.StateDone {
		return jobRecord{}, fmt.Errorf("chaos: job %s finished %s (%s), want done — storage faults must never fail compute", j.ID, st.State, st.Error)
	}
	body, ct, ok := j.Result()
	if !ok {
		return jobRecord{}, fmt.Errorf("chaos: job %s done without a result body", j.ID)
	}
	return jobRecord{id: j.ID, body: body, ct: ct}, nil
}

// checkRestored asserts every live job is present on the restored
// server with byte-identical result bytes.
func checkRestored(s *serve.Server, live []jobRecord) error {
	for _, want := range live {
		j, ok := s.JobByID(want.id)
		if !ok {
			return fmt.Errorf("chaos: restored server lost job %s", want.id)
		}
		st := j.Status()
		if st.State != serve.StateDone || !st.Restored {
			return fmt.Errorf("chaos: restored job %s: state %s restored=%v", want.id, st.State, st.Restored)
		}
		body, ct, ok := j.Result()
		if !ok {
			return fmt.Errorf("chaos: restored job %s has no result body", want.id)
		}
		if !bytes.Equal(body, want.body) || ct != want.ct {
			return fmt.Errorf("chaos: restored job %s result diverges from the live run (%d vs %d bytes)", want.id, len(body), len(want.body))
		}
	}
	return nil
}

// ServeKillRestore runs the daemon over a flaky (transient-fault)
// device, completes a handful of jobs, heals the device for the final
// drain, machine-crashes the store, and asserts a restored daemon
// serves every job byte-identically.
func ServeKillRestore(opts Options) (*Result, error) {
	res := &Result{Scenario: "serve-kill-restore", Seed: opts.Seed}
	rng := rand.New(rand.NewSource(opts.Seed ^ 0x7365727665)) // "serve"
	mem := iofault.NewMemFS()
	sched := iofault.Schedule{
		Seed:        opts.Seed,
		WriteErr:    rng.Float64() * 0.03,
		ShortWrite:  rng.Float64() * 0.02,
		ENOSPC:      rng.Float64() * 0.02,
		BitFlip:     rng.Float64() * 0.01,
		SyncDrop:    rng.Float64() * 0.03,
		RenameErr:   rng.Float64() * 0.02,
		SlowIO:      rng.Float64() * 0.03,
		SlowIONanos: 1_000,
	}
	ffs := iofault.NewFaultFS(mem, sched, opts.Sleep)
	s, err := serve.New(serve.Options{
		Tiers:        serveTier(),
		StatePath:    "/state",
		FS:           ffs,
		PersistRetry: backoff.Policy{Attempts: 6, Seed: opts.Seed},
	})
	if err != nil {
		return res, err
	}

	var live []jobRecord
	for i := 0; i < 3; i++ {
		rec, err := runServeJob(s, opts.Seed*10+int64(i), fmt.Sprintf("chaos-%d", i))
		if err != nil {
			return res, err
		}
		live = append(live, rec)
	}

	// The device recovers before shutdown; the drain's full-budget final
	// persist must land everything durably.
	ffs.Heal()
	s.Drain()
	res.FaultLog = ffs.LogLines()
	mem.Crash()
	if _, ok := mem.Durable("/state/jobs.ckpt"); !ok {
		return res, fmt.Errorf("chaos: seed %d: job store not durable after healed drain", opts.Seed)
	}

	s2, err := serve.New(serve.Options{
		Tiers:     serveTier(),
		StatePath: "/state",
		FS:        mem,
		Restore:   true,
	})
	if err != nil {
		return res, fmt.Errorf("chaos: seed %d: restore after crash: %w", opts.Seed, err)
	}
	defer s2.Drain()
	if err := checkRestored(s2, live); err != nil {
		return res, fmt.Errorf("seed %d: %w", opts.Seed, err)
	}
	for _, rec := range live {
		res.Aggregate = append(res.Aggregate, rec.body...)
	}
	opts.logf("chaos: seed %d: %d jobs restored byte-identically through %d faults", opts.Seed, len(live), len(res.FaultLog))
	return res, nil
}

// waitPersistState polls the daemon's persister until it reports the
// wanted degraded state, yielding through the injected sleeper (or the
// scheduler, when none is wired).
func waitPersistState(s *serve.Server, opts Options, degraded bool) error {
	limit := 5_000_000
	if opts.Sleep != nil {
		limit = 20_000
	}
	for i := 0; i < limit; i++ {
		if s.PersistenceDegraded() == degraded {
			return nil
		}
		if opts.Sleep != nil {
			opts.Sleep(1_000_000) // 1ms between probes
		} else {
			runtime.Gosched()
		}
	}
	return fmt.Errorf("chaos: seed %d: persistence never became degraded=%v", opts.Seed, degraded)
}

// DegradedServing kills the storage device outright mid-flight and
// asserts the failure-degraded serving contract: health flips to
// degraded, compute continues, healing re-arms persistence, and the
// post-heal state restores completely.
func DegradedServing(opts Options) (*Result, error) {
	res := &Result{Scenario: "serve-degraded", Seed: opts.Seed}
	failAt := opts.Seed % 8
	if failAt < 0 {
		failAt += 8
	}
	mem := iofault.NewMemFS()
	ffs := iofault.NewFaultFS(mem, iofault.Schedule{Seed: opts.Seed, FailWritesFrom: 1 + failAt}, opts.Sleep)
	s, err := serve.New(serve.Options{
		Tiers:        serveTier(),
		StatePath:    "/state",
		FS:           ffs,
		PersistRetry: backoff.Policy{Attempts: 2, Seed: opts.Seed},
	})
	if err != nil {
		return res, err
	}

	// Job 1 completes; persisting it exhausts the retry budget against
	// the dead device and degrades the daemon.
	rec1, err := runServeJob(s, opts.Seed*10, "chaos-a")
	if err != nil {
		return res, err
	}
	if err := waitPersistState(s, opts, true); err != nil {
		return res, err
	}
	if h := s.HealthSnapshot(); h.Status != "degraded" || h.Persistence != "degraded" {
		return res, fmt.Errorf("chaos: seed %d: health %s/%s under a dead device, want degraded/degraded", opts.Seed, h.Status, h.Persistence)
	}

	// Compute must continue while degraded.
	rec2, err := runServeJob(s, opts.Seed*10+1, "chaos-b")
	if err != nil {
		return res, fmt.Errorf("degraded daemon stopped computing: %w", err)
	}

	// Heal; the next successful checkpoint re-arms persistence.
	ffs.Heal()
	rec3, err := runServeJob(s, opts.Seed*10+2, "chaos-c")
	if err != nil {
		return res, err
	}
	if err := waitPersistState(s, opts, false); err != nil {
		return res, fmt.Errorf("persistence never re-armed after heal: %w", err)
	}
	if h := s.HealthSnapshot(); h.Status != "ok" || h.Persistence != "ok" {
		return res, fmt.Errorf("chaos: seed %d: health %s/%s after heal, want ok/ok", opts.Seed, h.Status, h.Persistence)
	}

	s.Drain()
	res.FaultLog = ffs.LogLines()
	mem.Crash()
	s2, err := serve.New(serve.Options{
		Tiers:     serveTier(),
		StatePath: "/state",
		FS:        mem,
		Restore:   true,
	})
	if err != nil {
		return res, fmt.Errorf("chaos: seed %d: restore after degraded episode: %w", opts.Seed, err)
	}
	defer s2.Drain()
	live := []jobRecord{rec1, rec2, rec3}
	if err := checkRestored(s2, live); err != nil {
		return res, fmt.Errorf("seed %d: %w", opts.Seed, err)
	}
	for _, rec := range live {
		res.Aggregate = append(res.Aggregate, rec.body...)
	}
	opts.logf("chaos: seed %d: degraded at op %d, re-armed after heal, all jobs restored", opts.Seed, 1+failAt)
	return res, nil
}

// CampaignDeterminism runs the crash/resume scenario twice with the
// same seed and asserts the two runs match byte-for-byte: the same
// faults at the same operations, and the same final aggregate. This is
// the regression guard on the harness's own reproducibility — a chaos
// failure that cannot be replayed is a flake, not a finding.
func CampaignDeterminism(opts Options) (*Result, error) {
	a, err := CampaignCrashResume(opts)
	if err != nil {
		return a, err
	}
	b, err := CampaignCrashResume(opts)
	if err != nil {
		return b, err
	}
	if len(a.FaultLog) != len(b.FaultLog) {
		return a, fmt.Errorf("chaos: seed %d: fault logs diverge across same-seed runs (%d vs %d faults)", opts.Seed, len(a.FaultLog), len(b.FaultLog))
	}
	for i := range a.FaultLog {
		if a.FaultLog[i] != b.FaultLog[i] {
			return a, fmt.Errorf("chaos: seed %d: fault %d diverges across same-seed runs:\n  first:  %s\n  second: %s", opts.Seed, i, a.FaultLog[i], b.FaultLog[i])
		}
	}
	if !bytes.Equal(a.Aggregate, b.Aggregate) {
		return a, fmt.Errorf("chaos: seed %d: aggregates diverge across same-seed runs", opts.Seed)
	}
	res := &Result{
		Scenario:  "campaign-determinism",
		Seed:      opts.Seed,
		Cycles:    a.Cycles + b.Cycles,
		FaultLog:  a.FaultLog,
		Aggregate: a.Aggregate,
		Notes:     []string{fmt.Sprintf("two same-seed runs: %d identical faults, identical %d-byte aggregate", len(a.FaultLog), len(a.Aggregate))},
	}
	return res, nil
}
