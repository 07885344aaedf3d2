// Package serve is the simulation daemon behind cmd/r3dserve: an
// HTTP/JSON front end that lets many concurrent clients submit
// experiment-prefetch and fault-campaign jobs against one shared,
// content-addressed result cache (the experiment session engine plus a
// persisted job store).
//
// The package is built around the repo's robustness discipline:
//
//   - admission control — a hard bound on in-flight jobs plus a
//     per-client token bucket; rejected submissions get HTTP 429 with a
//     Retry-After hint, and accepted jobs are never dropped;
//   - idempotent submission — a job's ID is a fingerprint of its
//     effective content, so duplicate POSTs (including concurrent ones)
//     join the in-flight or completed job instead of recomputing it;
//   - graceful degradation — when the queue is deep, experiment
//     requests are downgraded one quality tier; the response marks the
//     downgrade, and the degraded job is shared with explicit requests
//     for the cheaper tier;
//   - per-request deadlines — an expired job drains at its natural
//     grain (trials, window chunks): in-flight work finishes and
//     commits into the shared caches, so the memo state is never
//     poisoned by a cancelled request;
//   - crash safety — completed jobs and the per-tier window caches
//     persist through internal/ckpt; a SIGKILLed daemon restarted with
//     -restore serves previously computed results byte-identically;
//   - clean drain — Drain cancels queued jobs, drains running ones at
//     trial granularity, flushes the final checkpoint and returns, so
//     SIGTERM exits 0 with nothing torn.
//
// Like all model code, the package never reads the host clock: time
// enters through an injected Clock, which tests replace with a manual
// one to make admission and deadline behaviour reproducible.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"path/filepath"
	"sync"

	"r3d/internal/backoff"
	"r3d/internal/campaign"
	"r3d/internal/ckpt"
	"r3d/internal/experiment"
	"r3d/internal/iofault"
	"r3d/internal/runsched"
)

// Clock supplies the daemon's only notion of time. Now returns
// monotonic nanoseconds; After returns a channel that fires once after
// ns nanoseconds. A zero Clock freezes time: deadlines and long-poll
// timeouts never fire, and the rate limiter never refills.
type Clock struct {
	Now   func() int64
	After func(ns int64) <-chan struct{}
}

func (c Clock) withDefaults() Clock {
	if c.Now == nil {
		c.Now = func() int64 { return 0 }
	}
	if c.After == nil {
		c.After = func(int64) <-chan struct{} { return nil } // nil channel: never fires
	}
	return c
}

// Tier is one configured quality level. Options.Tiers lists them
// cheapest first; degradation steps a request one tier toward the
// front.
type Tier struct {
	Name    string
	Quality experiment.Quality
}

// Options configures a Server.
type Options struct {
	// Tiers lists the quality tiers the daemon serves, cheapest first.
	// At least one is required. Experiment submissions name a tier (""
	// selects the cheapest); each tier is backed by its own session and
	// persisted window cache.
	Tiers []Tier
	// QueueBound caps admitted-but-unfinished jobs (≤0 selects
	// DefaultQueueBound). The QueueBound+1-th concurrent submission is
	// rejected with 429 and a Retry-After hint.
	QueueBound int
	// DegradeDepth is the in-flight depth at which experiment requests
	// degrade one tier cheaper (0 selects QueueBound/2, minimum 1; <0
	// disables degradation).
	DegradeDepth int
	// JobWorkers bounds concurrently executing jobs (≤0 selects 1).
	JobWorkers int
	// TrialWorkers is the per-job pool width handed to the campaign
	// harness and the session engines (≤0 selects 1).
	TrialWorkers int
	// RatePerSec/Burst shape the per-client token bucket (RatePerSec ≤ 0
	// disables rate limiting).
	RatePerSec float64
	Burst      int
	// MaxTrialsPerJob rejects grids that expand past this many trials
	// with 413 (0 = unlimited).
	MaxTrialsPerJob int
	// DefaultDeadlineNS applies when a submission carries no deadline
	// (0 = no deadline).
	DefaultDeadlineNS int64
	// RetryAfterSec is the Retry-After hint for queue-full rejections
	// (≤0 selects 1). Rate-limit rejections compute their own from
	// bucket refill math.
	RetryAfterSec int64
	// ShadowFraction re-verifies that fraction of session cache hits
	// from scratch; divergences flip /healthz to degraded.
	ShadowFraction float64
	// Clock drives deadlines, long-poll timeouts and the rate limiter.
	Clock Clock
	// SessionClock feeds the session engines' ComputeNanos counters
	// (nil zeroes them).
	SessionClock func() int64
	// StatePath is the directory holding the job store and per-tier
	// window caches ("" disables persistence).
	StatePath string
	// Restore preloads the job store and window caches from StatePath
	// before serving. A store written under different tiers or an
	// incompatible build fails loudly.
	Restore bool
	// FS is the filesystem the job store and window caches go through
	// (nil selects the real filesystem; the chaos harness injects a
	// seeded fault lattice here).
	FS iofault.FS
	// PersistRetry is the persister's retry policy against transient
	// storage faults (zero value selects DefaultPersistRetry). When the
	// budget is exhausted the daemon flips /healthz persistence to
	// degraded and keeps computing; the next successful checkpoint
	// re-arms it.
	PersistRetry backoff.Policy
	// MaxRetries / Watchdog pass through to the campaign harness.
	MaxRetries int
	Watchdog   campaign.Watchdog
	// Builder overrides campaign system construction (tests).
	Builder campaign.SystemBuilder
	// Logf receives operational notes (nil discards them).
	Logf func(format string, args ...any)
}

// DefaultQueueBound bounds admitted-but-unfinished jobs when Options
// leaves QueueBound zero.
const DefaultQueueBound = 64

// DefaultPersistRetry is the persister's retry policy when Options
// leaves PersistRetry zero: a handful of attempts with capped
// exponential delays (slept through the injected Clock, so a zero
// Clock retries immediately). Transient storage faults are absorbed
// here; anything that outlasts the budget degrades persistence.
var DefaultPersistRetry = backoff.Policy{Attempts: 4, BaseNS: 50_000_000, CapNS: 1_000_000_000}

// Counters are the monotonically increasing admission and completion
// totals reported by /statsz.
type Counters struct {
	Submitted       int64 `json:"submitted"`
	Accepted        int64 `json:"accepted"`
	JoinedInflight  int64 `json:"joined_inflight"`
	JoinedDone      int64 `json:"joined_done"`
	RejectedQueue   int64 `json:"rejected_queue"`
	RejectedRate    int64 `json:"rejected_rate"`
	RejectedDrain   int64 `json:"rejected_draining"`
	RejectedInvalid int64 `json:"rejected_invalid"`
	Degraded        int64 `json:"degraded"`
	Completed       int64 `json:"completed"`
	Failed          int64 `json:"failed"`
	Expired         int64 `json:"expired"`
	Canceled        int64 `json:"canceled"`
}

// StatusError is a submission rejection with its HTTP mapping.
type StatusError struct {
	Code          int
	Msg           string
	RetryAfterSec int64
}

func (e *StatusError) Error() string { return e.Msg }

// SubmitResult is the response body of POST /api/v1/jobs. Degraded and
// RequestedQuality are per-request: the job itself is shared and
// carries only its effective quality.
type SubmitResult struct {
	Job              JobStatus `json:"job"`
	RequestedQuality string    `json:"requested_quality,omitempty"`
	Degraded         bool      `json:"degraded,omitempty"`
	Joined           bool      `json:"joined,omitempty"`
}

// Server is the daemon state: per-tier sessions, the job table, and the
// admission bookkeeping. Create with New, stop with Drain.
type Server struct {
	opts     Options
	clock    Clock
	fsys     iofault.FS // immutable after New
	tiers    []Tier
	sessions map[string]*experiment.Session // immutable after New
	limiter  *limiter

	dispatch  chan string   // job IDs awaiting a worker
	persistCh chan struct{} // coalesced persistence pokes
	drainCh   chan struct{} // closed when Drain finishes; unblocks long-polls

	wg        sync.WaitGroup
	persistWG sync.WaitGroup

	// The persister's state. Only restore (before the persister starts)
	// and persistAll touch it, and persistAll runs on the persister
	// goroutine or, after that goroutine has exited, in Drain.
	//
	// store is the open job store (nil until a restore opens it or the
	// first append creates it), and finished[:stored] are the jobs whose
	// records it holds. cacheSaved maps a tier to its session's count of
	// committed windows at the tier's last successful cache save (no
	// entry: never saved).
	store      *ckpt.Log
	stored     int
	cacheSaved map[string]int

	mu sync.Mutex
	// r3dlint:guardedby mu
	jobs map[string]*Job
	// finished lists the done jobs, restored ones first, in the order
	// they finished; the job store holds their records in that order.
	//
	// r3dlint:guardedby mu
	finished []*Job
	// r3dlint:guardedby mu
	inflight int // admitted jobs not yet terminal
	// r3dlint:guardedby mu
	draining bool
	// r3dlint:guardedby mu
	persistDegraded bool // persistence exhausted its retries; compute continues
	// r3dlint:guardedby mu
	counters Counters
}

// New builds and starts a server: sessions per tier, optional restore
// from StatePath, JobWorkers workers and one persister goroutine.
func New(opts Options) (*Server, error) {
	if len(opts.Tiers) == 0 {
		return nil, fmt.Errorf("serve: at least one quality tier is required")
	}
	if opts.QueueBound <= 0 {
		opts.QueueBound = DefaultQueueBound
	}
	if opts.JobWorkers <= 0 {
		opts.JobWorkers = 1
	}
	if opts.TrialWorkers <= 0 {
		opts.TrialWorkers = 1
	}
	if opts.DegradeDepth == 0 {
		opts.DegradeDepth = opts.QueueBound / 2
		if opts.DegradeDepth < 1 {
			opts.DegradeDepth = 1
		}
	}
	if opts.RetryAfterSec <= 0 {
		opts.RetryAfterSec = 1
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	if opts.FS == nil {
		opts.FS = iofault.OS()
	}
	if opts.PersistRetry == (backoff.Policy{}) {
		opts.PersistRetry = DefaultPersistRetry
	}
	seen := map[string]bool{}
	for _, t := range opts.Tiers {
		if t.Name == "" {
			return nil, fmt.Errorf("serve: tier with empty name")
		}
		if seen[t.Name] {
			return nil, fmt.Errorf("serve: duplicate tier %q", t.Name)
		}
		seen[t.Name] = true
	}

	s := &Server{
		opts:       opts,
		clock:      opts.Clock.withDefaults(),
		fsys:       opts.FS,
		tiers:      opts.Tiers,
		sessions:   make(map[string]*experiment.Session, len(opts.Tiers)),
		limiter:    newLimiter(opts.RatePerSec, opts.Burst),
		dispatch:   make(chan string, opts.QueueBound),
		persistCh:  make(chan struct{}, 1),
		drainCh:    make(chan struct{}),
		cacheSaved: make(map[string]int, len(opts.Tiers)),
		jobs:       make(map[string]*Job),
	}
	for _, t := range opts.Tiers {
		s.sessions[t.Name] = experiment.NewSessionWith(t.Quality, experiment.SessionOptions{
			Workers:        opts.TrialWorkers,
			Clock:          opts.SessionClock,
			ShadowFraction: opts.ShadowFraction,
		})
	}
	if opts.Restore && opts.StatePath != "" {
		if err := s.restore(); err != nil {
			return nil, err
		}
	}
	for i := 0; i < opts.JobWorkers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	s.persistWG.Add(1)
	go s.persister()
	return s, nil
}

// tierIndex resolves a tier name ("" = cheapest) to its position.
func (s *Server) tierIndex(name string) (int, bool) {
	if name == "" {
		return 0, true
	}
	for i, t := range s.tiers {
		if t.Name == name {
			return i, true
		}
	}
	return 0, false
}

// countInvalid records a validation rejection.
func (s *Server) countInvalid() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.counters.Submitted++
	s.counters.RejectedInvalid++
}

// Submit runs the full admission pipeline for one client request:
// validation, rate limiting, drain refusal, load-shed degradation,
// idempotent join, queue bound, and finally job creation + dispatch.
func (s *Server) Submit(sub Submission, client string) (SubmitResult, *StatusError) {
	// Validation, outside any lock.
	var trialCount int
	switch sub.Kind {
	case KindCampaign:
		if sub.Grid == nil {
			s.countInvalid()
			return SubmitResult{}, &StatusError{Code: 400, Msg: "campaign submission requires a grid"}
		}
		if sub.Experiment != "" || sub.Quality != "" {
			s.countInvalid()
			return SubmitResult{}, &StatusError{Code: 400, Msg: "campaign submission must not set experiment or quality"}
		}
		specs, err := sub.Grid.Trials()
		if err != nil {
			s.countInvalid()
			return SubmitResult{}, &StatusError{Code: 400, Msg: err.Error()}
		}
		trialCount = len(specs)
		if s.opts.MaxTrialsPerJob > 0 && trialCount > s.opts.MaxTrialsPerJob {
			s.countInvalid()
			return SubmitResult{}, &StatusError{Code: 413, Msg: fmt.Sprintf("grid expands to %d trials; limit is %d", trialCount, s.opts.MaxTrialsPerJob)}
		}
	case KindExperiment:
		if sub.Experiment == "" {
			s.countInvalid()
			return SubmitResult{}, &StatusError{Code: 400, Msg: "experiment submission requires an experiment name"}
		}
		if sub.Grid != nil {
			s.countInvalid()
			return SubmitResult{}, &StatusError{Code: 400, Msg: "experiment submission must not carry a grid"}
		}
		if _, ok := experiment.Find(sub.Experiment); !ok {
			s.countInvalid()
			return SubmitResult{}, &StatusError{Code: 400, Msg: fmt.Sprintf("unknown experiment %q", sub.Experiment)}
		}
		if _, ok := s.tierIndex(sub.Quality); !ok {
			s.countInvalid()
			return SubmitResult{}, &StatusError{Code: 400, Msg: fmt.Sprintf("unknown quality tier %q", sub.Quality)}
		}
	default:
		s.countInvalid()
		return SubmitResult{}, &StatusError{Code: 400, Msg: fmt.Sprintf("unknown job kind %q (want %q or %q)", sub.Kind, KindCampaign, KindExperiment)}
	}

	// Rate limit before touching server state: a throttled client never
	// contends on s.mu.
	if ok, retry := s.limiter.allow(client, s.clock.Now()); !ok {
		s.mu.Lock()
		s.counters.Submitted++
		s.counters.RejectedRate++
		s.mu.Unlock()
		return SubmitResult{}, &StatusError{Code: 429, Msg: "rate limit exceeded", RetryAfterSec: retry}
	}

	deadline := sub.DeadlineMS * 1e6
	if deadline == 0 {
		deadline = s.opts.DefaultDeadlineNS
	}

	requested := sub.Quality
	if sub.Kind == KindExperiment && requested == "" {
		requested = s.tiers[0].Name
	}

	s.mu.Lock()
	s.counters.Submitted++
	if s.draining {
		s.counters.RejectedDrain++
		s.mu.Unlock()
		return SubmitResult{}, &StatusError{Code: 503, Msg: "server is draining", RetryAfterSec: s.opts.RetryAfterSec}
	}

	// Load shedding: a deep queue degrades experiment requests one tier
	// cheaper. The fingerprint is taken after degradation, so a degraded
	// request shares the cheaper tier's job.
	effective := requested
	degraded := false
	if sub.Kind == KindExperiment && s.opts.DegradeDepth > 0 && s.inflight >= s.opts.DegradeDepth {
		if idx, _ := s.tierIndex(requested); idx > 0 {
			effective = s.tiers[idx-1].Name
			degraded = true
		}
	}

	id, err := jobID(sub.Kind, sub.Experiment, effective, sub.Grid)
	if err != nil {
		s.counters.RejectedInvalid++
		s.mu.Unlock()
		return SubmitResult{}, &StatusError{Code: 400, Msg: err.Error()}
	}

	if j, ok := s.jobs[id]; ok {
		switch j.snapshot().State {
		case StateFailed, StateExpired, StateCanceled:
			// A terminal job with nothing to serve does not capture its
			// fingerprint forever: the resubmission re-admits below,
			// replacing the table entry.
		default:
			// Idempotent join: the duplicate rides the existing job. Its
			// own deadline does not apply — the creator's does.
			select {
			case <-j.doneCh:
				s.counters.JoinedDone++
			default:
				s.counters.JoinedInflight++
			}
			if degraded {
				s.counters.Degraded++
			}
			s.mu.Unlock()
			return SubmitResult{Job: j.snapshot(), RequestedQuality: requested, Degraded: degraded, Joined: true}, nil
		}
	}

	if s.inflight >= s.opts.QueueBound {
		s.counters.RejectedQueue++
		s.mu.Unlock()
		return SubmitResult{}, &StatusError{Code: 429, Msg: "admission queue is full", RetryAfterSec: s.opts.RetryAfterSec}
	}

	j := newJob(id, sub, effective, deadline)
	s.jobs[id] = j
	s.inflight++
	s.counters.Accepted++
	if degraded {
		s.counters.Degraded++
	}
	select {
	case s.dispatch <- id:
	default:
		// Unreachable: dispatch capacity equals QueueBound and inflight
		// was below it. Fail the job rather than block under the lock.
		delete(s.jobs, id)
		s.inflight--
		s.counters.Accepted--
		s.counters.RejectedQueue++
		s.mu.Unlock()
		return SubmitResult{}, &StatusError{Code: 429, Msg: "admission queue is full", RetryAfterSec: s.opts.RetryAfterSec}
	}
	s.mu.Unlock()

	if deadline > 0 {
		after := s.clock.After(deadline)
		go func() {
			select {
			case <-after:
				j.interrupt("deadline")
			case <-j.doneCh:
			}
		}()
	}
	return SubmitResult{Job: j.snapshot(), RequestedQuality: requested, Degraded: degraded}, nil
}

// JobByID returns the job table entry for id.
func (s *Server) JobByID(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// worker executes dispatched jobs until the dispatch channel closes.
//
// r3dlint:daemon lives until Shutdown closes dispatch; joined through the s.wg field, which spawner-scoped join proofs cannot see
func (s *Server) worker() {
	defer s.wg.Done()
	for id := range s.dispatch {
		j, ok := s.JobByID(id)
		if !ok {
			continue
		}
		if !j.begin() {
			continue // cancelled while queued; Drain finalized it
		}
		s.execute(j)
	}
}

// execute runs one job to a terminal state.
func (s *Server) execute(j *Job) {
	switch j.Kind {
	case KindCampaign:
		s.executeCampaign(j)
	case KindExperiment:
		s.executeExperiment(j)
	default:
		s.finalize(j, StateFailed, nil, "", fmt.Sprintf("unknown job kind %q", j.Kind))
	}
}

// executeCampaign drives one fault-campaign grid through the hardened
// harness. The job's stop channel maps onto the harness drain: closing
// it finishes in-flight trials and commits them, never tearing state.
func (s *Server) executeCampaign(j *Job) {
	specs, err := j.Grid.Trials()
	if err != nil {
		s.finalize(j, StateFailed, nil, "", err.Error())
		return
	}
	j.setTotal(len(specs))
	rep, err := campaign.Run(campaign.Config{
		Workers:    s.opts.TrialWorkers,
		MaxRetries: s.opts.MaxRetries,
		Watchdog:   s.opts.Watchdog,
		Stop:       j.stop,
		Builder:    s.opts.Builder,
		OnOutcome:  func(campaign.TrialOutcome) { j.noteProgress(1) },
	}, specs)
	if err != nil {
		s.finalize(j, StateFailed, nil, "", err.Error())
		return
	}
	if rep.Interrupted {
		s.finalizeInterrupted(j)
		return
	}
	body, err := rep.JSON()
	if err != nil {
		s.finalize(j, StateFailed, nil, "", err.Error())
		return
	}
	s.finalize(j, StateDone, body, "application/json", "")
}

// executeExperiment prefetches the experiment's manifest in chunks
// (each chunk a cancellable batch over the shared session) and then
// renders it. Deadlines drain at chunk granularity: finished windows
// stay committed in the shared memo cache for the next request.
func (s *Server) executeExperiment(j *Job) {
	sess := s.sessions[j.Quality]
	exp, ok := experiment.Find(j.Experiment)
	if !ok {
		s.finalize(j, StateFailed, nil, "", fmt.Sprintf("unknown experiment %q", j.Experiment))
		return
	}
	var manifest []experiment.RunKey
	if exp.Manifest != nil {
		manifest = exp.Manifest(sess.Q)
	}
	j.setTotal(len(manifest))
	chunk := 2 * s.opts.TrialWorkers
	if chunk < 8 {
		chunk = 8
	}
	for start := 0; start < len(manifest); start += chunk {
		end := start + chunk
		if end > len(manifest) {
			end = len(manifest)
		}
		if err := sess.PrefetchUntil(manifest[start:end], j.stop); err != nil {
			if errors.Is(err, runsched.ErrInterrupted) {
				s.finalizeInterrupted(j)
				return
			}
			s.finalize(j, StateFailed, nil, "", err.Error())
			return
		}
		j.noteProgress(end - start)
	}
	if reason := j.interruptReason(); reason != "" {
		// Stopped between chunks (or manifest-free): don't start a
		// render that can no longer be cancelled.
		s.finalizeInterrupted(j)
		return
	}
	res, err := exp.Run(sess, s.opts.TrialWorkers)
	if err != nil {
		s.finalize(j, StateFailed, nil, "", err.Error())
		return
	}
	s.finalize(j, StateDone, []byte(res.String()), "text/plain; charset=utf-8", "")
}

// finalizeInterrupted maps a drained job onto its terminal state by
// interrupt reason: deadline → expired, drain → canceled.
func (s *Server) finalizeInterrupted(j *Job) {
	reason := j.interruptReason()
	if reason == "deadline" {
		s.finalize(j, StateExpired, nil, "", "deadline exceeded; completed work remains cached")
		return
	}
	s.finalize(j, StateCanceled, nil, "", "canceled: "+reason)
}

// finalize commits a job's terminal state exactly once, releases its
// admission slot, and pokes the persister.
func (s *Server) finalize(j *Job, state string, result []byte, contentType, errMsg string) {
	prev := j.setTerminal(state, result, contentType, errMsg)
	if prev != StateQueued && prev != StateRunning {
		return // lost the race to another finalizer; bookkeeping already done
	}
	s.mu.Lock()
	s.inflight--
	switch state {
	case StateDone:
		s.counters.Completed++
		s.finished = append(s.finished, j)
	case StateFailed:
		s.counters.Failed++
	case StateExpired:
		s.counters.Expired++
	case StateCanceled:
		s.counters.Canceled++
	}
	s.mu.Unlock()
	s.pokePersist()
}

// pokePersist schedules a persistence pass; pokes coalesce while one is
// running.
func (s *Server) pokePersist() {
	select {
	case s.persistCh <- struct{}{}:
	default:
	}
}

// persister is the single goroutine that owns all checkpoint I/O, so no
// lock is ever held across a file write.
//
// r3dlint:daemon lives until Shutdown closes persistCh; joined through the s.persistWG field, which spawner-scoped join proofs cannot see
func (s *Server) persister() {
	defer s.persistWG.Done()
	for range s.persistCh {
		s.persistOnce()
	}
}

// retrySleep waits ns nanoseconds through the injected clock; a zero
// Clock (After returns nil) retries immediately, keeping tests and
// in-process chaos runs wallclock-free.
func (s *Server) retrySleep(ns int64) {
	if ch := s.clock.After(ns); ch != nil {
		<-ch
	}
}

// persistOnce is one persistence pass under the failure-degraded
// contract: transient faults retry within PersistRetry's budget;
// exhaustion flips persistence to degraded — the daemon keeps computing
// and serving, it just stops promising durability — and each later poke
// makes one cheap probe, so the first checkpoint that lands re-arms
// full persistence.
func (s *Server) persistOnce() {
	policy := s.opts.PersistRetry
	s.mu.Lock()
	wasDegraded := s.persistDegraded
	s.mu.Unlock()
	if wasDegraded {
		policy = backoff.Policy{Attempts: 1}
	}
	err := backoff.Retry(policy, s.retrySleep, func() error { return s.persistAll(false) })
	s.mu.Lock()
	s.persistDegraded = err != nil
	s.mu.Unlock()
	switch {
	case err != nil && !wasDegraded:
		s.opts.Logf("serve: persist: %v — persistence degraded, compute continues", err)
	case err != nil:
		s.opts.Logf("serve: persist still failing: %v", err)
	case wasDegraded:
		s.opts.Logf("serve: persist succeeded — persistence re-armed")
	}
}

// PersistenceDegraded reports whether the persister has exhausted its
// retries without a successful checkpoint since.
func (s *Server) PersistenceDegraded() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.persistDegraded
}

// Drain stops the server gracefully: refuse new submissions, cancel
// queued jobs, drain running jobs at trial/window granularity, wait for
// workers, and commit a final checkpoint. It is idempotent and blocks
// until the drain completes.
func (s *Server) Drain() {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		<-s.drainCh
		return
	}
	s.draining = true
	live := make([]*Job, 0, len(s.jobs))
	//lint:ignore maporder collection loop; the jobs are interrupted independently, order cannot affect any of them
	for _, j := range s.jobs {
		live = append(live, j)
	}
	s.mu.Unlock()

	for _, j := range live {
		j.interrupt("drain")
		// Jobs still queued finalize here; running ones are finalized by
		// their worker when the harness returns.
		s.finalizeQueued(j)
	}
	close(s.dispatch)
	s.wg.Wait()
	close(s.persistCh)
	s.persistWG.Wait()
	// The final persist gets the full retry budget even when earlier
	// passes degraded: this is the last chance to make the state durable.
	// It rewrites the job store whole, which also heals any appended
	// record a silent fault (a dropped sync, a flipped bit) damaged.
	if err := backoff.Retry(s.opts.PersistRetry, s.retrySleep, func() error { return s.persistAll(true) }); err != nil {
		s.opts.Logf("serve: final persist: %v", err)
	}
	close(s.drainCh)
}

// finalizeQueued cancels a job only if it is still queued; begin()'s
// state check makes this race-free against a worker picking it up.
func (s *Server) finalizeQueued(j *Job) {
	j.mu.Lock()
	queued := j.state == StateQueued
	j.mu.Unlock()
	if queued {
		s.finalize(j, StateCanceled, nil, "", "canceled: drain")
	}
}

// Draining reports whether Drain has started.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// DrainDone returns the channel closed when Drain completes (long-polls
// select on it to unblock at shutdown).
func (s *Server) DrainDone() <-chan struct{} { return s.drainCh }

// --- observability ---

// TierStats is one tier's engine and thermal observability.
type TierStats struct {
	Name            string         `json:"name"`
	Engine          runsched.Stats `json:"engine"`
	ThermalWarnings int64          `json:"thermal_warnings"`
	// ShadowDivergences renders the diverged window keys (canonical
	// order), empty when self-verification is clean.
	ShadowDivergences []string `json:"shadow_divergences,omitempty"`
}

// Health is the /healthz body.
type Health struct {
	// Status is "ok", "degraded" (shadow divergence detected or
	// persistence exhausted) or "draining".
	Status          string   `json:"status"`
	ThermalWarnings int64    `json:"thermal_warnings"`
	ShadowChecked   int      `json:"shadow_checked"`
	ShadowDiverged  int      `json:"shadow_diverged"`
	Divergences     []string `json:"divergences,omitempty"`
	// Persistence is "ok" while checkpoints are landing, "degraded"
	// once the persister has exhausted its retries (compute continues;
	// the next successful checkpoint re-arms it), and "disabled" when
	// the daemon runs without a StatePath.
	Persistence string `json:"persistence"`
}

// StatsSnapshot is the /statsz body.
type StatsSnapshot struct {
	QueueDepth  int            `json:"queue_depth"` // admitted jobs not yet terminal
	QueueBound  int            `json:"queue_bound"`
	Draining    bool           `json:"draining"`
	Counters    Counters       `json:"counters"`
	JobsByState map[string]int `json:"jobs_by_state"`
	Tiers       []TierStats    `json:"tiers"`
}

// tierStats collects one tier's observability.
func (s *Server) tierStats(t Tier) TierStats {
	sess := s.sessions[t.Name]
	ts := TierStats{
		Name:            t.Name,
		Engine:          sess.EngineStats(),
		ThermalWarnings: sess.ThermalWarnings(),
	}
	for _, d := range sess.ShadowDivergences() {
		ts.ShadowDivergences = append(ts.ShadowDivergences, d.Key.String())
	}
	return ts
}

// HealthSnapshot summarizes daemon health. Shadow divergence degrades
// the status instead of crashing the daemon: cached state is suspect,
// but already-verified results remain servable.
func (s *Server) HealthSnapshot() Health {
	h := Health{Status: "ok", Persistence: "ok"}
	if s.opts.StatePath == "" {
		h.Persistence = "disabled"
	}
	for _, t := range s.tiers {
		ts := s.tierStats(t)
		h.ThermalWarnings += ts.ThermalWarnings
		h.ShadowChecked += ts.Engine.ShadowChecked
		h.ShadowDiverged += ts.Engine.ShadowDiverged
		h.Divergences = append(h.Divergences, ts.ShadowDivergences...)
	}
	if h.ShadowDiverged > 0 {
		h.Status = "degraded"
	}
	if s.PersistenceDegraded() {
		h.Status = "degraded"
		h.Persistence = "degraded"
	}
	if s.Draining() {
		h.Status = "draining"
	}
	return h
}

// Stats snapshots the full /statsz view.
func (s *Server) Stats() StatsSnapshot {
	snap := StatsSnapshot{
		QueueBound:  s.opts.QueueBound,
		JobsByState: make(map[string]int),
	}
	s.mu.Lock()
	snap.QueueDepth = s.inflight
	snap.Draining = s.draining
	snap.Counters = s.counters
	//lint:ignore maporder commutative counting; each job increments its own state bucket, order cannot affect the totals
	for _, j := range s.jobs {
		snap.JobsByState[j.snapshot().State]++
	}
	s.mu.Unlock()
	for _, t := range s.tiers {
		snap.Tiers = append(snap.Tiers, s.tierStats(t))
	}
	return snap
}

// Session exposes a tier's session (tests and stats).
func (s *Server) Session(tier string) (*experiment.Session, bool) {
	sess, ok := s.sessions[tier]
	return sess, ok
}

// --- persistence fingerprint ---

// storeFingerprint ties the job store to the tier configuration and
// store schema, so a store written under different window sizes fails
// loudly instead of silently serving wrong bytes.
func (s *Server) storeFingerprint() (string, error) {
	type tierSpec struct {
		Name    string             `json:"name"`
		Quality experiment.Quality `json:"quality"`
	}
	specs := make([]tierSpec, 0, len(s.tiers))
	for _, t := range s.tiers {
		specs = append(specs, tierSpec{Name: t.Name, Quality: t.Quality})
	}
	enc, err := json.Marshal(specs)
	if err != nil {
		return "", fmt.Errorf("serve: fingerprint tiers: %w", err)
	}
	h := fnv.New64a()
	_, _ = h.Write([]byte(storeSchema + "\n")) // fnv.Write cannot fail
	_, _ = h.Write(enc)
	return fmt.Sprintf("%016x", h.Sum64()), nil
}

// jobStorePath returns the job-store checkpoint path.
func (s *Server) jobStorePath() string {
	return filepath.Join(s.opts.StatePath, "jobs.ckpt")
}

// cachePath returns one tier's window-cache checkpoint path.
func (s *Server) cachePath(tier string) string {
	return filepath.Join(s.opts.StatePath, "cache-"+tier+".ckpt")
}
