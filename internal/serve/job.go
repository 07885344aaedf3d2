package serve

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"sync"

	"r3d/internal/campaign"
)

// Job kinds: what a submission asks the daemon to compute.
const (
	// KindCampaign runs a fault-injection grid through the hardened
	// campaign harness and returns the byte-stable aggregate report.
	KindCampaign = "campaign"
	// KindExperiment prefetches and renders one registry experiment at a
	// quality tier through the shared session engine.
	KindExperiment = "experiment"
)

// Job states. Queued and running are transient; the rest are terminal.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"   // deterministic job error (bad grid, harness failure)
	StateExpired  = "expired"  // per-request deadline fired; partial work kept in caches
	StateCanceled = "canceled" // drained before (or while) running
)

// Submission is the client-facing request body of POST /api/v1/jobs.
// Exactly one of Grid (kind "campaign") or Experiment (kind
// "experiment") must be set. DeadlineMS is per-request quality of
// service and deliberately excluded from the job fingerprint: the
// deadline of whoever creates the job applies to it.
type Submission struct {
	Kind       string `json:"kind"`
	Experiment string `json:"experiment,omitempty"`
	// Quality names the tier an experiment runs at ("" selects the
	// cheapest configured tier). Under load the server may degrade the
	// request to a cheaper tier; the response marks the downgrade.
	Quality    string         `json:"quality,omitempty"`
	Grid       *campaign.Grid `json:"grid,omitempty"`
	DeadlineMS int64          `json:"deadline_ms,omitempty"`
}

// fingerprintSpec is the canonical content a job ID hashes: everything
// that changes what the job computes, and nothing that does not
// (deadlines, client identity). Degradation is applied before
// fingerprinting, so a downgraded "full" request and an explicit "fast"
// request are the same job and join each other.
type fingerprintSpec struct {
	Kind       string         `json:"kind"`
	Experiment string         `json:"experiment,omitempty"`
	Quality    string         `json:"quality,omitempty"`
	Grid       *campaign.Grid `json:"grid,omitempty"`
}

// jobID fingerprints the effective submission content.
func jobID(kind, exp, quality string, grid *campaign.Grid) (string, error) {
	enc, err := json.Marshal(fingerprintSpec{Kind: kind, Experiment: exp, Quality: quality, Grid: grid})
	if err != nil {
		return "", fmt.Errorf("serve: fingerprint submission: %w", err)
	}
	h := fnv.New64a()
	_, _ = h.Write(enc) // fnv.Write cannot fail
	return fmt.Sprintf("j%016x", h.Sum64()), nil
}

// Job is one admitted unit of work. Identity fields are immutable after
// construction; everything mutable is guarded by mu. The stop channel
// is closed (once, via stopped) to drain the job early — deadline
// expiry or server drain — and doneCh is closed when the job reaches a
// terminal state.
type Job struct {
	ID         string
	Kind       string
	Experiment string
	Quality    string
	Grid       *campaign.Grid
	DeadlineNS int64
	Restored   bool // served from the persisted job store, not computed this process

	stop   chan struct{}
	doneCh chan struct{}

	mu sync.Mutex
	// r3dlint:guardedby mu
	state string
	// r3dlint:guardedby mu
	version int64
	// r3dlint:guardedby mu
	changed chan struct{} // closed and replaced on every version bump
	// r3dlint:guardedby mu
	done int
	// r3dlint:guardedby mu
	total int
	// r3dlint:guardedby mu
	result []byte
	// r3dlint:guardedby mu
	contentType string
	// r3dlint:guardedby mu
	errMsg string
	// r3dlint:guardedby mu
	stopped bool
	// r3dlint:guardedby mu
	stopReason string
}

// newJob constructs an admitted job in the queued state.
func newJob(id string, sub Submission, quality string, deadlineNS int64) *Job {
	return &Job{
		ID:         id,
		Kind:       sub.Kind,
		Experiment: sub.Experiment,
		Quality:    quality,
		Grid:       sub.Grid,
		DeadlineNS: deadlineNS,
		stop:       make(chan struct{}),
		doneCh:     make(chan struct{}),
		state:      StateQueued,
		version:    1,
		changed:    make(chan struct{}),
	}
}

// restoredJob reconstructs a terminal job from the persisted store.
//
// r3dlint:closer restored jobs are born terminal — the constructor hands the fresh doneCh straight to its one close
func restoredJob(rec storedJob) *Job {
	j := newJob(rec.ID, Submission{Kind: rec.Kind, Experiment: rec.Experiment, Grid: rec.Grid}, rec.Quality, 0)
	j.Restored = true
	j.mu.Lock()
	j.state = StateDone
	j.result = []byte(rec.Result)
	j.contentType = rec.ContentType
	j.mu.Unlock()
	close(j.doneCh)
	return j
}

// JobStatus is the JSON view of a job, returned by submissions and
// GET /api/v1/jobs/{id}. Version increases on every observable change;
// long-polls pass it back to wait for the next one.
type JobStatus struct {
	ID         string `json:"id"`
	Kind       string `json:"kind"`
	Experiment string `json:"experiment,omitempty"`
	Quality    string `json:"quality,omitempty"`
	State      string `json:"state"`
	Version    int64  `json:"version"`
	// Done/Total report trial-level progress for campaign jobs and
	// window-chunk progress for experiment jobs.
	Done     int    `json:"done"`
	Total    int    `json:"total"`
	Error    string `json:"error,omitempty"`
	Restored bool   `json:"restored,omitempty"`
	// ResultBytes is the size of the completed result; the body itself
	// is served by GET /api/v1/jobs/{id}/result.
	ResultBytes int `json:"result_bytes,omitempty"`
}

// bumpLocked advances the version and wakes every long-poller.
func (j *Job) bumpLocked() {
	j.version++
	close(j.changed)
	j.changed = make(chan struct{})
}

// Status returns the current status view (the external form of
// snapshot, for drivers like the chaos harness that poll jobs without
// going through HTTP).
func (j *Job) Status() JobStatus { return j.snapshot() }

// Done returns the channel closed when the job reaches a terminal
// state.
func (j *Job) Done() <-chan struct{} { return j.doneCh }

// Result returns the completed result body and content type; ok is
// false until the job is done.
func (j *Job) Result() ([]byte, string, bool) { return j.resultBody() }

// snapshot returns the current status view.
func (j *Job) snapshot() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JobStatus{
		ID:         j.ID,
		Kind:       j.Kind,
		Experiment: j.Experiment,
		Quality:    j.Quality,
		State:      j.state,
		Version:    j.version,
		Done:       j.done,
		Total:      j.total,
		Error:      j.errMsg,
		Restored:   j.Restored,

		ResultBytes: len(j.result),
	}
}

// versionAndChanged returns the long-poll pair: the current version and
// the channel closed on the next change.
func (j *Job) versionAndChanged() (int64, <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.version, j.changed
}

// resultBody returns the completed result (nil until done).
func (j *Job) resultBody() ([]byte, string, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateDone {
		return nil, "", false
	}
	return j.result, j.contentType, true
}

// record returns the job's job-store record. Only done jobs are
// recorded, and a done job's identity and result never change.
func (j *Job) record() storedJob {
	j.mu.Lock()
	defer j.mu.Unlock()
	return storedJob{
		ID:          j.ID,
		Kind:        j.Kind,
		Experiment:  j.Experiment,
		Quality:     j.Quality,
		Grid:        j.Grid,
		Result:      string(j.result),
		ContentType: j.contentType,
	}
}

// begin moves a queued job to running; it reports false for jobs
// already cancelled out of the queue.
func (j *Job) begin() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	j.state = StateRunning
	j.bumpLocked()
	return true
}

// setTotal publishes the job's unit count (trials or window chunks).
func (j *Job) setTotal(n int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.total = n
	j.bumpLocked()
}

// noteProgress counts one completed unit and wakes long-pollers. add is
// the number of units that finished (campaign trials report 1; window
// chunks report the chunk size).
func (j *Job) noteProgress(add int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.done += add
	j.bumpLocked()
}

// interrupt closes the job's stop channel once, recording why. The job
// drains at its natural grain — in-flight trials or windows finish and
// commit — and the worker marks the terminal state when the run
// returns.
func (j *Job) interrupt(reason string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.stopped {
		return
	}
	j.stopped = true
	j.stopReason = reason
	close(j.stop)
}

// interruptReason reports why the job was asked to stop ("" if it was
// not).
func (j *Job) interruptReason() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.stopped {
		return ""
	}
	return j.stopReason
}

// setTerminal commits the job's final state and returns the state it
// left, so the server can release admission bookkeeping exactly once.
func (j *Job) setTerminal(state string, result []byte, contentType, errMsg string) string {
	j.mu.Lock()
	defer j.mu.Unlock()
	prev := j.state
	if prev == StateDone || prev == StateFailed || prev == StateExpired || prev == StateCanceled {
		return prev // already terminal; keep the first verdict
	}
	j.state = state
	j.result = result
	j.contentType = contentType
	j.errMsg = errMsg
	j.bumpLocked()
	close(j.doneCh)
	return prev
}
