package serve

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"r3d/internal/backoff"
	"r3d/internal/ckpt"
	"r3d/internal/iofault"
)

// degradedOptions builds a persisting server over fsys with a fail-fast
// retry policy (tests never sleep).
func degradedOptions(fsys iofault.FS, logf func(string, ...any)) Options {
	return Options{
		Tiers:        []Tier{{Name: "fast", Quality: tinyQuality()}},
		StatePath:    "/state",
		FS:           fsys,
		PersistRetry: backoff.Policy{Attempts: 2},
		Logf:         logf,
	}
}

func submitTinyCampaign(t *testing.T, s *Server, seed int64) *Job {
	t.Helper()
	res, serr := s.Submit(Submission{Kind: KindCampaign, Grid: tinyGrid(seed)}, "client")
	if serr != nil {
		t.Fatalf("submit: %v", serr)
	}
	j, ok := s.JobByID(res.Job.ID)
	if !ok {
		t.Fatalf("job %s missing", res.Job.ID)
	}
	return j
}

func waitJobDone(t *testing.T, j *Job) JobStatus {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(60 * time.Second):
		t.Fatalf("job %s never finished", j.ID)
	}
	return j.Status()
}

// waitPersistDegraded polls until the persister (an async goroutine)
// reports the given degraded state.
func waitPersist(t *testing.T, s *Server, degraded bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if s.PersistenceDegraded() == degraded {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("persistence degraded state never became %v", degraded)
}

// TestPersistenceDegradesAndReArms is the failure-degraded serving
// contract: a dead device exhausts the persister's retries, health
// flips to degraded while compute keeps working, and healing the device
// re-arms persistence on the next successful checkpoint.
func TestPersistenceDegradesAndReArms(t *testing.T) {
	mem := iofault.NewMemFS()
	ffs := iofault.NewFaultFS(mem, iofault.Schedule{Seed: 1, FailWritesFrom: 1}, nil)
	s, err := New(degradedOptions(ffs, nil))
	if err != nil {
		t.Fatal(err)
	}

	// Job 1 completes; its persist exhausts retries against the dead
	// device and degrades.
	j1 := waitJobDone(t, submitTinyCampaign(t, s, 1))
	if j1.State != StateDone {
		t.Fatalf("job 1 state %s, want done", j1.State)
	}
	waitPersist(t, s, true)
	h := s.HealthSnapshot()
	if h.Status != "degraded" || h.Persistence != "degraded" {
		t.Fatalf("health = %s/%s, want degraded/degraded", h.Status, h.Persistence)
	}

	// Compute continues while degraded: a second job still runs to done.
	j2 := waitJobDone(t, submitTinyCampaign(t, s, 2))
	if j2.State != StateDone {
		t.Fatalf("job 2 state %s while degraded, want done", j2.State)
	}

	// Heal the device; the next poke's probe lands a checkpoint and
	// re-arms persistence.
	ffs.Heal()
	j3 := waitJobDone(t, submitTinyCampaign(t, s, 3))
	if j3.State != StateDone {
		t.Fatalf("job 3 state %s, want done", j3.State)
	}
	waitPersist(t, s, false)
	h = s.HealthSnapshot()
	if h.Status != "ok" || h.Persistence != "ok" {
		t.Fatalf("health after heal = %s/%s, want ok/ok", h.Status, h.Persistence)
	}

	s.Drain()

	// The healed state restores: job results survive byte-identically.
	if _, ok := mem.Durable("/state/jobs.ckpt"); !ok {
		t.Fatal("job store never became durable after heal")
	}
	s2, err := New(Options{
		Tiers:     []Tier{{Name: "fast", Quality: tinyQuality()}},
		StatePath: "/state",
		FS:        mem,
		Restore:   true,
	})
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	defer s2.Drain()
	for _, want := range []JobStatus{j1, j2, j3} {
		j, ok := s2.JobByID(want.ID)
		if !ok {
			t.Fatalf("restored server lost job %s", want.ID)
		}
		st := j.Status()
		if st.State != StateDone || !st.Restored {
			t.Fatalf("restored job %s: state %s restored=%v", want.ID, st.State, st.Restored)
		}
	}
}

// TestTransientPersistFaultsAbsorbedByRetry: a flaky (but not dead)
// device never degrades health — the retry budget absorbs it.
func TestTransientPersistFaultsAbsorbedByRetry(t *testing.T) {
	mem := iofault.NewMemFS()
	// 20% write faults, absorbed by 8 attempts (the whole persistAll
	// re-runs per attempt, so per-attempt success odds are decent for
	// the handful of writes a tiny store makes).
	ffs := iofault.NewFaultFS(mem, iofault.Schedule{Seed: 7, WriteErr: 0.1}, nil)
	opts := degradedOptions(ffs, nil)
	opts.PersistRetry = backoff.Policy{Attempts: 12}
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	j := waitJobDone(t, submitTinyCampaign(t, s, 9))
	if j.State != StateDone {
		t.Fatalf("job state %s, want done", j.State)
	}
	waitPersist(t, s, false)
	if h := s.HealthSnapshot(); h.Persistence != "ok" {
		t.Fatalf("persistence = %s under transient faults, want ok", h.Persistence)
	}
	s.Drain()
}

// cacheWriteFS counts the whole-file writes a server starts for files
// whose name begins with prefix, and fails them while failing is set.
type cacheWriteFS struct {
	iofault.FS
	prefix  string
	commits atomic.Int32
	failing atomic.Bool
}

func (f *cacheWriteFS) CreateTemp(dir, pattern string) (iofault.File, error) {
	if strings.HasPrefix(pattern, f.prefix) {
		f.commits.Add(1)
		if f.failing.Load() {
			return nil, errors.New("injected window-cache write failure")
		}
	}
	return f.FS.CreateTemp(dir, pattern)
}

// TestPersistSavesTierCacheOnlyWhenItChanged: every persist appends to
// the job store, but rewrites a tier's window cache only when its
// session has committed a window since the last save that succeeded. A failed save
// is retried by the next persist, campaign jobs commit no windows, an
// experiment job does, and a restored server serves every job byte for
// byte.
func TestPersistSavesTierCacheOnlyWhenItChanged(t *testing.T) {
	mem := iofault.NewMemFS()
	fsys := &cacheWriteFS{FS: mem, prefix: "cache-fast.ckpt"}
	fsys.failing.Store(true)
	opts := degradedOptions(fsys, nil)
	opts.PersistRetry = backoff.Policy{Attempts: 1}
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	commits := func(want int32, when string) {
		t.Helper()
		if got := fsys.commits.Load(); got != want {
			t.Fatalf("%s: %d window-cache saves, want %d", when, got, want)
		}
	}

	// The first persist saves the cache, and that save fails.
	jobs := []*Job{submitTinyCampaign(t, s, 1)}
	waitJobDone(t, jobs[0])
	waitPersist(t, s, true)
	commits(1, "after a failed save")

	// The next persist retries it.
	fsys.failing.Store(false)
	jobs = append(jobs, submitTinyCampaign(t, s, 2))
	waitJobDone(t, jobs[1])
	waitPersist(t, s, false)
	commits(2, "after the retried save")

	// Campaign jobs commit no windows: their persists skip the cache.
	for seed := int64(3); seed <= 6; seed++ {
		j := submitTinyCampaign(t, s, seed)
		waitJobDone(t, j)
		jobs = append(jobs, j)
	}
	res, serr := s.Submit(Submission{Kind: KindExperiment, Experiment: "table2"}, "client")
	if serr != nil {
		t.Fatalf("submit: %v", serr)
	}
	exp, _ := s.JobByID(res.Job.ID)
	if st := waitJobDone(t, exp); st.State != StateDone {
		t.Fatalf("experiment job ended %s", st.State)
	}
	jobs = append(jobs, exp)
	s.Drain()
	commits(3, "after campaign jobs, one experiment job and the drain")

	s2, err := New(Options{
		Tiers:     []Tier{{Name: "fast", Quality: tinyQuality()}},
		StatePath: "/state",
		FS:        mem,
		Restore:   true,
	})
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	defer s2.Drain()
	for _, j := range jobs {
		body, ct, _ := j.Result()
		r, ok := s2.JobByID(j.ID)
		if !ok {
			t.Fatalf("restored server lost job %s", j.ID)
		}
		got, gotCT, done := r.Result()
		if !done || !bytes.Equal(got, body) || gotCT != ct {
			t.Errorf("job %s: restored result (%s, %d bytes, done %v) differs from the original (%s, %d bytes)", j.ID, gotCT, len(got), done, ct, len(body))
		}
	}
	if sess, _ := s2.Session("fast"); sess.EngineStats().Preloaded == 0 {
		t.Error("the experiment job's windows were not restored")
	}
}

// byteCountFS counts the bytes written to files whose base name begins
// with prefix, temp files included.
type byteCountFS struct {
	iofault.FS
	prefix string
	bytes  atomic.Int64
}

func (f *byteCountFS) OpenFile(name string, flag int, perm fs.FileMode) (iofault.File, error) {
	file, err := f.FS.OpenFile(name, flag, perm)
	return f.count(file, err)
}

func (f *byteCountFS) CreateTemp(dir, pattern string) (iofault.File, error) {
	file, err := f.FS.CreateTemp(dir, pattern)
	return f.count(file, err)
}

func (f *byteCountFS) count(file iofault.File, err error) (iofault.File, error) {
	if err != nil || !strings.HasPrefix(filepath.Base(file.Name()), f.prefix) {
		return file, err
	}
	return &countedFile{File: file, n: &f.bytes}, nil
}

type countedFile struct {
	iofault.File
	n *atomic.Int64
}

func (c *countedFile) Write(p []byte) (int, error) {
	n, err := c.File.Write(p)
	c.n.Add(int64(n))
	return n, err
}

// TestJobStoreWritesEachRecordOnce: between drains the job store only
// grows. After jobs finish one at a time, each with its own persist,
// the bytes written to the store, temp files included, are exactly the
// store's size: its header and one record per job. A store rewritten
// on every persist would write O(N²) bytes for N jobs.
func TestJobStoreWritesEachRecordOnce(t *testing.T) {
	mem := iofault.NewMemFS()
	fsys := &byteCountFS{FS: mem, prefix: "jobs.ckpt"}
	s, err := New(degradedOptions(fsys, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain()
	fp, err := s.storeFingerprint()
	if err != nil {
		t.Fatal(err)
	}
	meta := ckpt.Meta{Kind: storeKind, Fingerprint: fp}
	stored := func() int {
		recs, err := ckpt.LoadFrom(mem, "/state/jobs.ckpt", meta)
		if err != nil {
			return 0
		}
		return recs.Len()
	}

	const jobs = 20
	for seed := int64(1); seed <= jobs; seed++ {
		if st := waitJobDone(t, submitTinyCampaign(t, s, seed)); st.State != StateDone {
			t.Fatalf("job %d ended %s", seed, st.State)
		}
		deadline := time.Now().Add(30 * time.Second)
		for stored() < int(seed) {
			if time.Now().After(deadline) {
				t.Fatalf("job %d never reached the job store", seed)
			}
			time.Sleep(time.Millisecond)
		}
	}
	data, err := mem.ReadFile("/state/jobs.ckpt")
	if err != nil {
		t.Fatal(err)
	}
	if n := stored(); n != jobs {
		t.Fatalf("job store holds %d records, want %d", n, jobs)
	}
	if got := fsys.bytes.Load(); got != int64(len(data)) {
		t.Fatalf("%d jobs wrote %d job-store bytes; the store is %d bytes (a header and one record per job)", jobs, got, len(data))
	}
}

// TestRestoreDropsCorruptStoreSuffix: a job store whose last record is
// torn restores the jobs before it and logs the drop, and the lost job
// is recomputed, byte for byte, when it is submitted again.
func TestRestoreDropsCorruptStoreSuffix(t *testing.T) {
	mem := iofault.NewMemFS()
	s, err := New(degradedOptions(mem, nil))
	if err != nil {
		t.Fatal(err)
	}
	first := waitJobDone(t, submitTinyCampaign(t, s, 1))
	lost := submitTinyCampaign(t, s, 2)
	waitJobDone(t, lost)
	want, _, _ := lost.Result()
	s.Drain()

	data, err := mem.ReadFile("/state/jobs.ckpt")
	if err != nil {
		t.Fatal(err)
	}
	f, err := mem.OpenFile("/state/jobs.ckpt", os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(data[:len(data)-10]); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var logs []string
	opts := degradedOptions(mem, func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		logs = append(logs, fmt.Sprintf(format, args...))
	})
	opts.Restore = true
	s2, err := New(opts)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	defer s2.Drain()
	if j, ok := s2.JobByID(first.ID); !ok || !j.Status().Restored {
		t.Fatalf("job %s before the torn record was not restored", first.ID)
	}
	if _, ok := s2.JobByID(lost.ID); ok {
		t.Fatalf("job %s in the torn record was restored", lost.ID)
	}
	mu.Lock()
	noted := strings.Contains(strings.Join(logs, "\n"), "torn record")
	mu.Unlock()
	if !noted {
		t.Errorf("restore logs do not mention the torn record: %q", logs)
	}
	again := submitTinyCampaign(t, s2, 2)
	if st := waitJobDone(t, again); st.State != StateDone || st.Restored {
		t.Fatalf("resubmitted job: state %s restored=%v, want a fresh computation", st.State, st.Restored)
	}
	if got, _, _ := again.Result(); !bytes.Equal(got, want) {
		t.Errorf("recomputed result differs from the original (%d vs %d bytes)", len(got), len(want))
	}
}
