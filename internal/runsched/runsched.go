// Package runsched is a deterministic, concurrency-safe run engine:
// a memo cache over a pure compute function, with per-key singleflight
// (duplicate requests join the in-flight computation instead of
// recomputing) and batch execution across a bounded worker pool.
//
// It exists so the experiment layer can regenerate the paper's whole
// evaluation in parallel without giving up a byte of reproducibility.
// The contract that makes that possible:
//
//   - compute must be a pure function of the key: same key, same value,
//     on every run, at any worker count (the simulator's per-seed
//     determinism, protected by the r3dlint suite, provides this);
//   - results and errors are memoized forever — a key is computed at
//     most once per engine, no matter how many callers race on it;
//   - batch results are committed in canonical key order, never in
//     completion order, mirroring internal/campaign's ID-ordered
//     aggregation, so everything observable from the engine is
//     independent of scheduling;
//   - the engine itself never reads the wall clock (model code must
//     not); drivers inject a clock for the observability counters, and
//     with no clock injected all timings are zero.
//
// compute must not call back into its own engine: a recursive Get from
// inside compute can join the very call that issued it and deadlock.
//
// Flight is the plain per-key memo beside the engine: singleflight that
// publishes only successful values, with no batches, order or counters.
package runsched

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sync"
)

// ErrInterrupted is the memo-free error a Prefetch reports for keys it
// never dispatched because Interrupt was called. It is not committed to
// the cache: the keys stay uncomputed and a later run (e.g. a warm
// start from a persisted cache) computes them normally.
var ErrInterrupted = errors.New("runsched: interrupted")

// Stats are the engine's observability counters. All fields are sums or
// counts, so they are identical for any worker count; only the injected
// clock's readings vary between hosts.
type Stats struct {
	// Computed counts keys evaluated by the compute function.
	Computed int `json:"computed"`
	// Hits counts requests served from the memo cache.
	Hits int `json:"cache_hits"`
	// Joins counts requests that joined an in-flight computation
	// instead of starting their own (the singleflight saves).
	Joins int `json:"singleflight_joins"`
	// Errors counts computed keys whose compute returned an error
	// (errors are memoized like values).
	Errors int `json:"errors"`
	// BatchRequested / BatchDeduped count keys handed to Prefetch and
	// the duplicates it removed before dispatch.
	BatchRequested int `json:"batch_requested"`
	BatchDeduped   int `json:"batch_deduped"`
	// ComputeNanos is the summed wall-clock time inside compute, as
	// measured by the injected clock (0 without one). With parallel
	// workers it exceeds elapsed time — it is total work, not latency.
	ComputeNanos int64 `json:"compute_nanos"`
	// Preloaded counts entries seeded from a persisted cache (Preload).
	Preloaded int `json:"preloaded"`
	// ShadowChecked / ShadowDiverged count cache hits re-verified by a
	// from-scratch recomputation and the re-verifications that failed
	// the byte comparison.
	ShadowChecked  int `json:"shadow_checked"`
	ShadowDiverged int `json:"shadow_diverged"`
}

// Record is the per-run observability entry for one computed key.
type Record[K comparable] struct {
	Key   K
	Nanos int64 // compute wall time by the injected clock (0 without one)
	Err   bool  // compute returned an error
}

// Entry is one successful memo entry, the unit of cache persistence:
// Entries dumps them, Preload seeds them.
type Entry[K comparable, V any] struct {
	Key K `json:"key"`
	Val V `json:"val"`
}

// Divergence is one failed shadow re-verification: a cached value whose
// recomputation no longer matches it byte-for-byte under Options.Encode.
type Divergence[K comparable] struct {
	Key        K
	Stored     string
	Recomputed string
}

// Options configures an Engine.
type Options[K comparable, V any] struct {
	// Workers bounds the batch worker pool (≤0 selects 1). Get always
	// computes on the calling goroutine.
	Workers int
	// Compare orders keys canonically; it is required and must be a
	// total order. Batches are committed in this order, and Records
	// reports in it.
	Compare func(a, b K) int
	// Clock returns a monotonic nanosecond reading for the timing
	// counters. nil disables timing (all durations zero): the engine is
	// model code and must not read the host clock itself.
	Clock func() int64
	// ShadowFraction enables RMT-style self-verification: each key's
	// first cache hit has this probability of triggering a from-scratch
	// recomputation whose Encode bytes are compared against the cached
	// value. Selection is a pure function of Hash(key), so which keys
	// get re-verified is reproducible. Requires Hash and Encode; 0
	// disables, ≥1 checks every hit key once.
	ShadowFraction float64
	// Hash maps a key to the 32-bit value driving shadow selection.
	Hash func(K) uint32
	// Encode produces the canonical bytes compared during a shadow
	// check. It must be a pure function of the value.
	Encode func(V) ([]byte, error)
}

// result is a committed memo entry.
type result[V any] struct {
	val V
	err error
}

// call is one in-flight computation; joiners wait on done.
type call[V any] struct {
	done  chan struct{}
	val   V
	err   error
	nanos int64
}

// Engine memoizes a pure compute function with singleflight and batch
// scheduling. The zero value is not usable; construct with New.
type Engine[K comparable, V any] struct {
	compute func(K) (V, error)
	opts    Options[K, V]
	stop    chan struct{}

	mu sync.Mutex
	// r3dlint:guardedby mu
	results map[K]result[V]
	// r3dlint:guardedby mu
	inflight map[K]*call[V]
	// r3dlint:guardedby mu
	stats Stats
	// r3dlint:guardedby mu
	records []Record[K]
	// r3dlint:guardedby mu
	shadowDone map[K]bool // keys already shadow-checked (at most once each)
	// r3dlint:guardedby mu
	divergences []Divergence[K]
	// r3dlint:guardedby mu
	stopped bool
}

// New creates an engine over the given pure compute function.
// Options.Compare must be non-nil.
func New[K comparable, V any](compute func(K) (V, error), opts Options[K, V]) *Engine[K, V] {
	if compute == nil {
		panic("runsched: nil compute function")
	}
	if opts.Compare == nil {
		panic("runsched: Options.Compare is required")
	}
	if opts.Workers <= 0 {
		opts.Workers = 1
	}
	if opts.ShadowFraction > 0 && (opts.Hash == nil || opts.Encode == nil) {
		panic("runsched: ShadowFraction requires Options.Hash and Options.Encode")
	}
	return &Engine[K, V]{
		compute:    compute,
		opts:       opts,
		stop:       make(chan struct{}),
		results:    map[K]result[V]{},
		inflight:   map[K]*call[V]{},
		shadowDone: map[K]bool{},
	}
}

// Interrupt asks the engine to drain: in-flight computations finish and
// commit, but Prefetch dispatches no further keys and reports
// ErrInterrupted for the ones it skipped. Idempotent and safe from a
// signal handler's goroutine.
func (e *Engine[K, V]) Interrupt() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.stopped {
		e.stopped = true
		close(e.stop)
	}
}

// Workers returns the configured batch pool width.
func (e *Engine[K, V]) Workers() int { return e.opts.Workers }

// now reads the injected clock (0 without one).
func (e *Engine[K, V]) now() int64 {
	if e.opts.Clock == nil {
		return 0
	}
	return e.opts.Clock()
}

// Get returns the memoized value for k, computing it on the calling
// goroutine if no other caller already is. Concurrent Gets of the same
// key perform exactly one computation; the rest join it.
func (e *Engine[K, V]) Get(k K) (V, error) {
	e.mu.Lock()
	if r, ok := e.results[k]; ok {
		e.stats.Hits++
		check := e.shadowWantedLocked(k, r.err)
		e.mu.Unlock()
		if check {
			e.shadowCheck(k, r.val)
		}
		return r.val, r.err
	}
	if c, ok := e.inflight[k]; ok {
		e.stats.Joins++
		e.mu.Unlock()
		<-c.done
		return c.val, c.err
	}
	c := &call[V]{done: make(chan struct{})}
	e.inflight[k] = c
	e.mu.Unlock()

	e.run(k, c)

	e.mu.Lock()
	e.commit(k, c)
	e.mu.Unlock()
	return c.val, c.err
}

// run evaluates compute for k into c and releases joiners. The memo
// commit happens separately so batches can commit in key order.
//
// r3dlint:closer the inflight table hands each call here for its single completion close
func (e *Engine[K, V]) run(k K, c *call[V]) {
	start := e.now()
	c.val, c.err = e.compute(k)
	c.nanos = e.now() - start
	close(c.done)
}

// commit moves a finished call into the memo under e.mu. Joiners that
// arrive between close(done) and commit still find the inflight entry
// and return immediately from the closed channel.
func (e *Engine[K, V]) commit(k K, c *call[V]) {
	delete(e.inflight, k)
	e.results[k] = result[V]{val: c.val, err: c.err}
	e.stats.Computed++
	e.stats.ComputeNanos += c.nanos
	if c.err != nil {
		e.stats.Errors++
	}
	e.records = append(e.records, Record[K]{Key: k, Nanos: c.nanos, Err: c.err != nil})
}

// shadowWantedLocked decides (under e.mu) whether this hit triggers a
// shadow re-verification, and claims the key so each is checked at most
// once. Selection is a pure function of Hash(key) and the fraction.
func (e *Engine[K, V]) shadowWantedLocked(k K, err error) bool {
	f := e.opts.ShadowFraction
	if f <= 0 || err != nil || e.shadowDone[k] {
		return false
	}
	if f < 1 && float64(e.opts.Hash(k))/float64(1<<32) >= f {
		return false
	}
	e.shadowDone[k] = true
	return true
}

// shadowCheck recomputes k from scratch and byte-compares the canonical
// encodings, recording a Divergence on mismatch. The cached value is
// never replaced: the engine detects divergence, it does not adjudicate
// which side is right.
func (e *Engine[K, V]) shadowCheck(k K, stored V) {
	recomputed, err := e.compute(k)
	a, aerr := e.opts.Encode(stored)
	var b []byte
	var berr error
	if err == nil {
		b, berr = e.opts.Encode(recomputed)
	}
	match := err == nil && aerr == nil && berr == nil && bytes.Equal(a, b)

	e.mu.Lock()
	defer e.mu.Unlock()
	e.stats.ShadowChecked++
	if match {
		return
	}
	e.stats.ShadowDiverged++
	d := Divergence[K]{Key: k, Stored: string(a)}
	switch {
	case err != nil:
		d.Recomputed = "recompute error: " + err.Error()
	case berr != nil:
		d.Recomputed = "encode error: " + berr.Error()
	default:
		d.Recomputed = string(b)
	}
	e.divergences = append(e.divergences, d)
}

// Preload seeds the memo from persisted entries (a prior run's
// Entries). Keys already computed this run keep their fresh result;
// preloaded entries join the cache as ordinary hits-to-be and are
// eligible for shadow re-verification like any other cached value.
func (e *Engine[K, V]) Preload(entries []Entry[K, V]) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, ent := range entries {
		if _, ok := e.results[ent.Key]; ok {
			continue
		}
		if _, ok := e.inflight[ent.Key]; ok {
			continue
		}
		e.results[ent.Key] = result[V]{val: ent.Val}
		e.stats.Preloaded++
	}
}

// Entries returns every successful memo entry in canonical key order —
// the persistable image of the cache. Errored keys are excluded: they
// are retried, not replayed, on the next run.
func (e *Engine[K, V]) Entries() []Entry[K, V] {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]Entry[K, V], 0, len(e.results))
	//lint:ignore maporder entries are collected in any order and then sorted canonically below; generic keys cannot use detmap
	for k, r := range e.results {
		if r.err == nil {
			out = append(out, Entry[K, V]{Key: k, Val: r.val})
		}
	}
	slices.SortFunc(out, func(a, b Entry[K, V]) int { return e.opts.Compare(a.Key, b.Key) })
	return out
}

// Divergences returns the failed shadow re-verifications in canonical
// key order.
func (e *Engine[K, V]) Divergences() []Divergence[K] {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]Divergence[K], len(e.divergences))
	copy(out, e.divergences)
	slices.SortFunc(out, func(a, b Divergence[K]) int { return e.opts.Compare(a.Key, b.Key) })
	return out
}

// prefetchJob is one unit of Prefetch pool work: either a computation
// or a shadow re-verification of a cache hit.
type prefetchJob[K comparable, V any] struct {
	k      K
	shadow bool
	stored V
}

// Prefetch computes every key in keys across the worker pool. Keys are
// deduplicated and dispatched in the order given (each at its first
// occurrence), and results are committed in canonical order regardless
// of dispatch or completion order, so the engine's observable state
// after a batch is independent of scheduling.
// Keys already computed count as hits (and may be shadow re-verified in
// the same pool); keys being computed by another caller are joined. It
// returns the first error in canonical key order (the same error a
// later Get of that key will return).
//
// If Interrupt fires mid-batch, in-flight computations finish and
// commit, remaining keys are skipped, and Prefetch reports
// ErrInterrupted; the skipped keys stay uncomputed and un-memoized.
func (e *Engine[K, V]) Prefetch(keys []K) error {
	return e.PrefetchUntil(keys, nil)
}

// PrefetchUntil is Prefetch with a per-batch stop channel: closing stop
// drains this batch the same way Interrupt drains the whole engine —
// in-flight computations finish and commit, undispatched keys are
// skipped and stay uncomputed, and the call reports ErrInterrupted. The
// memo cache is never poisoned by a cancelled batch: everything
// committed is a complete, correct window, and everything skipped is
// absent (not an error entry), so a later batch computes it normally.
// Other callers' batches keep running; this is the building block for
// per-request deadlines layered over a shared engine. A nil stop never
// fires.
func (e *Engine[K, V]) PrefetchUntil(keys []K, stop <-chan struct{}) error {
	e.mu.Lock()
	e.stats.BatchRequested += len(keys)
	uniq := make([]K, 0, len(keys))
	seen := make(map[K]bool, len(keys))
	for _, k := range keys {
		if !seen[k] {
			seen[k] = true
			uniq = append(uniq, k)
		}
	}
	e.stats.BatchDeduped += len(keys) - len(uniq)

	// Partition: already-memoized keys are hits; keys some other caller
	// is computing are joined after the pool drains; the rest are ours.
	var joins []*call[V]
	var work []prefetchJob[K, V]
	calls := make(map[K]*call[V], len(uniq))
	errs := make(map[K]error, len(uniq))
	for _, k := range uniq {
		if r, ok := e.results[k]; ok {
			e.stats.Hits++
			errs[k] = r.err
			if e.shadowWantedLocked(k, r.err) {
				work = append(work, prefetchJob[K, V]{k: k, shadow: true, stored: r.val})
			}
			continue
		}
		if c, ok := e.inflight[k]; ok {
			e.stats.Joins++
			joins = append(joins, c)
			calls[k] = c
			continue
		}
		c := &call[V]{done: make(chan struct{})}
		e.inflight[k] = c
		calls[k] = c
		work = append(work, prefetchJob[K, V]{k: k})
	}
	e.mu.Unlock()

	// Bounded fan-out; dispatch in the caller's order (compute jobs and
	// shadow checks interleaved as the keys fell). Completion order is
	// scheduling-dependent, which is why the commit below re-walks work
	// in canonical order instead.
	jobs := make(chan prefetchJob[K, V])
	var wg sync.WaitGroup
	workers := min(e.opts.Workers, len(work))
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				if j.shadow {
					e.shadowCheck(j.k, j.stored)
					continue
				}
				e.run(j.k, calls[j.k])
			}
		}()
	}
	var skipped []K
dispatch:
	for i, j := range work {
		select {
		case jobs <- j:
		case <-e.stop:
			for _, rest := range work[i:] {
				if !rest.shadow {
					skipped = append(skipped, rest.k)
				}
			}
			break dispatch
		case <-stop:
			for _, rest := range work[i:] {
				if !rest.shadow {
					skipped = append(skipped, rest.k)
				}
			}
			break dispatch
		}
	}
	close(jobs)
	wg.Wait()

	// Commit, and report the first error, in canonical order.
	slices.SortFunc(work, func(a, b prefetchJob[K, V]) int { return e.opts.Compare(a.k, b.k) })
	slices.SortFunc(uniq, e.opts.Compare)
	e.mu.Lock()
	skippedSet := make(map[K]bool, len(skipped))
	for _, k := range skipped {
		// A skipped key is released, not memoized: its call resolves with
		// ErrInterrupted for any joiner, and the key stays uncomputed so a
		// later run can compute it for real.
		skippedSet[k] = true
		c := calls[k]
		c.err = ErrInterrupted
		close(c.done)
		delete(e.inflight, k)
	}
	for _, j := range work {
		if j.shadow || skippedSet[j.k] {
			continue
		}
		e.commit(j.k, calls[j.k])
	}
	e.mu.Unlock()

	// Joined calls are owned by other batches; wait for them under the
	// same stop signals as dispatch. Abandoning a join on stop is safe —
	// the owning batch still commits or releases it — but we must not
	// read its err without the close(done) happened-before, so return
	// immediately instead of falling through to the error tail.
	for _, c := range joins {
		select {
		case <-c.done:
		case <-e.stop:
			return ErrInterrupted
		case <-stop:
			return ErrInterrupted
		}
	}

	// First error in canonical key order, from whichever path produced
	// the key's result (memo hit, joined call, or our own pool).
	for _, k := range uniq {
		err := errs[k]
		if c, ok := calls[k]; ok {
			err = c.err
		}
		if err == nil {
			continue
		}
		if errors.Is(err, ErrInterrupted) {
			return ErrInterrupted
		}
		return fmt.Errorf("runsched: %w", err)
	}
	return nil
}

// Cached returns the memoized value and error for k without computing
// anything. For a key that has not been committed it returns the zero
// value and a nil error, which is indistinguishable from a committed
// zero value; use Has to tell the two apart.
func (e *Engine[K, V]) Cached(k K) (V, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	r := e.results[k]
	return r.val, r.err
}

// Has reports whether k has been committed.
func (e *Engine[K, V]) Has(k K) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	_, ok := e.results[k]
	return ok
}

// Stats returns a snapshot of the counters.
func (e *Engine[K, V]) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

// Records returns the per-run entries in canonical key order. The set
// of records — and, with a deterministic clock, their contents — is
// identical for any worker count.
func (e *Engine[K, V]) Records() []Record[K] {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]Record[K], len(e.records))
	copy(out, e.records)
	slices.SortFunc(out, func(a, b Record[K]) int { return e.opts.Compare(a.Key, b.Key) })
	return out
}
