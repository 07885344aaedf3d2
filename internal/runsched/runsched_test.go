package runsched

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func intEngine(workers int, compute func(int) (string, error)) *Engine[int, string] {
	return New(compute, Options[int, string]{
		Workers: workers,
		Compare: func(a, b int) int { return a - b },
	})
}

func TestGetMemoizes(t *testing.T) {
	var computed atomic.Int64
	e := intEngine(1, func(k int) (string, error) {
		computed.Add(1)
		return fmt.Sprintf("v%d", k), nil
	})
	for i := 0; i < 3; i++ {
		v, err := e.Get(7)
		if err != nil || v != "v7" {
			t.Fatalf("Get(7) = %q, %v", v, err)
		}
	}
	if computed.Load() != 1 {
		t.Errorf("computed %d times, want 1", computed.Load())
	}
	st := e.Stats()
	if st.Computed != 1 || st.Hits != 2 || st.Joins != 0 {
		t.Errorf("stats %+v, want 1 computed / 2 hits", st)
	}
}

func TestSingleflightJoins(t *testing.T) {
	const joiners = 8
	release := make(chan struct{})
	entered := make(chan struct{})
	var computed atomic.Int64
	var enterOnce sync.Once
	e := intEngine(4, func(k int) (string, error) {
		enterOnce.Do(func() { close(entered) })
		<-release
		computed.Add(1)
		return "slow", nil
	})

	var wg sync.WaitGroup
	leaderDone := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, err := e.Get(1)
		leaderDone <- err
	}()
	<-entered // leader is inside compute; everyone else must join

	results := make(chan string, joiners)
	for i := 0; i < joiners; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := e.Get(1)
			if err != nil {
				t.Errorf("joiner: %v", err)
			}
			results <- v
		}()
	}
	// Wait until every joiner has registered against the in-flight call
	// (they increment Joins before blocking), so the join path — not the
	// memo-hit path — is what this test exercises.
	for e.Stats().Joins < joiners {
		runtime.Gosched()
	}
	// Joiners cannot produce results until the leader finishes.
	select {
	case v := <-results:
		t.Fatalf("joiner returned %q before leader finished", v)
	default:
	}
	close(release)
	wg.Wait()
	if err := <-leaderDone; err != nil {
		t.Fatalf("leader: %v", err)
	}
	for i := 0; i < joiners; i++ {
		if v := <-results; v != "slow" {
			t.Errorf("joiner got %q", v)
		}
	}
	if computed.Load() != 1 {
		t.Errorf("computed %d times, want 1", computed.Load())
	}
	st := e.Stats()
	if st.Computed != 1 || st.Joins != joiners {
		t.Errorf("stats %+v, want 1 computed / %d joins", st, joiners)
	}
}

func TestPrefetchDedupAndOrder(t *testing.T) {
	var mu sync.Mutex
	var order []int
	e := intEngine(4, func(k int) (string, error) {
		mu.Lock()
		order = append(order, k)
		mu.Unlock()
		return fmt.Sprintf("v%d", k), nil
	})
	keys := []int{5, 3, 5, 1, 3, 3, 9}
	if err := e.Prefetch(keys); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Computed != 4 {
		t.Errorf("computed %d, want 4 unique", st.Computed)
	}
	if st.BatchRequested != 7 || st.BatchDeduped != 3 {
		t.Errorf("batch counters %+v, want 7 requested / 3 deduped", st)
	}
	recs := e.Records()
	if len(recs) != 4 {
		t.Fatalf("records %d, want 4", len(recs))
	}
	for i, want := range []int{1, 3, 5, 9} {
		if recs[i].Key != want {
			t.Errorf("records[%d].Key = %d, want %d (canonical order)", i, recs[i].Key, want)
		}
	}
	// A second prefetch of the same keys is all hits.
	if err := e.Prefetch(keys); err != nil {
		t.Fatal(err)
	}
	st = e.Stats()
	if st.Computed != 4 || st.Hits != 4 {
		t.Errorf("after re-prefetch: %+v, want 4 computed / 4 hits", st)
	}
}

// TestPrefetchDispatchOrder checks that a batch computes its keys in
// the order the caller passed them (each at its first occurrence) and
// still commits them in Compare order.
func TestPrefetchDispatchOrder(t *testing.T) {
	var order []int
	e := New(func(k int) (string, error) {
		order = append(order, k)
		return fmt.Sprintf("v%d", k), nil
	}, Options[int, string]{Workers: 1, Compare: func(a, b int) int { return a - b }})
	if err := e.Prefetch([]int{4, 1, 2, 5, 3, 2, 4}); err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprint(order), "[4 1 2 5 3]"; got != want {
		t.Errorf("computed in order %s, want %s", got, want)
	}
	var committed []int
	for _, r := range e.records {
		committed = append(committed, r.Key)
	}
	if got, want := fmt.Sprint(committed), "[1 2 3 4 5]"; got != want {
		t.Errorf("committed in order %s, want %s", got, want)
	}
}

func TestErrorsAreMemoized(t *testing.T) {
	boom := errors.New("boom")
	var computed atomic.Int64
	e := intEngine(2, func(k int) (string, error) {
		computed.Add(1)
		if k%2 == 1 {
			return "", fmt.Errorf("key %d: %w", k, boom)
		}
		return "ok", nil
	})
	if err := e.Prefetch([]int{2, 1, 3}); err == nil {
		t.Fatal("Prefetch must surface a compute error")
	} else if !errors.Is(err, boom) || !strings.Contains(err.Error(), "key 1") {
		t.Errorf("Prefetch error %v, want first error in key order (key 1)", err)
	}
	// Errors are cached: re-Get does not recompute.
	if _, err := e.Get(1); !errors.Is(err, boom) {
		t.Errorf("Get(1) err = %v, want cached boom", err)
	}
	if computed.Load() != 3 {
		t.Errorf("computed %d, want 3", computed.Load())
	}
	st := e.Stats()
	if st.Errors != 2 {
		t.Errorf("errors %d, want 2", st.Errors)
	}
	if v, err := e.Get(2); v != "ok" || err != nil {
		t.Errorf("Get(2) = %q, %v", v, err)
	}
}

func TestInjectedClockTiming(t *testing.T) {
	var tick atomic.Int64
	e := New(func(k int) (string, error) { return "v", nil }, Options[int, string]{
		Workers: 1,
		Compare: func(a, b int) int { return a - b },
		// Each clock read advances 5 ns, so every compute measures
		// exactly 5 ns — deterministic timing for the assertion.
		Clock: func() int64 { return tick.Add(5) },
	})
	if err := e.Prefetch([]int{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.ComputeNanos != 15 {
		t.Errorf("ComputeNanos = %d, want 15", st.ComputeNanos)
	}
	for _, r := range e.Records() {
		if r.Nanos != 5 {
			t.Errorf("record %v Nanos = %d, want 5", r.Key, r.Nanos)
		}
	}
}

func TestNoClockMeansZeroTiming(t *testing.T) {
	e := intEngine(1, func(k int) (string, error) { return "v", nil })
	if _, err := e.Get(1); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.ComputeNanos != 0 {
		t.Errorf("ComputeNanos = %d without a clock, want 0", st.ComputeNanos)
	}
}

// TestConcurrentGetAndPrefetch hammers the engine from many goroutines
// (run under -race): overlapping prefetches and point Gets over a
// shared key space must produce exactly one computation per key.
func TestConcurrentGetAndPrefetch(t *testing.T) {
	const keys = 40
	var computed [keys]atomic.Int64
	e := intEngine(8, func(k int) (string, error) {
		computed[k].Add(1)
		return fmt.Sprintf("v%d", k), nil
	})
	all := make([]int, keys)
	for i := range all {
		all[i] = i
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := e.Prefetch(all); err != nil {
				t.Errorf("Prefetch: %v", err)
			}
		}()
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < keys; i++ {
				k := (i*7 + g) % keys
				v, err := e.Get(k)
				if err != nil || v != fmt.Sprintf("v%d", k) {
					t.Errorf("Get(%d) = %q, %v", k, v, err)
				}
			}
		}(g)
	}
	wg.Wait()
	for k := range computed {
		if n := computed[k].Load(); n != 1 {
			t.Errorf("key %d computed %d times", k, n)
		}
	}
	if st := e.Stats(); st.Computed != keys {
		t.Errorf("Computed = %d, want %d", st.Computed, keys)
	}
	if recs := e.Records(); len(recs) != keys {
		t.Errorf("records %d, want %d", len(recs), keys)
	}
}

// TestWorkerCountInvariance checks the full observable engine state
// (stats + records) is identical across worker counts.
func TestWorkerCountInvariance(t *testing.T) {
	build := func(workers int) (Stats, []Record[int]) {
		e := intEngine(workers, func(k int) (string, error) {
			if k == 13 {
				return "", errors.New("unlucky")
			}
			return fmt.Sprintf("v%d", k), nil
		})
		var keys []int
		for i := 0; i < 30; i++ {
			keys = append(keys, i, i) // duplicates on purpose
		}
		_ = e.Prefetch(keys) // error expected (key 13)
		return e.Stats(), e.Records()
	}
	s1, r1 := build(1)
	s8, r8 := build(8)
	if s1 != s8 {
		t.Errorf("stats differ across worker counts:\n  w1: %+v\n  w8: %+v", s1, s8)
	}
	if fmt.Sprintf("%v", r1) != fmt.Sprintf("%v", r8) {
		t.Errorf("records differ across worker counts:\n  w1: %v\n  w8: %v", r1, r8)
	}
}

func TestPreloadAndEntriesRoundTrip(t *testing.T) {
	var computed atomic.Int64
	mk := func() *Engine[int, string] {
		return intEngine(2, func(k int) (string, error) {
			computed.Add(1)
			return fmt.Sprintf("v%d", k), nil
		})
	}
	e1 := mk()
	if err := e1.Prefetch([]int{3, 1, 2}); err != nil {
		t.Fatal(err)
	}
	ents := e1.Entries()
	if len(ents) != 3 {
		t.Fatalf("entries %d, want 3", len(ents))
	}
	for i, want := range []int{1, 2, 3} {
		if ents[i].Key != want || ents[i].Val != fmt.Sprintf("v%d", want) {
			t.Errorf("entries[%d] = %+v", i, ents[i])
		}
	}

	// A second engine preloaded from the first computes nothing.
	computed.Store(0)
	e2 := mk()
	e2.Preload(ents)
	if st := e2.Stats(); st.Preloaded != 3 {
		t.Errorf("Preloaded = %d, want 3", st.Preloaded)
	}
	if err := e2.Prefetch([]int{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if computed.Load() != 0 {
		t.Errorf("preloaded engine recomputed %d keys", computed.Load())
	}
	if v, err := e2.Get(2); v != "v2" || err != nil {
		t.Errorf("Get(2) = %q, %v", v, err)
	}
	// Errored keys never persist.
	e3 := intEngine(1, func(k int) (string, error) { return "", errors.New("boom") })
	_, _ = e3.Get(9)
	if got := e3.Entries(); len(got) != 0 {
		t.Errorf("errored key persisted: %+v", got)
	}
}

func TestPreloadDoesNotOverrideFreshResults(t *testing.T) {
	e := intEngine(1, func(k int) (string, error) { return "fresh", nil })
	if _, err := e.Get(1); err != nil {
		t.Fatal(err)
	}
	e.Preload([]Entry[int, string]{{Key: 1, Val: "stale"}, {Key: 2, Val: "loaded"}})
	if st := e.Stats(); st.Preloaded != 1 {
		t.Errorf("Preloaded = %d, want 1 (key 1 already computed)", st.Preloaded)
	}
	if v, _ := e.Get(1); v != "fresh" {
		t.Errorf("Get(1) = %q, preload must not override a computed result", v)
	}
	if v, _ := e.Get(2); v != "loaded" {
		t.Errorf("Get(2) = %q", v)
	}
}

func TestShadowCheckOnHitsDetectsDivergence(t *testing.T) {
	var calls atomic.Int64
	e := New(func(k int) (string, error) {
		// Not a pure function on purpose: recomputations of key 1 differ,
		// which is exactly what a shadow check exists to catch.
		if k == 1 && calls.Add(1) > 1 {
			return "mutated", nil
		}
		if k == 1 {
			return "original", nil
		}
		return fmt.Sprintf("v%d", k), nil
	}, Options[int, string]{
		Workers:        2,
		Compare:        func(a, b int) int { return a - b },
		ShadowFraction: 1,
		Hash:           func(k int) uint32 { return uint32(k) },
		Encode:         func(v string) ([]byte, error) { return []byte(v), nil },
	})
	if err := e.Prefetch([]int{1, 2}); err != nil {
		t.Fatal(err)
	}
	// First hits trigger one shadow check per key.
	if _, err := e.Get(1); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Get(2); err != nil {
		t.Fatal(err)
	}
	// Second hit of key 1 must not re-check (at most one check per key).
	if _, err := e.Get(1); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.ShadowChecked != 2 {
		t.Errorf("ShadowChecked = %d, want 2", st.ShadowChecked)
	}
	if st.ShadowDiverged != 1 {
		t.Errorf("ShadowDiverged = %d, want 1", st.ShadowDiverged)
	}
	divs := e.Divergences()
	if len(divs) != 1 || divs[0].Key != 1 || divs[0].Stored != "original" || divs[0].Recomputed != "mutated" {
		t.Errorf("divergences = %+v", divs)
	}
	// Detection, not repair: the cached value is untouched.
	if v, _ := e.Get(1); v != "original" {
		t.Errorf("cached value after divergence = %q, want untouched original", v)
	}
}

func TestShadowFractionZeroChecksNothing(t *testing.T) {
	e := intEngine(1, func(k int) (string, error) { return "v", nil })
	if _, err := e.Get(1); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Get(1); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.ShadowChecked != 0 {
		t.Errorf("ShadowChecked = %d with no shadow config, want 0", st.ShadowChecked)
	}
}

func TestInterruptDrainsPrefetch(t *testing.T) {
	const keys = 12
	started := make(chan int, keys)
	release := make(chan struct{})
	e := intEngine(1, func(k int) (string, error) {
		started <- k
		<-release
		return fmt.Sprintf("v%d", k), nil
	})
	all := make([]int, keys)
	for i := range all {
		all[i] = i
	}
	done := make(chan error, 1)
	go func() { done <- e.Prefetch(all) }()
	<-started // one worker is inside compute; the rest of the batch is queued
	e.Interrupt()
	close(release)
	if err := <-done; !errors.Is(err, ErrInterrupted) {
		t.Fatalf("interrupted Prefetch returned %v, want ErrInterrupted", err)
	}
	st := e.Stats()
	if st.Computed == 0 || st.Computed >= keys {
		t.Errorf("Computed = %d, want the in-flight prefix only (0 < n < %d)", st.Computed, keys)
	}
	// In-flight work committed and persists…
	if len(e.Entries()) != st.Computed {
		t.Errorf("entries %d != computed %d", len(e.Entries()), st.Computed)
	}
	// …and skipped keys were released, not poisoned: Get computes them.
	if v, err := e.Get(keys - 1); err != nil || v == "" {
		t.Errorf("Get of a skipped key after interrupt = %q, %v", v, err)
	}
}

// TestPrefetchUntilCancelsOneBatchOnly: a per-batch stop channel drains
// that batch alone — in-flight work commits, skipped keys stay
// uncomputed and unpoisoned — while the engine keeps serving other
// batches normally afterwards.
func TestPrefetchUntilCancelsOneBatchOnly(t *testing.T) {
	const keys = 12
	started := make(chan int, keys)
	release := make(chan struct{})
	e := intEngine(1, func(k int) (string, error) {
		started <- k
		<-release
		return fmt.Sprintf("v%d", k), nil
	})
	all := make([]int, keys)
	for i := range all {
		all[i] = i
	}
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() { done <- e.PrefetchUntil(all, stop) }()
	<-started // one worker is inside compute; the rest is queued
	close(stop)
	close(release)
	if err := <-done; !errors.Is(err, ErrInterrupted) {
		t.Fatalf("cancelled PrefetchUntil returned %v, want ErrInterrupted", err)
	}
	st := e.Stats()
	if st.Computed == 0 || st.Computed >= keys {
		t.Fatalf("Computed = %d, want the in-flight prefix only (0 < n < %d)", st.Computed, keys)
	}
	if len(e.Entries()) != st.Computed {
		t.Errorf("entries %d != computed %d", len(e.Entries()), st.Computed)
	}
	// The engine itself was not interrupted: a fresh batch over the same
	// keys completes every remaining key.
	if err := e.Prefetch(all); err != nil {
		t.Fatalf("Prefetch after a cancelled batch: %v", err)
	}
	if got := len(e.Entries()); got != keys {
		t.Errorf("entries after follow-up batch = %d, want %d", got, keys)
	}
}

// TestPrefetchUntilStopUnblocksJoinWait: a batch joining a key another
// caller is computing must not wait out that computation once its stop
// fires — the join drain observes the same stop signals as dispatch.
func TestPrefetchUntilStopUnblocksJoinWait(t *testing.T) {
	started := make(chan int, 1)
	release := make(chan struct{})
	e := intEngine(1, func(k int) (string, error) {
		started <- k
		<-release
		return fmt.Sprintf("v%d", k), nil
	})
	getDone := make(chan struct{})
	go func() { defer close(getDone); _, _ = e.Get(7) }()
	<-started // the Get owns key 7's inflight call

	// The batch has no work of its own — key 7 is inflight, so it joins
	// and parks in the drain. Fire stop instead of releasing the owner.
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() { done <- e.PrefetchUntil([]int{7}, stop) }()
	close(stop)
	if err := <-done; !errors.Is(err, ErrInterrupted) {
		t.Fatalf("stopped join wait returned %v, want ErrInterrupted", err)
	}

	// The abandoned join did not disturb the owner: the Get completes
	// and commits normally.
	close(release)
	<-getDone
	if v, err := e.Get(7); err != nil || v != "v7" {
		t.Errorf("Get(7) after the stopped join = %q, %v", v, err)
	}
}
