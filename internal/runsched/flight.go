package runsched

import "sync"

// Outcome says how Flight.Do produced the value it returned.
type Outcome int

const (
	// Computed: this call ran fn.
	Computed Outcome = iota
	// Hit: the value was already published.
	Hit
	// Joined: this call waited for another caller's fn, which succeeded.
	Joined
)

// Flight memoizes one value per key with per-key singleflight: each
// key's value is computed once and published, and a computation that
// fails publishes nothing. Unlike Engine it memoizes no errors, keeps
// no order and counts nothing; callers count Do's outcomes. The zero
// value is ready to use. A Flight must not be copied after first use.
type Flight[K comparable, V any] struct {
	mu sync.Mutex
	// r3dlint:guardedby mu
	vals map[K]V
	// r3dlint:guardedby mu
	calls map[K]*flightCall[V]
}

// flightCall is one running fn; done is closed once val and err are set.
type flightCall[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// Do returns k's published value (Hit), waits for the call computing k
// and returns its value (Joined), or runs fn with no lock held (Computed):
// it publishes fn's value on success and withdraws k on error, so a
// caller that was waiting on the failed call tries again and computes k
// itself unless another caller got there first. fn may call Do on other
// keys of the same Flight, but not on k.
func (f *Flight[K, V]) Do(k K, fn func() (V, error)) (V, Outcome, error) {
	f.mu.Lock()
	for {
		if v, ok := f.vals[k]; ok {
			f.mu.Unlock()
			return v, Hit, nil
		}
		c, ok := f.calls[k]
		if !ok {
			break
		}
		f.mu.Unlock()
		<-c.done
		if c.err == nil {
			return c.val, Joined, nil
		}
		f.mu.Lock()
	}
	if f.calls == nil {
		f.vals = map[K]V{}
		f.calls = map[K]*flightCall[V]{}
	}
	c := &flightCall[V]{done: make(chan struct{})}
	f.calls[k] = c
	f.mu.Unlock()

	c.val, c.err = fn()
	f.mu.Lock()
	delete(f.calls, k)
	if c.err == nil {
		f.vals[k] = c.val
	}
	f.mu.Unlock()
	close(c.done)
	return c.val, Computed, c.err
}
