package runsched

import (
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// waitJoiners blocks until n goroutines wait in Flight.Do for a call
// that another goroutine is computing. Do counts nothing before it
// blocks, so this reads the goroutines' stacks.
func waitJoiners(n int) {
	buf := make([]byte, 1<<20)
	for {
		stacks := string(buf[:runtime.Stack(buf, true)])
		if strings.Count(stacks, "[chan receive]:\nr3d/internal/runsched.(*Flight[...]).Do(") >= n {
			return
		}
		runtime.Gosched()
	}
}

// notRun is the fn of a Do that must find the key published.
func notRun() (string, error) { return "", errors.New("fn ran for a published key") }

func TestFlightHit(t *testing.T) {
	var f Flight[int, string]
	runs := 0
	fn := func() (string, error) {
		runs++
		return "v", nil
	}
	for i, want := range []Outcome{Computed, Hit, Hit} {
		if v, how, err := f.Do(1, fn); v != "v" || how != want || err != nil {
			t.Fatalf("call %d: Do = %q, %d, %v; want \"v\", %d, nil", i, v, how, err, want)
		}
	}
	if runs != 1 {
		t.Errorf("fn ran %d times, want 1", runs)
	}
}

// TestFlightJoinersShareOneCall starts callers of one key while the
// first caller's fn is running: they all wait for it, and fn runs once.
func TestFlightJoinersShareOneCall(t *testing.T) {
	const joiners = 8
	var f Flight[int, string]
	var runs atomic.Int64
	entered, release := make(chan struct{}), make(chan struct{})
	fn := func() (string, error) {
		if runs.Add(1) == 1 {
			close(entered)
			<-release
		}
		return "v", nil
	}
	outcomes := make(chan Outcome, joiners+1)
	var wg sync.WaitGroup
	call := func() {
		defer wg.Done()
		v, how, err := f.Do(1, fn)
		if v != "v" || err != nil {
			t.Errorf("Do = %q, %v", v, err)
		}
		outcomes <- how
	}
	wg.Add(1)
	go call()
	<-entered
	for i := 0; i < joiners; i++ {
		wg.Add(1)
		go call()
	}
	waitJoiners(joiners)
	close(release)
	wg.Wait()
	close(outcomes)
	count := map[Outcome]int{}
	for how := range outcomes {
		count[how]++
	}
	if runs.Load() != 1 || count[Computed] != 1 || count[Joined] != joiners {
		t.Errorf("fn ran %d times; outcomes %v, want 1 computed and %d joined", runs.Load(), count, joiners)
	}
}

// TestFlightRetriesAfterFailedCall fails the call another caller has
// joined: the key is withdrawn, not memoized with the error, and the
// joiner computes and publishes it itself.
func TestFlightRetriesAfterFailedCall(t *testing.T) {
	var f Flight[int, string]
	entered, release := make(chan struct{}), make(chan struct{})
	failed := make(chan error, 1)
	go func() {
		_, _, err := f.Do(1, func() (string, error) {
			close(entered)
			<-release
			return "", errors.New("boom")
		})
		failed <- err
	}()
	<-entered
	type result struct {
		v   string
		how Outcome
		err error
	}
	joined := make(chan result, 1)
	go func() {
		v, how, err := f.Do(1, func() (string, error) { return "v", nil })
		joined <- result{v, how, err}
	}()
	waitJoiners(1)
	close(release)
	if err := <-failed; err == nil {
		t.Fatal("the failing call reported no error")
	}
	if r := <-joined; r.v != "v" || r.how != Computed || r.err != nil {
		t.Fatalf("joiner of the failed call: Do = %q, %d, %v; want \"v\", Computed, nil", r.v, r.how, r.err)
	}
	if v, how, err := f.Do(1, notRun); v != "v" || how != Hit || err != nil {
		t.Errorf("after the retry: Do = %q, %d, %v; want the published \"v\"", v, how, err)
	}
}

// TestFlightFnMayCallDo computes one key from another key of the same
// Flight, which deadlocks if Do holds its lock while fn runs.
func TestFlightFnMayCallDo(t *testing.T) {
	var f Flight[int, string]
	v, how, err := f.Do(1, func() (string, error) {
		inner, _, err := f.Do(2, func() (string, error) { return "inner", nil })
		return "outer+" + inner, err
	})
	if v != "outer+inner" || how != Computed || err != nil {
		t.Fatalf("Do = %q, %d, %v", v, how, err)
	}
	if v, how, err := f.Do(2, notRun); v != "inner" || how != Hit || err != nil {
		t.Errorf("inner key: Do = %q, %d, %v; want the published \"inner\"", v, how, err)
	}
}
