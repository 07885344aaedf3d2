package lint

import (
	"strings"
	"testing"
)

func TestChanOwnCloseOwnership(t *testing.T) {
	src := `package fixture

type feed struct {
	updates chan int
}

func newFeed() *feed {
	return &feed{updates: make(chan int)}
}

// Close is a method of the owning type: clean.
func (f *feed) Close() {
	close(f.updates)
}

// hijack closes a parameter it does not own.
func hijack(ch chan int) {
	close(ch)
}

// poach closes another type's field from a plain function.
func poach(f *feed) {
	close(f.updates)
}

// rebuild allocates the field itself, so its close is sanctioned.
func rebuild() {
	f := &feed{updates: make(chan int)}
	close(f.updates)
}

// retire is the sanctioned hand-off: the owner delegates the close.
//
// r3dlint:closer the producer hands the drained channel here to close
func retire(ch chan int) {
	close(ch)
}

func produce() {
	ch := make(chan int, 4)
	ch <- 1
	retire(ch)
}
`
	got := findings(t, ChanOwn, modelPath, src)
	wantChecks(t, got, "chanown", "chanown")
	if !strings.Contains(got[0].Message, "channel parameter ch") {
		t.Errorf("param close message: %q", got[0].Message)
	}
	if !strings.Contains(got[1].Message, "outside its owning type") {
		t.Errorf("field close message: %q", got[1].Message)
	}
}

func TestChanOwnDoubleCloseAndSendAfterClose(t *testing.T) {
	src := `package fixture

func double(ok bool) {
	done := make(chan struct{})
	close(done)
	if !ok {
		close(done)
	}
}

func resend() {
	out := make(chan int, 1)
	close(out)
	out <- 1
}

// reopen reassigns between the closes: clean.
func reopen() {
	ch := make(chan int)
	close(ch)
	ch = make(chan int)
	close(ch)
}

// branchClose closes on only one arm, then closes after the join: the
// may-closed path is flagged.
func branchClose(ok bool) {
	ch := make(chan int)
	if ok {
		close(ch)
	}
	close(ch)
}

func deferredDouble() {
	ch := make(chan int)
	defer close(ch)
	defer close(ch)
}
`
	got := findings(t, ChanOwn, modelPath, src)
	wantChecks(t, got, "chanown", "chanown", "chanown", "chanown")
	if !strings.Contains(got[0].Message, "second close") {
		t.Errorf("double close message: %q", got[0].Message)
	}
	if !strings.Contains(got[1].Message, "send on out after close") {
		t.Errorf("send-after-close message: %q", got[1].Message)
	}
	if !strings.Contains(got[3].Message, "second deferred close") {
		t.Errorf("deferred double close message: %q", got[3].Message)
	}
}

func TestChanOwnInterproceduralCloseChain(t *testing.T) {
	src := `package fixture

// finish forwards to sink, which closes: the summary chain crosses two
// calls.
func finish(ch chan int) {
	sink(ch)
}

// r3dlint:closer drained batches are retired here
func sink(ch chan int) {
	close(ch)
}

func run() {
	ch := make(chan int)
	close(ch)
	finish(ch)
}

func pump(ch chan int) {
	ch <- 9
}

func runSend() {
	ch := make(chan int, 1)
	close(ch)
	pump(ch)
}
`
	got := findings(t, ChanOwn, modelPath, src)
	// finish only forwards to the annotated closer, so it is clean; run
	// passes a closed channel to finish (finding), runSend passes a
	// closed channel to pump which sends (finding).
	wantChecks(t, got, "chanown", "chanown")
	if !strings.Contains(got[0].Message, "finish → sink → close(ch)") {
		t.Errorf("close chain missing: %q", got[0].Message)
	}
	if !strings.Contains(got[1].Message, "pump → send(ch)") {
		t.Errorf("send chain missing: %q", got[1].Message)
	}
}

// A call whose callee closes the channel closes it for the rest of the
// caller's path; a call whose callee does not leaves the state as it
// was.
func TestChanOwnSendAfterCallThatCloses(t *testing.T) {
	src := `package fixture

// r3dlint:closer drained batches are retired here
func sink(ch chan int) {
	close(ch)
}

func keep(ch chan int) {}

func sendAfterSink(ok bool) {
	ch := make(chan int, 1)
	if ok {
		sink(ch)
	}
	ch <- 1
}

func sendAfterKeep() {
	ch := make(chan int, 1)
	keep(ch)
	ch <- 1
}
`
	got := findings(t, ChanOwn, modelPath, src)
	wantChecks(t, got, "chanown")
	if want := "send on ch after close at fixture.go:13"; got[0].Message != want {
		t.Errorf("message %q, want %q", got[0].Message, want)
	}
}

func TestChanOwnNilChannels(t *testing.T) {
	src := `package fixture

func stuckSend() {
	var ch chan int
	ch <- 1
}

func stuckRecv() {
	var ch chan int
	<-ch
}

// disabled uses a nil channel to park a select case: idiomatic, clean.
func disabled(in chan int) int {
	var gate chan int
	for {
		select {
		case v := <-gate:
			return v
		case v := <-in:
			return v
		}
	}
}

// madeLater is nil only until the make: clean.
func madeLater() {
	var ch chan int
	ch = make(chan int, 1)
	ch <- 1
}
`
	got := findings(t, ChanOwn, modelPath, src)
	wantChecks(t, got, "chanown", "chanown")
	if !strings.Contains(got[0].Message, "send on nil channel") {
		t.Errorf("nil send message: %q", got[0].Message)
	}
	if !strings.Contains(got[1].Message, "receive from nil channel") {
		t.Errorf("nil recv message: %q", got[1].Message)
	}
}

func TestChanOwnSuppressionAndFieldReassign(t *testing.T) {
	src := `package fixture

type job struct {
	changed chan struct{}
}

// bump is the close-then-rearm broadcast: the reassignment clears the
// closed state, so the later close of the fresh channel is clean.
func (j *job) bump() {
	close(j.changed)
	j.changed = make(chan struct{})
	close(j.changed)
}

func sneak(ch chan int) {
	//lint:ignore chanown fixture: ownership transferred by protocol documented here
	close(ch)
}
`
	got := findings(t, ChanOwn, modelPath, src)
	wantChecks(t, got)
}

// TestSortFindingsBreaksTiesByMessage: the second close in Twice gets
// two chanown findings at one position; they print in one order
// whichever order they were reported in.
func TestSortFindingsBreaksTiesByMessage(t *testing.T) {
	got := findings(t, ChanOwn, modelPath, `package fixture

func Twice(ch chan int) { close(ch); close(ch) }
`)
	wantChecks(t, got, "chanown", "chanown", "chanown")
	pair := got[1:]
	if pair[0].Pos != pair[1].Pos {
		t.Fatalf("want two findings at the second close, got %v", got)
	}
	forward := []Finding{pair[0], pair[1]}
	backward := []Finding{pair[1], pair[0]}
	sortFindings(forward)
	sortFindings(backward)
	if forward[0] != backward[0] || forward[1] != backward[1] {
		t.Errorf("order depends on report order:\n%v\n%v", forward, backward)
	}
}
