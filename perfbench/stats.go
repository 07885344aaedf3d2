package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// tailLadder lists the percentiles a tail may be reported at, lowest
// first. The tail is the highest of them that still leaves at least
// tailBeyond samples above it, so it is never read off one or two
// outliers.
var tailLadder = []float64{50, 75, 90, 95, 99, 99.9}

const tailBeyond = 10

// percentile returns the nearest-rank p-th percentile of xs (0 < p ≤
// 100) and how many samples lie strictly above that rank. xs need not
// be sorted; it is not modified. An empty sample gives (NaN, 0).
func percentile(xs []float64, p float64) (v float64, beyond int) {
	if len(xs) == 0 {
		return math.NaN(), 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	r := rank(len(s), p)
	return s[r-1], len(s) - r
}

// rank is the 1-based nearest rank of the p-th percentile of n > 0
// samples.
func rank(n int, p float64) int {
	return max(1, min(int(math.Ceil(p/100*float64(n))), n))
}

// tailPercentile is the highest ladder percentile that leaves at least
// tailBeyond of n samples beyond it. When even the median leaves fewer
// (fewer than 20 samples), it is the median with ok=false, so the
// caller can say the tail is unresolved.
func tailPercentile(n int) (p float64, ok bool) {
	p = tailLadder[0]
	for _, q := range tailLadder {
		if n == 0 || n-rank(n, q) < tailBeyond {
			break
		}
		p, ok = q, true
	}
	return p, ok
}

// median is the middle value (mean of the two middle values for an even
// count); NaN for an empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// interval is a half-open [start, end) span of time in nanoseconds.
type interval struct{ start, end int64 }

// selfTime is a span's duration minus the part of it covered by the
// union of its children. Children from parallel workers may overlap
// each other; overlapping parts count once. Child time outside the
// parent (a child that outlived it) is clipped away.
func selfTime(parent interval, children []interval) int64 {
	cs := make([]interval, 0, len(children))
	for _, c := range children {
		c.start = max(c.start, parent.start)
		c.end = min(c.end, parent.end)
		if c.end > c.start {
			cs = append(cs, c)
		}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].start < cs[j].start })
	var covered int64
	var cur interval
	for i, c := range cs {
		switch {
		case i == 0:
			cur = c
		case c.start <= cur.end:
			cur.end = max(cur.end, c.end)
		default:
			covered += cur.end - cur.start
			cur = c
		}
	}
	if len(cs) > 0 {
		covered += cur.end - cur.start
	}
	return parent.end - parent.start - covered
}

// tally counts the operations a run attempted and the ones that failed.
// Every failure carries a one-line reason; a run is correct only when
// none failed. It is safe for concurrent use.
type tally struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
	reasons   []string
}

// attempt records n more attempted operations.
func (t *tally) attempt(n int) {
	t.mu.Lock()
	t.attempted += int64(n)
	t.mu.Unlock()
}

// fail records one failed operation. It does not count an attempt: the
// operation was counted when it was attempted.
func (t *tally) fail(format string, args ...any) {
	t.mu.Lock()
	t.failed++
	t.reasons = append(t.reasons, fmt.Sprintf(format, args...))
	t.mu.Unlock()
}

// check records one attempted comparison and fails it when ok is false.
func (t *tally) check(ok bool, format string, args ...any) {
	t.attempt(1)
	if !ok {
		t.fail(format, args...)
	}
}

// counts returns (attempted, failed, reasons) so far.
func (t *tally) counts() (int64, int64, []string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.attempted, t.failed, append([]string(nil), t.reasons...)
}

// failedFrac is failed ÷ attempted (0 when nothing was attempted).
func (t *tally) failedFrac() float64 {
	a, f, _ := t.counts()
	if a == 0 {
		return 0
	}
	return float64(f) / float64(a)
}
