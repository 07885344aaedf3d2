package main

import (
	"math"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[n-1-i] = float64(i + 1) // descending: percentile must sort
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	xs := seq(20)
	for _, c := range []struct {
		p      float64
		v      float64
		beyond int
	}{{50, 10, 10}, {75, 15, 5}, {95, 19, 1}, {100, 20, 0}, {1, 1, 19}} {
		v, b := percentile(xs, c.p)
		if v != c.v || b != c.beyond {
			t.Errorf("p%v = %v (%d beyond), want %v (%d beyond)", c.p, v, b, c.v, c.beyond)
		}
	}
	if xs[0] != 20 {
		t.Errorf("percentile sorted its input in place")
	}
	if v, b := percentile(nil, 50); !math.IsNaN(v) || b != 0 {
		t.Errorf("empty sample = %v, %d", v, b)
	}
}

func TestTailPicksHighestPercentileWithTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n      int
		p      float64
		beyond int
		ok     bool
	}{
		{84, 75, 21, true},   // p90 would leave only 8 beyond
		{100, 90, 10, true},  // exactly ten beyond p90
		{99, 75, 24, true},   // p90 rank 90 leaves 9
		{200, 95, 10, true},  // p99 leaves 2
		{1000, 99, 10, true}, // p99.9 leaves 1
		{20, 50, 10, true},   // the median is the only candidate
		{19, 50, 9, false},   // too few for any tail
	} {
		p, ok := tailPercentile(c.n)
		_, beyond := percentile(seq(c.n), p)
		if p != c.p || beyond != c.beyond || ok != c.ok {
			t.Errorf("n=%d: tail p%v (%d beyond, ok=%v), want p%v (%d beyond, ok=%v)", c.n, p, beyond, ok, c.p, c.beyond, c.ok)
		}
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median = %v", m)
	}
	if !math.IsNaN(median(nil)) {
		t.Errorf("empty median is not NaN")
	}
}

func TestSelfTimeCountsOverlappingChildrenOnce(t *testing.T) {
	parent := interval{0, 100}
	for _, c := range []struct {
		name     string
		children []interval
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []interval{{10, 20}, {30, 40}}, 80},
		// Two workers run children at once: [10,50) and [30,70) cover
		// [10,70) together, 60 ns, not 80.
		{"parallel overlap", []interval{{30, 70}, {10, 50}}, 40},
		{"nested", []interval{{10, 90}, {20, 30}, {40, 50}}, 20},
		{"touching", []interval{{10, 20}, {20, 30}}, 80},
		// A child that outlives the parent is clipped to it.
		{"clipped", []interval{{-10, 10}, {90, 150}}, 80},
		{"outside", []interval{{200, 300}}, 100},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self time %d, want %d", c.name, got, c.want)
		}
	}
}

func TestTallyAccountsFailuresAgainstAttempts(t *testing.T) {
	var tl tally
	if tl.failedFrac() != 0 {
		t.Errorf("empty tally has a failure fraction")
	}
	tl.attempt(8)
	tl.fail("window %s errored", "lead/gzip")
	tl.check(true, "never recorded")
	tl.check(false, "digest of %s differs", "rmt/mcf")
	a, f, reasons := tl.counts()
	if a != 10 || f != 2 {
		t.Fatalf("attempted %d failed %d, want 10 and 2", a, f)
	}
	if len(reasons) != 2 || reasons[0] != "window lead/gzip errored" || reasons[1] != "digest of rmt/mcf differs" {
		t.Errorf("reasons = %q", reasons)
	}
	if got := tl.failedFrac(); got != 0.2 {
		t.Errorf("failed fraction %v, want 0.2", got)
	}
}

func TestScaledConvertsTimingsOnly(t *testing.T) {
	m := metricSet{"setup_s": 2, "wall_s": 4, "jobs_per_s": 10, "compute_job_p50_ms": 30, "compute_job_tail_ms": 50, "peak_rss_mb": 25}
	want := metricSet{"setup_s": 1, "wall_s": 2, "jobs_per_s": 20, "compute_job_p50_ms": 15, "compute_job_tail_ms": 25, "peak_rss_mb": 25}
	got := scaled(m, 0.5)
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s scaled by 0.5 = %v, want %v", name, got[name], w)
		}
	}
	if len(got) != len(want) || m["wall_s"] != 4 {
		t.Errorf("scaled returned %v and left its input %v", got, m)
	}
}

func TestYardstickScaleIsNominalOverMedian(t *testing.T) {
	y := &yardstick{}
	if !math.IsNaN(y.scale()) {
		t.Errorf("scale before any slice = %v, want NaN", y.scale())
	}
	y.samples = []float64{0.008, 0.001, 0.004}
	if got, want := y.scale(), yardstickNominalS/0.004; got != want {
		t.Errorf("scale = %v, want %v", got, want)
	}
}

// TestYardstickHaltEndsItsGoroutine: halt returns only once the
// goroutine has ended, so it hangs (and the test times out) if the
// goroutine does not stop.
func TestYardstickHaltEndsItsGoroutine(t *testing.T) {
	y := startYardstick()
	for y.count() == 0 {
		time.Sleep(yardstickPeriod)
	}
	y.halt()
	if !(y.median() > 0) || math.IsNaN(y.scale()) {
		t.Errorf("median slice %v, scale %v after %d slices", y.median(), y.scale(), y.count())
	}
}
