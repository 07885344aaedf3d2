// Package stats provides small statistics helpers used throughout the
// simulator: scalar summaries, weighted means, and fixed-bin histograms
// (used, e.g., for the checker-core frequency residency histogram of
// Figure 7).
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// GeoMean returns the geometric mean of xs. All values must be positive;
// non-positive values are skipped. Returns 0 for an empty slice.
func GeoMean(xs []float64) float64 {
	var s float64
	n := 0
	for _, x := range xs {
		if x > 0 {
			s += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(s / float64(n))
}

// WeightedMean returns sum(x*w)/sum(w), or 0 if the weights sum to 0.
func WeightedMean(xs, ws []float64) float64 {
	if len(xs) != len(ws) {
		panic("stats: WeightedMean length mismatch")
	}
	var sx, sw float64
	for i, x := range xs {
		sx += x * ws[i]
		sw += ws[i]
	}
	//lint:ignore floatcmp division guard: weights are nonnegative, so the sum is exactly 0 only when all are
	if sw == 0 {
		return 0
	}
	return sx / sw
}

// Max returns the maximum of xs, or -Inf for an empty slice.
func Max(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// Min returns the minimum of xs, or +Inf for an empty slice.
func Min(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}

// Median returns the median of xs, or 0 for an empty slice.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	n := len(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

// Stddev returns the population standard deviation of xs.
func Stddev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)))
}

// Histogram is a fixed-bin histogram over [Lo, Hi). Samples outside the
// range are clamped into the first/last bin so that total mass is
// preserved (the paper's Figure 7 bins frequency residency into 0.1·f
// steps including the endpoints).
type Histogram struct {
	Lo, Hi float64
	Counts []float64 // weight accumulated per bin
	total  float64
}

// NewHistogram creates a histogram with bins equal-width bins over [lo, hi).
func NewHistogram(lo, hi float64, bins int) *Histogram {
	if bins <= 0 || hi <= lo {
		panic("stats: invalid histogram shape")
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]float64, bins)}
}

// Add accumulates weight w at value x.
func (h *Histogram) Add(x, w float64) { h.AddBin(h.BinOf(x), w) }

// AddBin accumulates weight w in bin i, the BinOf of a value a caller
// adds many times.
func (h *Histogram) AddBin(i int, w float64) {
	h.Counts[i] += w
	h.total += w
}

// BinOf returns the bin that Add puts value x in.
func (h *Histogram) BinOf(x float64) int {
	i := int((x - h.Lo) / (h.Hi - h.Lo) * float64(len(h.Counts)))
	if i < 0 {
		i = 0
	}
	if i >= len(h.Counts) {
		i = len(h.Counts) - 1
	}
	return i
}

// Total returns the total accumulated weight.
func (h *Histogram) Total() float64 { return h.total }

// Fractions returns the per-bin fraction of total weight (zeros if empty).
func (h *Histogram) Fractions() []float64 {
	out := make([]float64, len(h.Counts))
	//lint:ignore floatcmp division guard: bin weights are nonnegative, so total is exactly 0 only for an empty histogram
	if h.total == 0 {
		return out
	}
	for i, c := range h.Counts {
		out[i] = c / h.total
	}
	return out
}

// ModeBin returns the index of the heaviest bin (lowest index wins ties).
func (h *Histogram) ModeBin() int {
	best := 0
	for i, c := range h.Counts {
		if c > h.Counts[best] {
			best = i
		}
	}
	return best
}

// BinCenter returns the center value of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	w := (h.Hi - h.Lo) / float64(len(h.Counts))
	return h.Lo + (float64(i)+0.5)*w
}

// WeightedMeanValue returns the histogram-weighted mean using bin centers.
func (h *Histogram) WeightedMeanValue() float64 {
	//lint:ignore floatcmp division guard: bin weights are nonnegative, so total is exactly 0 only for an empty histogram
	if h.total == 0 {
		return 0
	}
	var s float64
	for i, c := range h.Counts {
		s += h.BinCenter(i) * c
	}
	return s / h.total
}

// String renders a simple ASCII bar chart, one row per bin.
func (h *Histogram) String() string {
	var b strings.Builder
	fr := h.Fractions()
	for i, f := range fr {
		bar := strings.Repeat("#", int(f*60+0.5))
		fmt.Fprintf(&b, "%6.2f | %-60s %5.1f%%\n", h.BinCenter(i), bar, f*100)
	}
	return b.String()
}

// Counter is a monotonically increasing named event counter set.
type Counter struct {
	m map[string]uint64
}

// NewCounter returns an empty counter set.
func NewCounter() *Counter { return &Counter{m: map[string]uint64{}} }

// Inc adds n to the named counter.
func (c *Counter) Inc(name string, n uint64) { c.m[name] += n }

// Get returns the value of the named counter (0 if never incremented).
func (c *Counter) Get(name string) uint64 { return c.m[name] }

// Names returns the sorted list of counter names.
func (c *Counter) Names() []string {
	out := make([]string, 0, len(c.m))
	for k := range c.m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
