package main

import (
	"sync"
	"time"
)

// The benchmark runs on shared virtual machines whose speed drifts by
// more than its bounds: within ten minutes, the same single-threaded
// windows prefetch took 7.3 s and 11.2 s, and a fixed kernel slowed down
// with it. So every end-to-end timing is scaled to a reference host
// speed, which the run measures with a yardstick: a fixed kernel timed
// in short slices beside the workload, from the start of the run to its
// end. The kernel is the benchmark's own code, so a change to the
// program does not move it. README.md has the measurements.

// yardstickNominalS is the time of one kernel slice on the reference
// host. A reported timing is the measured one × yardstickNominalS ÷ the
// median slice of the run: the time the work would take on a host that
// runs a slice in exactly this long.
const yardstickNominalS = 0.002

// yardstickSteps is one slice of the kernel: about 2 ms on one
// undisturbed core of the 2.1 GHz Xeon host the benchmark was built on.
const yardstickSteps = 400_000

// yardstickPeriod is how often a slice starts. With one thread of
// workload load on a 2-CPU host, a slice every 20 ms keeps the
// yardstick to a tenth of the idle CPU.
const yardstickPeriod = 20 * time.Millisecond

// yardstick times kernel slices on a goroutine of its own until halt.
type yardstick struct {
	stop    chan struct{}
	done    chan struct{}
	mu      sync.Mutex
	samples []float64
	sink    uint64 // the kernel's result, kept so the kernel is not optimized away
}

// startYardstick starts timing slices; halt stops it.
func startYardstick() *yardstick {
	y := &yardstick{stop: make(chan struct{}), done: make(chan struct{})}
	go y.run()
	return y
}

func (y *yardstick) run() {
	defer close(y.done)
	buf := make([]uint64, 1<<15) // 256 KiB: in the core's L2, beyond its L1
	tick := time.NewTicker(yardstickPeriod)
	defer tick.Stop()
	var sink uint64
	for {
		select {
		case <-y.stop:
			y.sink = sink
			return
		case <-tick.C:
		}
		t0 := time.Now()
		sink += walk(buf, yardstickSteps)
		d := time.Since(t0).Seconds()
		y.mu.Lock()
		y.samples = append(y.samples, d)
		y.mu.Unlock()
	}
}

// halt stops the yardstick and waits for its goroutine to end.
func (y *yardstick) halt() {
	close(y.stop)
	<-y.done
}

// median is the median slice time so far (NaN before the first slice).
func (y *yardstick) median() float64 {
	y.mu.Lock()
	defer y.mu.Unlock()
	return median(y.samples)
}

// count is the number of slices timed so far.
func (y *yardstick) count() int {
	y.mu.Lock()
	defer y.mu.Unlock()
	return len(y.samples)
}

// scale is the factor that converts a time measured in this run to the
// reference host: yardstickNominalS ÷ the median slice.
func (y *yardstick) scale() float64 { return yardstickNominalS / y.median() }

// walk is the kernel: a xorshift walk over buf that stores on a quarter
// of its steps and loads on the rest, behind a branch no predictor can
// learn, like a simulator's table lookups.
func walk(buf []uint64, steps int) uint64 {
	x := uint64(88172645463325252)
	var s uint64
	mask := uint64(len(buf) - 1)
	for i := 0; i < steps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & mask
		if x&3 == 0 {
			buf[j] += x
		} else {
			s += buf[j]
		}
	}
	return s
}
