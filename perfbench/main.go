// Command perfbench is the r3d benchmark. It drives one workload through
// the public APIs of the experiment engine, the simulation daemon and the
// simulator modules, checks every output against references, and prints
// the end-to-end metrics (or, with -trace 1, the per-layer metrics) as
// the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload windows --seed 42 --seconds 30 --trace 0
//
// Workloads (README.md has the details and the prediction table):
//
//	windows      cold prefetch + save of the -fast manifest union
//	warm-render  restore of a complete window cache + render of the registry
//	serve        an in-process r3dserve driven by closed-loop HTTP clients
//
// Every file a run writes stays under .bench_build/ in the working
// directory; the traced run leaves its spans there as a Chrome
// trace-event file.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"
)

const (
	// defaultSeed is the seed the references were first recorded for;
	// it is also experiment.Fast()'s generator seed, so the windows
	// workload at this seed computes exactly r3dbench -fast's windows.
	defaultSeed = 42
	// heldOutSeed has references too, so a claim can be checked on a
	// seed nobody tuned against.
	heldOutSeed = 7
	// dtmHorizonMs is warm-render's DTM horizon, a size parameter the
	// run records. The registry renders the DTM study at 300 ms; 4 ms
	// keeps the transient the largest part of a render pass while a pass
	// stays a few seconds long.
	dtmHorizonMs = 4
	// stateRoot holds every file a run writes, relative to the working
	// directory (the checkout root).
	stateRoot = ".bench_build/perfbench"
	// loadThreads is the width of every workload's load: windows
	// workers, serve clients and job workers. One, not nproc: the host
	// at times grants this machine less than one CPU of time in all,
	// and two busy threads then run at about a third of their speed
	// each, where one thread keeps three quarters of its speed
	// (README.md has the measurements).
	loadThreads = 1
	// minIterations is the fewest iterations a workload measures,
	// however short -seconds is.
	minIterations = 3
)

// runConfig is one invocation's settings.
type runConfig struct {
	workload  string
	seed      int64
	seconds   int
	trace     bool
	writeRefs bool
	nproc     int
	stateDir  string
	refs      *seedRefs // nil when the seed has no recorded references
	tr        *tracer   // nil on untraced runs
	yard      *yardstick
	start     time.Time
}

// clock is the monotonic nanosecond clock injected into the sessions and
// the daemon; model code never reads the host clock itself.
func (rc *runConfig) clock() int64 { return int64(time.Since(rc.start)) }

// outcome is what a workload produces.
type outcome struct {
	tl      tally
	e2e     metricSet
	layers  metricSet
	sources map[string]string // per-layer metric → what measured it
	meta    map[string]any
	lines   []string // human-readable report
}

func newOutcome() *outcome {
	return &outcome{e2e: metricSet{}, layers: metricSet{}, sources: map[string]string{}, meta: map[string]any{}}
}

func (o *outcome) printf(format string, args ...any) {
	o.lines = append(o.lines, fmt.Sprintf(format, args...))
}

// layer records per-layer metrics measured by source. A metric already
// recorded keeps its first source: workloads record their own
// measurements before any probe runs.
func (o *outcome) layer(source string, m metricSet) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if _, ok := o.layers[n]; ok {
			continue
		}
		o.layers[n] = m[n]
		o.sources[n] = source
	}
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("perfbench: ")
	workload := flag.String("workload", "", "workload to run: windows, warm-render or serve")
	seed := flag.Int64("seed", defaultSeed, "workload seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 20, "how long the measured phase runs; it runs whole iterations, at least three")
	traceFlag := flag.Int("trace", 0, "1 runs the traced variant and reports the per-layer metrics")
	writeRefs := flag.Bool("write-refs", false, "record this run's outputs as the seed's references in perfbench/refs instead of checking them")
	flag.Parse()

	if *traceFlag != 0 && *traceFlag != 1 {
		log.Fatalf("-trace must be 0 or 1, not %d", *traceFlag)
	}
	if *seconds < 1 {
		log.Fatalf("-seconds must be ≥ 1, not %d", *seconds)
	}
	rc := &runConfig{
		workload:  *workload,
		seed:      *seed,
		seconds:   *seconds,
		trace:     *traceFlag == 1,
		writeRefs: *writeRefs,
		nproc:     runtime.NumCPU(),
		start:     time.Now(),
	}
	if rc.trace {
		rc.tr = newTracer(rc.clock)
	}
	run, ok := workloads[rc.workload]
	if !ok {
		log.Fatalf("unknown -workload %q (want windows, warm-render or serve)", rc.workload)
	}
	refs, err := loadRefs(rc.seed)
	if err != nil {
		log.Fatal(err)
	}
	rc.refs = refs
	rc.stateDir = filepath.Join(stateRoot, fmt.Sprintf("%s-%d", rc.workload, os.Getpid()))
	if err := os.MkdirAll(rc.stateDir, 0o755); err != nil {
		log.Fatal(err)
	}
	o := newOutcome()
	rc.yard = startYardstick()
	err = run(rc, o)
	rc.yard.halt()
	if rerr := os.RemoveAll(rc.stateDir); rerr != nil && err == nil {
		err = rerr
	}
	if err != nil {
		log.Fatalf("%s: %v", rc.workload, err)
	}
	if err := finish(rc, o); err != nil {
		log.Fatal(err)
	}
}

// workloads maps -workload names to their drivers.
var workloads = map[string]func(*runConfig, *outcome) error{
	"windows":     runWindows,
	"warm-render": runWarmRender,
	"serve":       runServe,
}

// finish prints the report, the run metadata and the result line, and
// exits non-zero when any check failed.
func finish(rc *runConfig, o *outcome) error {
	attempted, failed, reasons := o.tl.counts()
	o.meta["workload"] = rc.workload
	o.meta["seed"] = rc.seed
	o.meta["seconds"] = rc.seconds
	o.meta["traced"] = rc.trace
	o.meta["nproc"] = rc.nproc
	o.meta["gomaxprocs"] = runtime.GOMAXPROCS(0)
	o.meta["go_version"] = runtime.Version()
	o.meta["commit"] = commit()
	o.meta["references"] = refStatus(rc)
	o.meta["failed_frac"] = o.tl.failedFrac()

	defs, values := endToEnd, scaled(o.e2e, rc.yard.scale())
	o.meta["measured"] = o.e2e
	o.meta["yardstick"] = map[string]any{"nominal_s": yardstickNominalS, "median_s": rc.yard.median(),
		"slices": rc.yard.count(), "scale": rc.yard.scale()}
	o.printf("yardstick: median slice %.6f s of %d; timings are scaled by %.4f to a host that runs a slice in %v s",
		rc.yard.median(), rc.yard.count(), rc.yard.scale(), yardstickNominalS)
	if rc.trace {
		defs, values = perLayer, o.layers
		o.meta["sources"] = o.sources
		path := filepath.Join(stateRoot, fmt.Sprintf("trace-%s-seed%d.json", rc.workload, rc.seed))
		if err := rc.tr.writeChrome(path); err != nil {
			return err
		}
		o.meta["trace_file"] = path
		o.printf("spans: %d written to %s (Chrome trace-event format)", len(rc.tr.snapshot()), path)
		o.printf("%-28s %6s %12s %12s", "span", "count", "total_s", "self_s")
		for i, s := range summarize(rc.tr.snapshot()) {
			if i == 15 {
				break
			}
			o.printf("%-28s %6d %12.6f %12.6f", s.Name, s.Count, float64(s.TotalNs)/1e9, float64(s.SelfNs)/1e9)
		}
	}
	metrics, err := values.report(defs)
	if err != nil {
		return err
	}
	for _, d := range defs {
		src := ""
		if rc.trace {
			src = "  [" + o.sources[d.Name] + "]"
		}
		o.printf("%-34s %16.6f %-6s%s", d.Name, metrics[d.Name].Value, d.Unit, src)
	}
	for _, r := range reasons {
		o.printf("FAILED: %s", r)
	}
	for _, l := range o.lines {
		fmt.Println("# " + l)
	}
	meta, err := json.Marshal(map[string]any{"meta": o.meta})
	if err != nil {
		return fmt.Errorf("encode metadata: %w", err)
	}
	fmt.Println(string(meta))
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{failed == 0 && attempted > 0, attempted, failed, metrics})
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	fmt.Println(string(line))
	if failed > 0 || attempted == 0 {
		os.Exit(1)
	}
	return nil
}

// commit is the VCS revision the binary was built from, when the build
// could see one (a plain source checkout has none).
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, modified := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				modified = "+modified"
			}
		}
	}
	return rev + modified
}

// peakRSSMB is the process's resident-set high-water mark so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// measuring reports whether a workload runs iteration i: it measures
// for -seconds from start, and at least minimum iterations. A traced
// run ends on an even count, so its traced and untraced iterations pair
// up.
func (rc *runConfig) measuring(i, minimum int, start time.Time) bool {
	if i < minimum || (rc.trace && i%2 == 1) {
		return true
	}
	return time.Since(start) < time.Duration(rc.seconds)*time.Second
}

// traced reports whether iteration i of a run records spans: on a traced
// run every odd iteration does, so the even ones give the untraced
// baseline the tracing overhead is measured against.
func (rc *runConfig) traced(i int) *tracer {
	if rc.trace && i%2 == 1 {
		return rc.tr
	}
	return nil
}

// overhead records traced minus untraced wall time.
func overhead(o *outcome, walls []float64, rc *runConfig) {
	if !rc.trace {
		return
	}
	var on, off []float64
	for i, w := range walls {
		if rc.traced(i) != nil {
			on = append(on, w)
		} else {
			off = append(off, w)
		}
	}
	d := median(on) - median(off)
	o.meta["trace_overhead_s"] = d
	o.printf("tracing overhead: traced wall_s %.4f − untraced %.4f = %+.4f s", median(on), median(off), d)
}

// stateFile returns a path under the run's state directory.
func (rc *runConfig) stateFile(parts ...string) string {
	return filepath.Join(append([]string{rc.stateDir}, parts...)...)
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }

func sSince(t time.Time) float64 { return time.Since(t).Seconds() }
