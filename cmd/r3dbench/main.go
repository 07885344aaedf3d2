// Command r3dbench regenerates every table and figure of the paper's
// evaluation (see DESIGN.md for the experiment index and EXPERIMENTS.md
// for paper-vs-measured numbers).
//
// Experiments come from the experiment registry: r3dbench prefetches
// the union of the selected experiments' run manifests across -workers
// goroutines, then renders serially in registry order. Output on stdout
// is byte-identical for every worker count; the -stats/-json engine
// report goes to stderr.
//
// Usage:
//
//	r3dbench                 # full windows, all 19 benchmarks (minutes)
//	r3dbench -fast           # small windows, 6-benchmark subset (seconds)
//	r3dbench -only fig4      # one experiment (see -only with a bad name
//	                         # for the full list)
//	r3dbench -workers 8      # prefetch pool width (default GOMAXPROCS)
//	r3dbench -stats          # human engine report on stderr
//	r3dbench -json           # JSON engine report on stderr
//	r3dbench -cpuprofile f   # runtime/pprof CPU profile, written at exit
//	r3dbench -memprofile f   # runtime/pprof heap profile, written at exit
//	                         # after a GC
//
// Warm starts: -checkpoint persists every computed simulation window at
// exit to a cache file of CRC-guarded records, replaced whole and
// atomically, and -restore preloads its valid records on the next
// invocation, so repeated runs (or a run resumed after SIGINT)
// recompute only the windows they are missing; a damaged record and
// those after it are dropped with a note and recomputed. The cache is
// fingerprinted by quality and build: a stale or foreign cache fails
// loudly instead of polluting results. -shadow
// re-verifies a deterministic fraction of cache hits by recomputing
// them from scratch and byte-comparing the results; divergences are
// reported on stderr and exit non-zero.
//
//	r3dbench -fast -checkpoint bench.ckpt            # first run, saves cache
//	r3dbench -fast -checkpoint bench.ckpt -restore   # warm start
//	r3dbench -fast -checkpoint bench.ckpt -restore -shadow 0.2
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"r3d/internal/experiment"
	"r3d/internal/runsched"
)

func main() { os.Exit(run()) }

// run is the whole command; it returns the exit code so deferred work
// (the CPU and heap profiles) completes on the clean and the drained
// exits alike.
func run() int {
	fast := flag.Bool("fast", false, "small simulation windows and a benchmark subset")
	only := flag.String("only", "", "run a single experiment")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "prefetch worker pool width")
	stats := flag.Bool("stats", false, "print the engine report to stderr")
	jsonOut := flag.Bool("json", false, "print the engine report as JSON to stderr")
	checkpoint := flag.String("checkpoint", "", "run-cache path: computed windows are persisted here at exit")
	restore := flag.Bool("restore", false, "preload the -checkpoint cache before running (warm start)")
	shadow := flag.Float64("shadow", 0, "fraction of cache hits to re-verify by recomputation (0..1)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile (runtime/pprof) to this file at exit")
	memprofile := flag.String("memprofile", "", "write a heap profile (runtime/pprof) to this file at exit, after a GC")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatalf("cpuprofile: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatalf("cpuprofile: %v", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				log.Printf("cpuprofile: %v", err)
			}
		}()
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			log.Fatalf("memprofile: %v", err)
		}
		defer func() {
			runtime.GC() // bring the in-use figures up to the exit state
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Printf("memprofile: %v", err)
			}
			if err := f.Close(); err != nil {
				log.Printf("memprofile: %v", err)
			}
		}()
	}

	q := experiment.Full()
	if *fast {
		q = experiment.Fast()
	}

	selected := experiment.Registry()
	if *only != "" {
		e, ok := experiment.Find(*only)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; valid experiments:\n  %s\n",
				*only, strings.Join(experiment.Names(), " "))
			return 2
		}
		selected = []experiment.Experiment{e}
	}

	// The host clock is injected here: model code never reads it (the
	// wallclock analyzer forbids time.* under internal/), and timings
	// only feed the stderr report, never stdout bytes.
	s := experiment.NewSessionWith(q, experiment.SessionOptions{
		Workers:        *workers,
		Clock:          func() int64 { return time.Now().UnixNano() },
		ShadowFraction: *shadow,
	})

	if *restore {
		if *checkpoint == "" {
			log.Fatal("-restore requires -checkpoint")
		}
		n, notes, err := s.LoadCache(*checkpoint)
		for _, note := range notes {
			fmt.Fprintln(os.Stderr, note)
		}
		if err != nil {
			log.Fatalf("restore: %v", err)
		}
		if n > 0 {
			fmt.Fprintf(os.Stderr, "restored %d window(s) from %s\n", n, *checkpoint)
		}
	}

	// saveCache persists every window computed so far; called on both
	// the clean exit and the drained one, so an interrupted run's work
	// survives for the next -restore.
	saveCache := func() {
		if *checkpoint == "" {
			return
		}
		n, err := s.SaveCache(*checkpoint)
		if err != nil {
			log.Fatalf("checkpoint: %v", err)
		}
		fmt.Fprintf(os.Stderr, "saved %d window(s) to %s\n", n, *checkpoint)
	}

	// finishShadow reports divergences and thermal warnings; it returns
	// the exit code contribution (2 on divergence, else 0).
	finishShadow := func() int {
		code := 0
		for _, d := range s.ShadowDivergences() {
			fmt.Fprintf(os.Stderr, "SHADOW DIVERGENCE %s:\n  stored:     %s\n  recomputed: %s\n", d.Key, d.Stored, d.Recomputed)
			code = 2
		}
		if st := s.EngineStats(); st.ShadowChecked > 0 {
			fmt.Fprintf(os.Stderr, "shadow-verified %d cached window(s), %d divergence(s)\n", st.ShadowChecked, st.ShadowDiverged)
		}
		if n := s.ThermalWarnings(); n > 0 {
			fmt.Fprintf(os.Stderr, "warning: %d thermal solve(s) hit the iteration cap before converging\n", n)
		}
		return code
	}

	// Graceful drain: the first SIGINT/SIGTERM interrupts the engine —
	// in-flight windows finish and are saved — and r3dbench exits 130
	// with a warm-startable cache. A second signal aborts immediately.
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		log.Print("signal: draining (in-flight windows finish; interrupt again to abort)")
		s.Interrupt()
		<-sigc
		os.Exit(130)
	}()

	if err := s.Prefetch(experiment.ManifestUnion(q, selected)); err != nil {
		if errors.Is(err, runsched.ErrInterrupted) {
			saveCache()
			finishShadow()
			return 130
		}
		log.Fatalf("prefetch: %v", err)
	}

	for _, e := range selected {
		r, err := e.Run(s, *workers)
		if err != nil {
			if errors.Is(err, runsched.ErrInterrupted) {
				saveCache()
				finishShadow()
				return 130
			}
			log.Fatalf("%s: %v", e.Name, err)
		}
		fmt.Println(r)
	}

	saveCache()
	code := finishShadow()

	if *jsonOut {
		b, err := s.EngineReport().JSON()
		if err != nil {
			log.Fatalf("engine report: %v", err)
		}
		fmt.Fprintf(os.Stderr, "%s\n", b)
	} else if *stats {
		fmt.Fprint(os.Stderr, s.EngineReport())
	}
	return code
}
