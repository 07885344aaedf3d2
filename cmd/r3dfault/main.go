// Command r3dfault runs hardened Monte Carlo fault-injection campaigns:
// a grid of benchmark × seed × rate trials fanned across a worker pool,
// with per-trial panic isolation, a forward-progress watchdog that
// reports wedged trials as "hung", and a resumable JSONL journal.
//
// Examples:
//
//	r3dfault -bench gzip,mcf -seeds 4 -leadrates 20,50 -n 200000
//	r3dfault -bench swim -seeds 8 -timing -taccel 0.02 -workers 8
//	r3dfault -bench gzip -seeds 2 -journal run.jsonl            # first run
//	r3dfault -bench gzip -seeds 2 -journal run.jsonl -resume    # after ^C
//
// Crash safety: -journal makes every completed trial durable, and a
// later -resume re-runs only the trials the journal does not hold.
// SIGINT/SIGTERM drain gracefully — in-flight trials finish and the
// journal is flushed — and the process exits 130 with a resumable state
// (a second signal exits immediately). -shadow re-verifies a
// deterministic fraction of resumed trials by re-running them and
// byte-comparing the outcomes (the paper's RMT idea applied to the
// harness's own state).
//
// Trial failures are data: a campaign whose trials hang or crash still
// reports them in the aggregate and exits 0. Only harness errors (bad
// flags, journal mismatch, I/O) exit non-zero.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"

	"r3d/internal/campaign"
	"r3d/internal/tech"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("r3dfault: ")

	bench := flag.String("bench", "gzip", "comma-separated workload names")
	seeds := flag.Int("seeds", 3, "number of seeds per configuration")
	seed0 := flag.Int64("seed0", 1, "first seed (trials use seed0..seed0+seeds-1)")
	leadRates := flag.String("leadrates", "50", "comma-separated leading-core upset rates per M cycles")
	rfRates := flag.String("rfrates", "50", "comma-separated trailer-RF upset rates per M cycles")
	n := flag.Uint64("n", 100_000, "instructions per trial")
	budget := flag.Uint64("budget", 0, "hard cycle budget per trial (0 = auto from -n)")
	node := flag.Int("node", 65, "technology node for MBU/timing models")
	timing := flag.Bool("timing", false, "enable dynamic timing-error injection")
	critPath := flag.Float64("critpath", 495, "stage critical path in ps (with -timing)")
	tAccel := flag.Float64("taccel", 0.02, "timing-error acceleration (with -timing)")
	l2 := flag.String("l2", "2d-a", "L2 organization: 2d-a, 2d-2a, 3d-2a")
	maxGHz := flag.Float64("maxghz", 2.0, "checker frequency cap (1.4 for the 90nm die)")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "worker-pool width")
	retries := flag.Int("retries", 1, "max retries for trials the watchdog reports hung")
	journal := flag.String("journal", "", "JSONL journal path (enables interruption-safe runs)")
	resume := flag.Bool("resume", false, "reuse completed trials from the journal")
	shadow := flag.Float64("shadow", 0, "fraction of resumed trials to re-verify by re-execution (0..1)")
	jsonOut := flag.Bool("json", false, "emit the aggregated report as JSON instead of a table")
	noRetire := flag.Uint64("noretire", 0, "watchdog no-retire deadline in cycles (0 = default)")
	wallTimeout := flag.Duration("walltimeout", 0, "host-clock stall guard per trial (0 = off; trades determinism of pathological runs for liveness)")
	livelock := flag.Bool("livelock-trial", false, "append a deliberately-wedged self-test trial (expected outcome: hung)")
	livelockAfter := flag.Uint64("livelock-after", 3000, "cycle at which the self-test trial wedges")
	flag.Parse()

	grid := campaign.Grid{
		Benches:       splitList(*bench),
		Seeds:         seedRange(*seed0, *seeds),
		Instructions:  *n,
		CycleBudget:   *budget,
		Node:          tech.Node(*node),
		EnableTiming:  *timing,
		L2:            *l2,
		CheckerMaxGHz: *maxGHz,
	}
	if *timing {
		grid.CritPathPs = *critPath
		grid.TimingAccel = *tAccel
	}
	var err error
	if grid.LeadRates, err = parseRates(*leadRates); err != nil {
		log.Fatalf("-leadrates: %v", err)
	}
	if grid.RFRates, err = parseRates(*rfRates); err != nil {
		log.Fatalf("-rfrates: %v", err)
	}

	specs, err := grid.Trials()
	if err != nil {
		log.Fatal(err)
	}
	if *livelock {
		sp, err := grid.SelfTestTrial(*livelockAfter)
		if err != nil {
			log.Fatal(err)
		}
		specs = append(specs, sp)
	}

	// Graceful drain: the first SIGINT/SIGTERM closes stop — in-flight
	// trials finish and the journal flushes — and the run exits 130
	// resumable. A second signal aborts immediately (the journal still
	// recovers everything already committed).
	stop := make(chan struct{})
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		log.Print("signal: draining (in-flight trials finish; interrupt again to abort)")
		close(stop)
		<-sigc
		os.Exit(130)
	}()

	rep, err := campaign.Run(campaign.Config{
		Workers:        *workers,
		MaxRetries:     *retries,
		JournalPath:    *journal,
		Resume:         *resume,
		ShadowFraction: *shadow,
		Stop:           stop,
		Watchdog:       campaign.Watchdog{NoProgressCycles: *noRetire},
		StallTimeout:   *wallTimeout,
	}, specs)
	if err != nil {
		log.Fatal(err)
	}
	for _, note := range rep.Notes {
		fmt.Fprintln(os.Stderr, note)
	}
	for _, d := range rep.ShadowDivergences {
		fmt.Fprintf(os.Stderr, "SHADOW DIVERGENCE %s:\n  stored:     %s\n  recomputed: %s\n", d.ID, d.Stored, d.Recomputed)
	}
	if rep.ShadowChecked > 0 {
		fmt.Fprintf(os.Stderr, "shadow-verified %d resumed trial(s), %d divergence(s)\n",
			rep.ShadowChecked, len(rep.ShadowDivergences))
	}

	if *jsonOut {
		enc, err := rep.JSON()
		if err != nil {
			log.Fatal(err)
		}
		if _, err := os.Stdout.Write(enc); err != nil {
			log.Fatal(err)
		}
	} else {
		fmt.Print(rep.Table())
	}
	if rep.Interrupted {
		os.Exit(130)
	}
}

func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

func seedRange(first int64, count int) []int64 {
	seeds := make([]int64, 0, count)
	for i := 0; i < count; i++ {
		seeds = append(seeds, first+int64(i))
	}
	return seeds
}

func parseRates(s string) ([]float64, error) {
	var out []float64
	for _, f := range splitList(s) {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return nil, fmt.Errorf("bad rate %q", f)
		}
		out = append(out, v)
	}
	return out, nil
}
