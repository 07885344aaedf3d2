package experiment

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"strings"
	"sync"
	"testing"

	"r3d/internal/nuca"
)

// renderedExperiment is one registry entry's output, exactly as
// r3dbench prints it.
type renderedExperiment struct {
	name, text string
}

// renderAll prefetches the full registry manifest and renders every
// experiment in registry order, mirroring what r3dbench does.
func renderAll(tb testing.TB, s *Session, workers int) []renderedExperiment {
	tb.Helper()
	reg := Registry()
	if err := s.Prefetch(ManifestUnion(s.Q, reg)); err != nil {
		tb.Fatalf("prefetch: %v", err)
	}
	out := make([]renderedExperiment, 0, len(reg))
	for _, e := range reg {
		r, err := e.Run(s, workers)
		if err != nil {
			tb.Fatalf("%s: %v", e.Name, err)
		}
		out = append(out, renderedExperiment{name: e.Name, text: fmt.Sprintln(r)})
	}
	return out
}

func firstDiffLine(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\n  serial:   %q\n  parallel: %q", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("lengths differ: %d vs %d lines", len(al), len(bl))
}

// TestWorkerCountByteIdentity is the engine's hard invariant: the full
// fast-quality suite renders byte-identically on a -workers 1 session
// and a second, fresh -workers 8 session. Thermal solves are pure
// functions of their case key (cold start + deterministic coarse-grid
// preconditioner, memoized as immutable snapshots), so they hold this
// invariant even while running concurrently inside the render.
//
// The serial render is also pinned against testdata/render.golden, one
// SHA-256 per experiment, so a change that moves every render alike
// fails here too. An intended change regenerates the file with
//
//	go test ./internal/experiment -run TestWorkerCountByteIdentity -update
//
// and only the experiments it meant to move change lines.
func TestWorkerCountByteIdentity(t *testing.T) {
	if raceEnabled {
		t.Skip("full fast render is too slow under the race detector; TestConcurrentSessionRace covers concurrency")
	}
	if testing.Short() {
		t.Skip("full fast render in -short mode")
	}
	q := Fast()
	s1 := NewSessionWith(q, SessionOptions{Workers: 1})
	serial := renderAll(t, s1, 1)
	var digests bytes.Buffer
	for _, r := range serial {
		fmt.Fprintf(&digests, "%s %x\n", r.name, sha256.Sum256([]byte(r.text)))
	}
	checkGolden(t, renderGolden, digests.Bytes(), "render digest")
	if *update {
		return
	}
	s8 := NewSessionWith(q, SessionOptions{Workers: 8})
	par := renderAll(t, s8, 8)
	for i := range serial {
		if serial[i].text != par[i].text {
			t.Fatalf("%s: workers=1 and workers=8 output differ; first %s", serial[i].name, firstDiffLine(serial[i].text, par[i].text))
		}
	}
	// The schedule must also be identical work — same windows computed,
	// memoized and deduplicated — regardless of pool width. (Timings are
	// zero here: no clock is injected.)
	st1, st8 := s1.EngineStats(), s8.EngineStats()
	if st1 != st8 {
		t.Errorf("engine stats differ across worker counts: %+v vs %+v", st1, st8)
	}
	if st8.Errors != 0 || st8.Computed == 0 || st8.Hits == 0 {
		t.Errorf("implausible engine stats: %+v", st8)
	}
	// Thermal work must also be schedule-independent: the same distinct
	// cases solved once each, everything else answered from snapshots.
	th1, th8 := s1.ThermalStats(), s8.ThermalStats()
	if th1.Solves != th8.Solves || th1.FineIters != th8.FineIters || th1.CoarseIters != th8.CoarseIters {
		t.Errorf("thermal stats differ across worker counts: %+v vs %+v", th1, th8)
	}
	if th8.Solves == 0 || th8.Hits == 0 {
		t.Errorf("implausible thermal stats: %+v", th8)
	}
}

// TestConcurrentThermalSolves hammers the thermal snapshot store: many
// goroutines solving an overlapping case list concurrently must (a)
// race-cleanly collapse duplicates onto one solve per distinct case and
// (b) return results bit-identical to a fresh serial session — the
// store's contents must not depend on arrival order or worker count.
func TestConcurrentThermalSolves(t *testing.T) {
	q := Fast()
	q.Benchmarks = []string{"gzip", "mesa"}
	q.WarmupInsts = 2_000
	q.MeasureInsts = 4_000
	q.ThermalTolC = 0.5
	q.ThermalMaxIters = 200
	s := NewSessionWith(q, SessionOptions{Workers: 4})
	act, rate, err := s.SuiteActivity(L2DA)
	if err != nil {
		t.Fatal(err)
	}
	cases := []ThermalCase{
		{Model: M2DA, Act: act, L2Rate: rate},
		{Model: M2D2A, Act: act, L2Rate: rate, CheckerW: 7},
		{Model: M3D2A, Act: act, L2Rate: rate, CheckerW: 7},
		{Model: M3D2A, Act: act, L2Rate: rate, CheckerW: 15},
		{Model: M3DChecker, Act: act, L2Rate: rate, CheckerW: 7},
	}

	const rounds = 4
	results := make([][]ThermalResult, rounds)
	var wg sync.WaitGroup
	errc := make(chan error, rounds*len(cases)+rounds)
	for r := 0; r < rounds; r++ {
		results[r] = make([]ThermalResult, len(cases))
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			if err := s.PrefetchThermal(cases, 3); err != nil {
				errc <- err
				return
			}
			for i, c := range cases {
				res, err := s.SolveThermal(c)
				if err != nil {
					errc <- err
					return
				}
				results[r][i] = res
			}
		}(r)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	for r := 1; r < rounds; r++ {
		for i := range cases {
			if results[r][i] != results[0][i] {
				t.Fatalf("round %d case %d: %+v != %+v", r, i, results[r][i], results[0][i])
			}
		}
	}

	th := s.ThermalStats()
	if th.Solves != int64(len(cases)) {
		t.Errorf("Solves = %d, want exactly %d (per-key singleflight must dedup)", th.Solves, len(cases))
	}
	if th.Hits == 0 {
		t.Errorf("concurrent repeats produced no snapshot hits: %+v", th)
	}
	// Every SolveThermal call, those PrefetchThermal makes included, is
	// counted exactly once: as a solve, a hit or a join.
	if calls := int64(rounds * 2 * len(cases)); th.Solves+th.Hits+th.Joins != calls {
		t.Errorf("Solves+Hits+Joins = %d, want one per SolveThermal call (%d): %+v", th.Solves+th.Hits+th.Joins, calls, th)
	}

	// A fresh serial session must publish bit-identical snapshots: the
	// solve is a pure function of the case, not of the schedule.
	s2 := NewSession(q)
	for i, c := range cases {
		res, err := s2.SolveThermal(c)
		if err != nil {
			t.Fatal(err)
		}
		if res != results[0][i] {
			t.Errorf("case %d: serial session %+v != concurrent session %+v", i, res, results[0][i])
		}
	}
}

// TestConcurrentSessionRace hammers one session from many goroutines —
// overlapping prefetch batches, on-demand windows and thermal solves —
// with windows small enough to stay cheap under -race. It exists to run
// under the race detector (make race); without -race it is a fast
// smoke test of the same paths.
func TestConcurrentSessionRace(t *testing.T) {
	q := Fast()
	q.Benchmarks = []string{"gzip", "mesa"}
	q.WarmupInsts = 2_000
	q.MeasureInsts = 4_000
	q.ThermalTolC = 0.5
	q.ThermalMaxIters = 200
	s := NewSessionWith(q, SessionOptions{Workers: 4})

	keys := suiteLeadKeys(q, L2DA, nuca.DistributedSets, 0)
	keys = append(keys, suiteLeadKeys(q, L2D2A, nuca.DistributedSets, 0)...)
	keys = append(keys, suiteRMTKeys(q, L2DA, 2.0)...)

	var wg sync.WaitGroup
	errc := make(chan error, 64)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := s.Prefetch(keys); err != nil {
				errc <- err
			}
		}()
	}
	for _, b := range q.Suite() {
		name := b.Profile.Name
		wg.Add(2)
		go func() {
			defer wg.Done()
			if _, err := s.Leading(name, L2DA, nuca.DistributedSets, 0); err != nil {
				errc <- err
			}
		}()
		go func() {
			defer wg.Done()
			if _, err := s.RMT(name, L2DA, 2.0); err != nil {
				errc <- err
			}
		}()
	}
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			act, rate, err := s.SuiteActivity(L2DA)
			if err != nil {
				errc <- err
				return
			}
			if _, err := s.SolveThermal(ThermalCase{Model: M3DChecker, Act: act, L2Rate: rate, CheckerW: 7}); err != nil {
				errc <- err
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	st := s.EngineStats()
	if want := len(keys); st.Computed != want {
		t.Errorf("computed %d windows, want exactly %d (singleflight must dedup)", st.Computed, want)
	}
	if st.Hits+st.Joins == 0 {
		t.Error("concurrent requests produced no hits or joins")
	}
}

// TestConcurrentKeysShareOneSimulation checks the window memo under a
// two-worker prefetch: the 2.0 GHz RMT key, the ablation's default
// variant and the sweep's 200-entry RVQ name one configuration, so
// four keys cost two simulations, and each shared value is the one a
// session that simulates that key alone computes. A leading window's
// memory latency 0 and 300 name one simulation too.
func TestConcurrentKeysShareOneSimulation(t *testing.T) {
	q := tinyQuality()
	twins := []RunKey{
		RMTKey(q, "gzip", L2DA, 2.0),
		DFSVariantKey(q, "gzip", "default"),
		RVQSizeKey(q, "gzip", 200),
	}
	s := NewSessionWith(q, SessionOptions{Workers: 2})
	if err := s.Prefetch(append(twins, DFSVariantKey(q, "gzip", "conservative"))); err != nil {
		t.Fatal(err)
	}
	rep := s.EngineReport()
	if rep.Stats.Computed != 4 || rep.Simulated != 2 {
		t.Errorf("computed %d keys with %d simulations, want 4 with 2", rep.Stats.Computed, rep.Simulated)
	}
	var first []byte
	for _, k := range twins {
		v, err := s.eng.Cached(k)
		if err != nil {
			t.Fatal(err)
		}
		got, err := encodeRunValue(v)
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = got
		} else if string(got) != string(first) {
			t.Errorf("%s and %s differ", k, twins[0])
		}
		alone := NewSession(q)
		if _, err := alone.eng.Get(k); err != nil {
			t.Fatal(err)
		}
		if rep := alone.EngineReport(); rep.Simulated != 1 {
			t.Fatalf("%s alone: %d simulations, want 1", k, rep.Simulated)
		}
		w, _ := alone.eng.Cached(k)
		want, err := encodeRunValue(w)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("%s: shared value differs from its own simulation:\n%s\n--- vs ---\n%s", k, got, want)
		}
	}

	lead := NewSessionWith(q, SessionOptions{Workers: 2})
	if err := lead.Prefetch([]RunKey{
		LeadingKey(q, "mcf", L2DA, nuca.DistributedSets, 0),
		LeadingKey(q, "mcf", L2DA, nuca.DistributedSets, 300),
	}); err != nil {
		t.Fatal(err)
	}
	if rep := lead.EngineReport(); rep.Stats.Computed != 2 || rep.Simulated != 1 {
		t.Errorf("memory latency 0 and 300: computed %d keys with %d simulations, want 2 with 1", rep.Stats.Computed, rep.Simulated)
	}
}
