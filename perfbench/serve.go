package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"r3d/internal/campaign"
	"r3d/internal/experiment"
	"r3d/internal/serve"
	"r3d/internal/tech"
)

// scriptEntries is the script length: a few seconds of closed-loop work
// for one client, with 120 novel jobs per pass; the fewest passes a run
// makes pool 360, whose tail is their p95.
const scriptEntries = 240

// smokeGrid is the campaign grid r3dservesmoke submits, the repository's
// one HTTP client of the daemon: a single gzip trial of 20,000
// instructions at a leading-core upset rate of 40 per M cycles. Every
// grid of the script has this shape and differs only in its seed.
func smokeGrid(seed int64) campaign.Grid {
	return campaign.Grid{
		Benches:      []string{"gzip"},
		Seeds:        []int64{seed},
		LeadRates:    []float64{40},
		Instructions: 20_000,
		Node:         tech.Node65,
	}
}

const tinyTier = "tiny"

// tinyQuality is r3dserve's "tiny" tier: one benchmark, very small
// windows.
func tinyQuality() experiment.Quality {
	return experiment.Quality{
		WarmupInsts:  5_000,
		MeasureInsts: 10_000,
		Benchmarks:   []string{"gzip"},
		ThermalTolC:  1e-3, ThermalMaxIters: 10_000,
		Seed: 42,
	}
}

// tinyMix are the experiments the script submits at the tiny tier:
// they share windows and do no thermal work (dtm is excluded because
// its cost ignores the tier).
var tinyMix = []string{"table2", "fig6", "fig7", "sec35", "dfs", "rvqsize"}

// Script entry kinds.
const (
	entryNovel      = "novel"      // a campaign grid not submitted before
	entryRepeat     = "repeat"     // an earlier grid again: joins its job
	entryExperiment = "experiment" // a tiny-tier experiment
)

type scriptEntry struct {
	Kind string
	Grid int // grid index (novel, repeat)
	Exp  string
}

// script is the seeded job sequence of the serve workload.
type script struct {
	entries []scriptEntry
	grids   []campaign.Grid
}

// makeScript builds the seeded job sequence. Its composition is fixed —
// half novel grids, three in ten repeats of an earlier grid, two in ten
// tiny-tier experiments, spread evenly over tinyMix — and the seed picks
// the order, which grid each repeat repeats and the trial generator
// seeds. So every seed asks for about the same work. The proportions
// are an assumption, not measured traffic: no record of the daemon's
// real job mix exists.
func makeScript(seed int64, n int) script {
	rng := rand.New(rand.NewSource(seed))
	kinds := make([]string, n)
	for i := range kinds {
		switch {
		case i < n/2:
			kinds[i] = entryNovel
		case i < n/2+3*n/10:
			kinds[i] = entryRepeat
		default:
			kinds[i] = entryExperiment
		}
	}
	rng.Shuffle(n, func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	for i := range kinds { // the first entry must be a grid a repeat can refer to
		if kinds[i] == entryNovel {
			kinds[0], kinds[i] = kinds[i], kinds[0]
			break
		}
	}
	expOrder := rng.Perm(len(tinyMix))
	var sc script
	exps := 0
	for _, kind := range kinds {
		switch kind {
		case entryNovel:
			k := len(sc.grids)
			sc.grids = append(sc.grids, smokeGrid(seed*100_000+int64(k)))
			sc.entries = append(sc.entries, scriptEntry{Kind: entryNovel, Grid: k})
		case entryRepeat:
			sc.entries = append(sc.entries, scriptEntry{Kind: entryRepeat, Grid: rng.Intn(len(sc.grids))})
		default:
			sc.entries = append(sc.entries, scriptEntry{Kind: entryExperiment, Exp: tinyMix[expOrder[exps%len(tinyMix)]]})
			exps++
		}
	}
	return sc
}

// prefix returns the script's first n entries with the grids they use.
func (sc script) prefix(n int) script {
	out := script{entries: sc.entries[:n]}
	for _, e := range out.entries {
		if e.Kind == entryNovel {
			out.grids = sc.grids[:e.Grid+1]
		}
	}
	return out
}

// warmupGrid is the one job each pass's set-up runs outside the script,
// so the measured pass starts on a warm server: a grid whose generator
// seeds no script grid uses.
func warmupGrid(seed int64) campaign.Grid { return smokeGrid(seed*100_000 + 90_000) }

func (sc script) submission(e scriptEntry) serve.Submission {
	if e.Kind == entryExperiment {
		return serve.Submission{Kind: serve.KindExperiment, Experiment: e.Exp, Quality: tinyTier}
	}
	g := sc.grids[e.Grid]
	return serve.Submission{Kind: serve.KindCampaign, Grid: &g}
}

// distinctJobs is how many jobs the server must accept for the script:
// one per grid and one per distinct experiment.
func (sc script) distinctJobs() int {
	exps := map[string]bool{}
	for _, e := range sc.entries {
		if e.Kind == entryExperiment {
			exps[e.Exp] = true
		}
	}
	return len(sc.grids) + len(exps)
}

func (sc script) mix() map[string]int {
	m := map[string]int{}
	for _, e := range sc.entries {
		m[e.Kind]++
	}
	return m
}

// jobResult is one script entry as a client saw it.
type jobResult struct {
	id     string
	body   []byte
	err    error
	total  float64 // submit → result bytes, ms
	submit float64 // HTTP legs, ms
	queue  float64
	run    float64
	result float64
}

// client is one closed-loop client over one keep-alive connection.
type client struct {
	base string
	http *http.Client
	lane int
	tr   *tracer
}

func newClient(base string, lane int, tr *tracer) *client {
	t := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{base: base, http: &http.Client{Transport: t}, lane: lane, tr: tr}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// do runs one HTTP request and returns the status and body.
func (c *client) do(req *http.Request) (int, []byte, error) {
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, err
	}
	body, rerr := io.ReadAll(resp.Body)
	cerr := resp.Body.Close()
	if rerr != nil {
		return resp.StatusCode, nil, rerr
	}
	return resp.StatusCode, body, cerr
}

func (c *client) get(path string) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodGet, c.base+path, nil)
	if err != nil {
		return 0, nil, err
	}
	return c.do(req)
}

// run submits one job, long-polls it to a terminal state and fetches
// its result. submitted is called once the submission has been answered
// (whatever the answer), so a repeat of this grid may go.
func (c *client) run(sub serve.Submission, submitted func()) jobResult {
	var r jobResult
	root := c.tr.begin("job", "", 0, c.lane)
	defer func() { root.trace = r.id; c.tr.end(root) }()
	body, err := json.Marshal(sub)
	if err != nil {
		submitted()
		r.err = err
		return r
	}
	t0 := time.Now()
	sp := c.tr.begin("http.submit", "", root.id, c.lane)
	req, err := http.NewRequest(http.MethodPost, c.base+"/api/v1/jobs", bytes.NewReader(body))
	var code int
	var raw []byte
	if err == nil {
		req.Header.Set("Content-Type", "application/json")
		code, raw, err = c.do(req)
	}
	submitted()
	r.submit = msSince(t0)
	tSubmitted := time.Now()
	var res serve.SubmitResult
	if err == nil && code != http.StatusAccepted && code != http.StatusOK {
		err = fmt.Errorf("submit: HTTP %d: %s", code, bytes.TrimSpace(raw))
	}
	if err == nil {
		err = json.Unmarshal(raw, &res)
	}
	sp.trace = res.Job.ID
	c.tr.end(sp)
	if err != nil {
		r.err = err
		return r
	}
	st := res.Job
	r.id = st.ID
	var running time.Time
	if st.State == serve.StateRunning {
		running = tSubmitted
	}
	for st.State == serve.StateQueued || st.State == serve.StateRunning {
		sp := c.tr.begin("http.poll", st.ID, root.id, c.lane)
		code, raw, err := c.get(fmt.Sprintf("/api/v1/jobs/%s?wait_ms=30000&version=%d", st.ID, st.Version))
		c.tr.end(sp)
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("poll: HTTP %d: %s", code, bytes.TrimSpace(raw))
		}
		if err == nil {
			err = json.Unmarshal(raw, &st)
		}
		if err != nil {
			r.err = err
			return r
		}
		if st.State == serve.StateRunning && running.IsZero() {
			running = time.Now()
		}
	}
	done := time.Now()
	if running.IsZero() {
		running = done
	}
	r.queue = float64(running.Sub(tSubmitted)) / 1e6
	r.run = float64(done.Sub(running)) / 1e6
	if st.State != serve.StateDone {
		r.err = fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
		return r
	}
	t2 := time.Now()
	sp = c.tr.begin("http.result", st.ID, root.id, c.lane)
	code, r.body, err = c.get("/api/v1/jobs/" + st.ID + "/result")
	c.tr.end(sp)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("result: HTTP %d", code)
	}
	r.result = msSince(t2)
	r.total = msSince(t0)
	r.err = err
	return r
}

// passResult is one pass over the script against a fresh server.
type passResult struct {
	setup, wall float64
	results     []jobResult
	counters    serve.Counters
	report      experiment.EngineReport
	save, load  fsCounts
	tiny        *experiment.Session
}

// servePass starts an in-process server on a loopback listener, runs
// the script with nclients closed-loop clients and checks the results
// a restored server serves. tr, when set, records the pass's spans.
func servePass(rc *runConfig, sc script, nclients int, dir string, tr *tracer, tl *tally) (*passResult, error) {
	res := &passResult{results: make([]jobResult, len(sc.entries))}
	t0 := time.Now()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	fsys := newCountingFS(rc.clock, tr)
	clock := serve.Clock{
		Now: rc.clock,
		After: func(ns int64) <-chan struct{} {
			ch := make(chan struct{})
			time.AfterFunc(time.Duration(ns), func() { close(ch) })
			return ch
		},
	}
	opts := serve.Options{
		Tiers:        []serve.Tier{{Name: tinyTier, Quality: tinyQuality()}},
		JobWorkers:   loadThreads,
		TrialWorkers: 1,
		Clock:        clock,
		SessionClock: rc.clock,
		StatePath:    dir,
		FS:           fsys,
	}
	srv, err := serve.New(opts)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Drain()
		return nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	base := "http://" + ln.Addr().String()
	clients := make([]*client, nclients)
	for i := range clients {
		clients[i] = newClient(base, i+1, nil)
		if code, _, err := clients[i].get("/healthz"); err != nil || code != http.StatusOK {
			tl.fail("client %d: healthz: HTTP %d, %v", i, code, err)
		}
	}
	warm := warmupGrid(rc.seed)
	if r := clients[0].run(serve.Submission{Kind: serve.KindCampaign, Grid: &warm}, func() {}); r.err != nil {
		tl.fail("warm-up job: %v", r.err)
	}
	for _, c := range clients {
		c.tr = tr
	}
	res.setup = sSince(t0)

	submitted := make([]chan struct{}, len(sc.grids))
	for i := range submitted {
		submitted[i] = make(chan struct{})
	}
	var cursor atomic.Int64
	t1 := time.Now()
	var cwg sync.WaitGroup
	for ci := range clients {
		cwg.Add(1)
		go func(c *client) {
			defer cwg.Done()
			for {
				idx := int(cursor.Add(1) - 1)
				if idx >= len(sc.entries) {
					return
				}
				e := sc.entries[idx]
				notify := func() {}
				switch e.Kind {
				case entryNovel:
					notify = func() { close(submitted[e.Grid]) }
				case entryRepeat:
					<-submitted[e.Grid]
				}
				res.results[idx] = c.run(sc.submission(e), notify)
			}
		}(clients[ci])
	}
	cwg.Wait()
	res.wall = sSince(t1)

	code, raw, err := clients[0].get("/statsz")
	var stats serve.StatsSnapshot
	if err == nil && code == http.StatusOK {
		err = json.Unmarshal(raw, &stats)
	} else if err == nil {
		err = fmt.Errorf("statsz: HTTP %d", code)
	}
	if err != nil {
		tl.fail("statsz: %v", err)
	}
	res.counters = stats.Counters
	if h := srv.HealthSnapshot(); h.Persistence != "ok" {
		tl.fail("job store persistence is %s", h.Persistence)
	}
	res.tiny, _ = srv.Session(tinyTier)
	res.report = res.tiny.EngineReport()
	for _, c := range clients {
		c.close()
	}
	srv.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	err = hs.Shutdown(ctx)
	cancel()
	if serr := <-serveErr; !errors.Is(serr, http.ErrServerClosed) {
		return nil, fmt.Errorf("http serve: %w", serr)
	}
	if err != nil {
		return nil, fmt.Errorf("http shutdown: %w", err)
	}
	res.save = fsys.counts()

	// A server restored from the pass's state must serve every finished
	// job byte for byte.
	opts.Restore = true
	opts.JobWorkers = 1
	restored, err := serve.New(opts)
	if err != nil {
		return nil, fmt.Errorf("restore: %w", err)
	}
	res.load = fsys.counts().sub(res.save)
	for idx, r := range res.results {
		if r.err != nil || r.id == "" {
			continue
		}
		j, ok := restored.JobByID(r.id)
		var body []byte
		if ok {
			body, _, ok = j.Result()
		}
		tl.check(ok && bytes.Equal(body, r.body), "entry %d: restored server does not serve job %s byte for byte", idx, r.id)
	}
	restored.Drain()
	return res, nil
}

// serveRun is the serve workload's measurement over several passes.
type serveRun struct {
	sc     script
	passes []*passResult
	grids  [][]byte // pass 0's result per grid
	exps   map[string][]byte
	novel  []float64 // pooled novel-job latency, ms
	traced []*passResult
}

// runServePasses runs passes for -seconds, and at least minimum, and
// checks every result: each entry must finish, repeats must equal their
// grid's first result, every pass must return what pass 0 returned, and
// the server must accept exactly one job per distinct submission.
func runServePasses(rc *runConfig, sc script, minimum int, tl *tally) (*serveRun, error) {
	sr := &serveRun{sc: sc, grids: make([][]byte, len(sc.grids)), exps: map[string][]byte{}}
	want := sc.distinctJobs()
	begin := time.Now()
	for p := 0; rc.measuring(p, minimum, begin); p++ {
		tr := rc.traced(p)
		runtime.GC() // the previous pass's garbage is not this one's cost
		pr, err := servePass(rc, sc, loadThreads, rc.stateFile(fmt.Sprintf("serve-%d", p)), tr, tl)
		if err != nil {
			return nil, err
		}
		sr.passes = append(sr.passes, pr)
		if tr != nil || !rc.trace {
			sr.traced = append(sr.traced, pr)
		}
		tl.check(pr.counters.Accepted == int64(want+1), "pass %d: server accepted %d jobs, want %d and the warm-up job", p, pr.counters.Accepted, want)
		tl.check(pr.counters.Failed+pr.counters.Expired+pr.counters.Canceled == 0, "pass %d: %d jobs failed, expired or were canceled", p,
			pr.counters.Failed+pr.counters.Expired+pr.counters.Canceled)
		for idx, r := range pr.results {
			e := sc.entries[idx]
			tl.attempt(1)
			if r.err != nil {
				tl.fail("pass %d entry %d (%s): %v", p, idx, e.Kind, r.err)
				continue
			}
			if e.Kind == entryNovel {
				sr.novel = append(sr.novel, r.total)
			}
			var prev []byte
			var what string
			switch e.Kind {
			case entryExperiment:
				prev, what = sr.exps[e.Exp], "experiment "+e.Exp
				if prev == nil {
					sr.exps[e.Exp] = r.body
				}
			default:
				prev, what = sr.grids[e.Grid], fmt.Sprintf("grid %d", e.Grid)
				if prev == nil {
					sr.grids[e.Grid] = r.body
				}
			}
			if prev != nil {
				tl.check(bytes.Equal(prev, r.body), "pass %d entry %d: %s returned different bytes than before", p, idx, what)
			}
		}
	}
	return sr, nil
}

// checkServeOutputs compares the results with the references, or, for
// a seed without references, recomputes a sample of the grids with
// campaign.Run directly.
func checkServeOutputs(rc *runConfig, sr *serveRun, tl *tally) error {
	expRefs, err := tinyExperimentRefs(rc)
	if err != nil {
		return err
	}
	expDigests := map[string]string{}
	for name, b := range sr.exps {
		expDigests[name] = digest(b)
	}
	gridDigests := make([]string, len(sr.grids))
	for i, b := range sr.grids {
		gridDigests[i] = digest(b)
	}
	switch {
	case rc.writeRefs:
		return updateRefs(rc.seed, func(r *seedRefs) {
			r.Serve = &serveRefs{Entries: len(sr.sc.entries), Experiments: expDigests, Grids: gridDigests}
		})
	case rc.refs != nil && rc.refs.Serve != nil:
		tl.check(rc.refs.Serve.Entries == len(sr.sc.entries), "script has %d entries, references %d", len(sr.sc.entries), rc.refs.Serve.Entries)
		tl.check(len(gridDigests) == len(rc.refs.Serve.Grids), "script has %d grids, references %d", len(gridDigests), len(rc.refs.Serve.Grids))
		for i := range min(len(gridDigests), len(rc.refs.Serve.Grids)) {
			tl.check(gridDigests[i] == rc.refs.Serve.Grids[i], "grid %d: result digest %s, reference %s", i, gridDigests[i], rc.refs.Serve.Grids[i])
		}
	default:
		for i := 0; i < len(sr.grids); i += 8 {
			body, err := campaignJSON(sr.sc.grids[i], nil)
			if err != nil {
				return err
			}
			tl.check(bytes.Equal(body, sr.grids[i]), "grid %d: served result differs from a direct campaign.Run", i)
		}
	}
	if expRefs != nil {
		names := make([]string, 0, len(expDigests))
		for n := range expDigests {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			tl.check(expDigests[n] == expRefs[n], "experiment %s: result digest %s, reference %s", n, expDigests[n], expRefs[n])
		}
	}
	return nil
}

// campaignJSON runs a grid through campaign.Run the way the daemon does
// (one trial worker) and returns the report bytes the daemon serves.
// onOutcome, when set, observes each trial.
func campaignJSON(g campaign.Grid, onOutcome func(campaign.TrialOutcome)) ([]byte, error) {
	specs, err := g.Trials()
	if err != nil {
		return nil, err
	}
	rep, err := campaign.Run(campaign.Config{Workers: 1, OnOutcome: onOutcome}, specs)
	if err != nil {
		return nil, err
	}
	return rep.JSON()
}

// runServe is the serve workload.
func runServe(rc *runConfig, o *outcome) error {
	sc := makeScript(rc.seed, scriptEntries)
	sr, err := runServePasses(rc, sc, minIterations, &o.tl)
	if err != nil {
		return err
	}
	if err := checkServeOutputs(rc, sr, &o.tl); err != nil {
		return err
	}
	var setups, walls, rates []float64
	peak := peakRSSMB()
	for _, p := range sr.passes {
		setups = append(setups, p.setup)
		walls = append(walls, p.wall)
		rates = append(rates, float64(len(p.results))/p.wall)
	}
	o.e2e.set("setup_s", median(setups))
	o.e2e.set("wall_s", median(walls))
	o.e2e.set("jobs_per_s", median(rates))
	mix := sc.mix()
	setLatency(o, sr.novel, minIterations*mix[entryNovel], "novel campaign job, submit to result bytes")
	o.e2e.set("peak_rss_mb", peak)
	o.printf("serve: %d-entry script (%d novel grids, %d repeats, %d tiny experiments), %d client(s), %d job worker(s), %d pass(es); wall_s median %.4f s",
		len(sc.entries), mix[entryNovel], mix[entryRepeat], mix[entryExperiment], loadThreads, loadThreads, len(walls), median(walls))
	o.meta["size"] = map[string]any{"tier": "tiny", "script_entries": len(sc.entries), "mix": mix, "accepted_per_pass": sc.distinctJobs(),
		"grid": "r3dservesmoke's (gzip, one seed, lead rate 40, 20,000 instructions)", "mix_source": "assumed, not measured traffic",
		"clients": loadThreads, "job_workers": loadThreads, "trial_workers": 1, "passes": len(walls)}
	o.meta["wall_s_each"] = walls
	overhead(o, walls, rc)

	if rc.trace {
		p := sr.traced[len(sr.traced)-1]
		o.layer("serve", serveMetrics(sr))
		o.layer("serve: tiny-tier session", runschedMetrics(p.report, p.wall, loadThreads))
		ckptMetrics(o, "serve: job store", p.save, p.load)
		cm, err := campaignMetrics(rc, sr, &o.tl)
		if err != nil {
			return err
		}
		o.layer("serve: script grids", cm)
		var lt layerTimes
		if err := replayWindow(p.tiny, "gzip", &lt, &o.tl, rc.tr, 0); err != nil {
			return err
		}
		lm := metricSet{}
		lt.metrics(lm)
		o.layer("serve: replay", lm)
		if err := thermalAndDTM(rc, o, p.tiny, "serve"); err != nil {
			return err
		}
		if err := probes(rc, o); err != nil {
			return err
		}
	}
	return nil
}

// serveMetrics derives serve.* from the traced passes' client timings
// and /statsz counters.
func serveMetrics(sr *serveRun) metricSet {
	var submit, queue, run, result, cached []float64
	var counters serve.Counters
	for _, p := range sr.traced {
		for idx, r := range p.results {
			if r.err != nil {
				continue
			}
			e := sr.sc.entries[idx]
			submit = append(submit, r.submit)
			result = append(result, r.result)
			switch e.Kind {
			case entryNovel:
				queue = append(queue, r.queue)
				run = append(run, r.run)
			case entryRepeat:
				cached = append(cached, r.total)
			}
		}
		counters = p.counters
	}
	return metricSet{
		"serve.submit_ms":       median(submit),
		"serve.queue_ms":        median(queue),
		"serve.run_ms":          median(run),
		"serve.result_ms":       median(result),
		"serve.cached_ms":       median(cached),
		"serve.joined_inflight": float64(counters.JoinedInflight),
		"serve.joined_done":     float64(counters.JoinedDone),
		"serve.rejected":        float64(counters.RejectedQueue + counters.RejectedRate + counters.RejectedDrain + counters.RejectedInvalid),
	}
}

// campaignMetrics runs every novel grid of the script through
// campaign.Run directly, timing each trial with the OnOutcome hook, and
// checks each report against the bytes the daemon served.
func campaignMetrics(rc *runConfig, sr *serveRun, tl *tally) (metricSet, error) {
	var trialMs []float64
	for i, g := range sr.sc.grids {
		sp := rc.tr.begin("campaign.Run", fmt.Sprintf("grid-%d", i), 0, 0)
		last := time.Now()
		body, err := campaignJSON(g, func(campaign.TrialOutcome) {
			now := time.Now()
			trialMs = append(trialMs, float64(now.Sub(last))/1e6)
			last = now
		})
		rc.tr.end(sp)
		if err != nil {
			return nil, err
		}
		tl.check(bytes.Equal(body, sr.grids[i]), "grid %d: served result differs from a direct campaign.Run", i)
	}
	return metricSet{"campaign.trials": float64(len(trialMs)), "campaign.trial_ms": median(trialMs)}, nil
}
