package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"r3d/internal/experiment"
)

// computeExperiments are the experiments that compute while rendering
// (thermal solves, the DTM transient, degraded's standalone in-order
// runs): the warm-render "jobs" whose latency the end-to-end metrics
// report. The rest only format cached windows, in microseconds.
var computeExperiments = []string{"fig4", "fig5", "sec32", "sec33", "sec4", "degraded", "dtm"}

// timedExperiments get their own experiment.run_s.* metric; the others
// add up to experiment.render_s.
var timedExperiments = []string{"fig4", "fig5", "sec32", "sec33", "sec4", "dtm"}

// onDemandExperiments compute windows their manifests cannot declare
// (thermally derived memory latencies), so the set-up renders them once
// to complete the cache.
var onDemandExperiments = []string{"sec33", "sec4"}

// renderQuality is warm-render's window quality: experiment.Fast() with
// windows a tenth as long, so that building the complete cache is a
// few seconds of set-up while the render work (thermal solves and the
// DTM transient, which do not scale with window length) is unchanged.
func renderQuality(seed int64) experiment.Quality {
	q := experiment.Fast()
	q.WarmupInsts /= 10
	q.MeasureInsts /= 10
	q.Seed = seed
	return q
}

// renderExperiments is the registry without the injection study, whose
// campaign ignores the window cache.
func renderExperiments() []experiment.Experiment {
	var out []experiment.Experiment
	for _, e := range experiment.Registry() {
		if e.Name != "inject" {
			out = append(out, e)
		}
	}
	return out
}

// renderSize is one warm-render configuration: its quality, the
// number of set-ups and the least number of passes it measures.
type renderSize struct {
	q      experiment.Quality
	setups int
	passes int
}

// renderResult is what warmRender measured.
type renderResult struct {
	setups, walls, rates []float64
	lats                 []float64 // computeExperiments Run times, ms
	peak                 float64
	outputs              map[string][]byte // iteration 0's rendered bytes
	runS                 map[string][]float64
	renderS              []float64
	thermal              experiment.ThermalStats
	buildReport          experiment.EngineReport
	buildWall            float64
	saveCounts, load     fsCounts
	restored             *experiment.Session
	cacheWindows         int
}

// runExperiment renders one experiment; the DTM study runs at
// dtmHorizonMs instead of the registry's 300 ms.
func runExperiment(s *experiment.Session, e experiment.Experiment, workers int) (string, error) {
	if e.Name == "dtm" {
		r, err := experiment.DTMStudy(s, dtmHorizonMs)
		return r.String(), err
	}
	r, err := e.Run(s, workers)
	if err != nil {
		return "", err
	}
	return r.String(), nil
}

// warmRender is the `r3dbench -restore` path. The set-up builds a
// complete window cache (prefetch the union, render the experiments
// that compute windows on demand, SaveCacheTo); each measured pass
// restores it into a fresh session with LoadCacheFrom and renders every
// experiment but the injection study. A pass that computes any window
// fails.
func warmRender(rc *runConfig, size renderSize, tl *tally) (*renderResult, error) {
	exps := renderExperiments()
	res := &renderResult{outputs: map[string][]byte{}, runS: map[string][]float64{}}
	path := rc.stateFile("render.ckpt")
	cold := map[string]string{}
	var fsys *countingFS
	for s := 0; s < size.setups; s++ {
		t0 := time.Now()
		sess := experiment.NewSessionWith(size.q, experiment.SessionOptions{Workers: loadThreads, Clock: rc.clock})
		if err := sess.Prefetch(experiment.ManifestUnion(size.q, exps)); err != nil {
			return nil, fmt.Errorf("set-up prefetch: %w", err)
		}
		for _, name := range onDemandExperiments {
			e, _ := experiment.Find(name)
			out, err := runExperiment(sess, e, loadThreads)
			if err != nil {
				return nil, fmt.Errorf("set-up %s: %w", name, err)
			}
			cold[name] = out
		}
		build := sSince(t0)
		fsys = newCountingFS(rc.clock, nil)
		n, err := sess.SaveCacheTo(fsys, path)
		if err != nil {
			return nil, fmt.Errorf("set-up SaveCacheTo: %w", err)
		}
		res.setups = append(res.setups, sSince(t0))
		if s == 0 {
			res.buildReport, res.buildWall, res.saveCounts, res.cacheWindows = sess.EngineReport(), build, fsys.counts(), n
		}
	}

	begin := time.Now()
	for i := 0; rc.measuring(i, size.passes, begin); i++ {
		tr := rc.traced(i)
		runtime.GC() // the previous pass's garbage is not this one's cost
		fsys.tr = tr
		before := fsys.counts()
		root := tr.begin("warm-render", fmt.Sprintf("iteration-%d", i), 0, 0)
		t0 := time.Now()
		sess := experiment.NewSessionWith(size.q, experiment.SessionOptions{Workers: loadThreads, Clock: rc.clock})
		sp := tr.begin("LoadCacheFrom", "render.ckpt", root.id, 0)
		fsys.parent.Store(sp.id)
		n, notes, err := sess.LoadCacheFrom(fsys, path)
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("LoadCacheFrom: %w", err)
		}
		tl.check(n == res.cacheWindows && len(notes) == 0, "pass %d restored %d windows (notes %q), want %d", i, n, notes, res.cacheWindows)
		var other float64
		for _, e := range exps {
			tl.attempt(1)
			sp := tr.begin("Experiment.Run", e.Name, root.id, 0)
			te := time.Now()
			out, err := runExperiment(sess, e, loadThreads)
			d := sSince(te)
			tr.end(sp)
			if err != nil {
				tl.fail("pass %d: %s: %v", i, e.Name, err)
				continue
			}
			if slices.Contains(computeExperiments, e.Name) {
				res.lats = append(res.lats, d*1e3)
			}
			switch {
			case tr == nil && rc.trace:
			case slices.Contains(timedExperiments, e.Name):
				res.runS[e.Name] = append(res.runS[e.Name], d)
			default:
				other += d
			}
			if prev, ok := res.outputs[e.Name]; ok {
				tl.check(string(prev) == out, "pass %d: %s rendered different bytes than pass 0", i, e.Name)
			} else {
				res.outputs[e.Name] = []byte(out)
			}
		}
		wall := sSince(t0)
		tr.end(root)
		res.peak = max(res.peak, peakRSSMB())
		computed := sess.EngineStats().Computed
		tl.check(computed == 0, "pass %d computed %d windows; a warm render must compute none", i, computed)
		res.walls = append(res.walls, wall)
		res.rates = append(res.rates, float64(len(exps))/wall)
		if tr != nil || !rc.trace {
			res.renderS = append(res.renderS, other)
			res.thermal = sess.ThermalStats()
			res.load = fsys.counts().sub(before)
			res.restored = sess
		}
	}
	for _, name := range onDemandExperiments {
		tl.check(cold[name] == string(res.outputs[name]), "%s: restored render differs from the cold set-up render", name)
	}
	return res, nil
}

// runWarmRender is the warm-render workload.
func runWarmRender(rc *runConfig, o *outcome) error {
	size := renderSize{q: renderQuality(rc.seed), setups: 3, passes: minIterations}
	if rc.trace {
		size.setups = 1
	}
	res, err := warmRender(rc, size, &o.tl)
	if err != nil {
		return err
	}
	digests := map[string]string{}
	for name, out := range res.outputs {
		digests[name] = digest(out)
	}
	switch {
	case rc.writeRefs:
		if err := updateRefs(rc.seed, func(r *seedRefs) { r.WarmRender = digests }); err != nil {
			return err
		}
	case rc.refs != nil:
		compareDigests(&o.tl, "reference", digests, rc.refs.WarmRender)
	}

	o.e2e.set("setup_s", median(res.setups))
	o.e2e.set("wall_s", median(res.walls))
	o.e2e.set("jobs_per_s", median(res.rates))
	setLatency(o, res.lats, size.passes*len(computeExperiments), "Run time of the experiments that compute while rendering")
	o.e2e.set("peak_rss_mb", res.peak)
	dtmShare := median(res.runS["dtm"]) / median(res.walls)
	o.printf("warm-render: %d experiments per pass from a %d-window cache, %d pass(es), DTM horizon %v ms; wall_s median %.4f s, DTM %.1f%% of it",
		len(renderExperiments()), res.cacheWindows, len(res.walls), dtmHorizonMs, median(res.walls), 100*dtmShare)
	o.meta["size"] = map[string]any{"quality": "fast/10", "warmup_insts": size.q.WarmupInsts, "measure_insts": size.q.MeasureInsts,
		"horizon_ms": dtmHorizonMs, "cache_windows": res.cacheWindows, "passes": len(res.walls), "setups": size.setups, "workers": loadThreads}
	o.meta["wall_s_each"] = res.walls
	o.meta["dtm_share_of_wall"] = dtmShare
	overhead(o, res.walls, rc)

	if rc.trace {
		o.layer("warm-render", renderMetrics(res))
		o.layer("warm-render: cache build in set-up", runschedMetrics(res.buildReport, res.buildWall, loadThreads))
		ckptMetrics(o, "warm-render", res.saveCounts, res.load)
		var lt layerTimes
		for _, b := range size.q.Suite() {
			if err := replayWindow(res.restored, b.Profile.Name, &lt, &o.tl, rc.tr, 0); err != nil {
				return err
			}
		}
		o.tl.check(res.restored.EngineStats().Computed == 0, "replay computed windows in the restored session")
		lm := metricSet{}
		lt.metrics(lm)
		o.layer("warm-render: replay", lm)
		if err := thermalAndDTM(rc, o, res.restored, "warm-render"); err != nil {
			return err
		}
		if err := probes(rc, o); err != nil {
			return err
		}
	}
	return nil
}

// renderMetrics derives the experiment.* and thermal-count metrics.
func renderMetrics(res *renderResult) metricSet {
	m := metricSet{}
	for _, name := range timedExperiments {
		m.set("experiment.run_s."+name, median(res.runS[name]))
	}
	m.set("experiment.render_s", median(res.renderS))
	m.set("thermal.solves", float64(res.thermal.Solves))
	m.set("thermal.fine_iters", float64(res.thermal.FineIters))
	m.set("thermal.coarse_iters", float64(res.thermal.CoarseIters))
	return m
}

// thermalAndDTM runs the standalone thermal and DTM drivers on a
// session's suite activity, and fails the run when dtmDriver's two
// stacks do not reproduce DTMStudy's result on the same session.
func thermalAndDTM(rc *runConfig, o *outcome, sess *experiment.Session, source string) error {
	th, err := thermalDriver(sess, 3, rc.tr, 0)
	if err != nil {
		return fmt.Errorf("thermal driver: %w", err)
	}
	d, err := dtmDriver(sess, rc.tr, 0)
	if err != nil {
		return fmt.Errorf("dtm driver: %w", err)
	}
	study, err := experiment.DTMStudy(sess, dtmHorizonMs)
	if err != nil {
		return fmt.Errorf("dtm study: %w", err)
	}
	maxGHz := study.Policy.MaxGHz
	o.tl.check(d.matches(study), "dtm driver: 2d-a peak %v °C, loss %v%%; 3d-2a peak %v °C, loss %v%%, %d interventions; DTMStudy: %v °C, %v%%; %v °C, %v%%, %d",
		d.planar.PeakC, d.planar.PerfLossPct(maxGHz), d.stacked.PeakC, d.stacked.PerfLossPct(maxGHz), d.stacked.Interventions,
		study.Peak2DAC, study.Loss2DAPct, study.Peak3DC, study.Loss3DPct, study.Interventions3D)
	o.layer(source+": Stack3D case", metricSet{
		"thermal.fine_ns_per_cell_iter":   th.fineNsPerCellIter,
		"thermal.coarse_ns_per_cell_iter": th.coarseNsPerCellIter,
	})
	o.layer(source+": DTM study stacks", metricSet{
		"dtm.euler_steps":      float64(d.eulerSteps),
		"dtm.ns_per_cell_step": d.nsPerCellStep,
	})
	o.printf("thermal driver: %d fine + %d coarse iterations per cold Stack3D solve; dtm driver: %d Euler steps over %v ms on two stacks",
		th.fineIters, th.coarseIters, d.eulerSteps, dtmHorizonMs)
	return nil
}
