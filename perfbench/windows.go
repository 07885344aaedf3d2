package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"r3d/internal/ckpt"
	"r3d/internal/experiment"
	"r3d/internal/iofault"
)

// windowsScale shortens the windows workload's windows: each is
// experiment.Fast()'s window divided by it (12,000 + 24,000
// instructions), so one prefetch of the 84-window union is a few
// seconds on one worker and a run measures several of them.
const windowsScale = 5

// windowsQuality is the windows workload's quality at seed.
func windowsQuality(seed int64) experiment.Quality {
	q := experiment.Fast()
	q.WarmupInsts /= windowsScale
	q.MeasureInsts /= windowsScale
	q.Seed = seed
	return q
}

// clockLog is the clock a windows session runs on: it passes the run's
// clock through and keeps every reading. The engine reads its clock when
// a window starts and when it finishes and reports the difference, so
// the reading that lies exactly a window's duration after another one is
// the moment the window's result was ready. The windows' own compute
// times make a poor job latency: they cluster by profile (six profiles
// of 14 windows each), which puts their median on the gap between the
// third and the fourth profile.
type clockLog struct {
	clock func() int64
	mu    sync.Mutex
	reads []int64
}

func (c *clockLog) now() int64 {
	t := c.clock()
	c.mu.Lock()
	c.reads = append(c.reads, t)
	c.mu.Unlock()
	return t
}

// readyTimes returns the reading at which each window of rep was ready.
// A window no pair of readings spans is left out, so the caller can
// count them.
func (c *clockLog) readyTimes(rep experiment.EngineReport) []int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	seen := make(map[int64]bool, len(c.reads))
	for _, t := range c.reads {
		seen[t] = true
	}
	var out []int64
	for _, r := range rep.Runs {
		d := int64(math.Round(r.WallMS * 1e6)) // WallMS is the engine's nanosecond count / 1e6
		for _, t := range c.reads {
			if d > 0 && seen[t+d] {
				out = append(out, t+d)
				break
			}
		}
	}
	return out
}

// windowRecord is one persisted window of a run cache (the shape
// experiment.SaveCacheTo writes).
type windowRecord struct {
	Key  experiment.RunKey   `json:"key"`
	Lead *experiment.LeadRun `json:"lead,omitempty"`
	RMT  *experiment.RMTRun  `json:"rmt,omitempty"`
}

// cacheDigests reads a run cache written by SaveCacheTo, validating it
// through ckpt, and returns each window's stats digest by RunKey plus
// the leading-core instructions its measurement window committed.
func cacheDigests(fsys iofault.FS, path string) (map[string]string, uint64, error) {
	data, err := fsys.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	var hdr struct {
		Kind        string `json:"kind"`
		Fingerprint string `json:"fingerprint"`
	}
	first, _, _ := bytes.Cut(data, []byte("\n"))
	if err := json.Unmarshal(first, &hdr); err != nil {
		return nil, 0, fmt.Errorf("run cache header: %w", err)
	}
	snap, err := ckpt.LoadFrom(fsys, path, ckpt.Meta{Kind: hdr.Kind, Fingerprint: hdr.Fingerprint})
	if err != nil {
		return nil, 0, err
	}
	out := make(map[string]string, snap.Len())
	var insts uint64
	for i := 0; i < snap.Len(); i++ {
		var rec windowRecord
		if err := snap.Decode(i, &rec); err != nil {
			return nil, 0, err
		}
		enc, err := json.Marshal(rec)
		if err != nil {
			return nil, 0, err
		}
		out[rec.Key.String()] = digest(enc)
		switch {
		case rec.Lead != nil:
			insts += rec.Lead.Stats.Instructions
		case rec.RMT != nil:
			insts += rec.RMT.Lead.Instructions
		}
	}
	return out, insts, nil
}

// distinctKeys counts the distinct RunKeys of a manifest.
func distinctKeys(keys []experiment.RunKey) int {
	s := append([]experiment.RunKey(nil), keys...)
	sort.Slice(s, func(i, j int) bool { return experiment.CompareRunKeys(s[i], s[j]) < 0 })
	n := 0
	for i := range s {
		if i == 0 || experiment.CompareRunKeys(s[i-1], s[i]) != 0 {
			n++
		}
	}
	return n
}

// compareDigests checks got against want key by key.
func compareDigests(tl *tally, what string, got, want map[string]string) {
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		g, ok := got[k]
		tl.check(ok && g == want[k], "%s: %s digest %q, want %q", what, k, g, want[k])
	}
	tl.check(len(got) == len(want), "%s: %d entries, want %d", what, len(got), len(want))
}

// runWindows is the first phase of every cold `r3dbench -fast`, with
// shorter windows: a cold session prefetches the union of every
// registry manifest and saves it with SaveCacheTo.
func runWindows(rc *runConfig, o *outcome) error {
	q := windowsQuality(rc.seed)
	path := rc.stateFile("windows.ckpt")
	// Set-up: the manifest union, and a warm-up that prefetches the same
	// 84 windows at 1/12 of their length on a throwaway session, so the
	// measured prefetch starts with the engine, simulator code and heap
	// warm.
	warm := q
	warm.WarmupInsts /= 12
	warm.MeasureInsts /= 12
	var keys []experiment.RunKey
	var setups []float64
	for s := 0; s < 5; s++ {
		runtime.GC()
		t0 := time.Now()
		keys = experiment.ManifestUnion(q, experiment.Registry())
		ws := experiment.NewSessionWith(warm, experiment.SessionOptions{Workers: loadThreads})
		if err := ws.Prefetch(experiment.ManifestUnion(warm, experiment.Registry())); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		setups = append(setups, sSince(t0))
	}
	want := distinctKeys(keys)

	var walls, lats, rates []float64
	var first map[string]string
	var insts uint64
	var last *experiment.Session
	var lastReport experiment.EngineReport
	var lastWall float64
	var fsys *countingFS
	var saveCounts fsCounts
	var peak float64
	begin := time.Now()
	for i := 0; rc.measuring(i, minIterations, begin); i++ {
		tr := rc.traced(i)
		runtime.GC() // the previous iteration's garbage is not this one's cost
		clk := &clockLog{clock: rc.clock}
		sess := experiment.NewSessionWith(q, experiment.SessionOptions{Workers: loadThreads, Clock: clk.now})
		fsys = newCountingFS(rc.clock, tr)
		root := tr.begin("windows", fmt.Sprintf("iteration-%d", i), 0, 0)
		t0 := time.Now()
		start := rc.clock()
		sp := tr.begin("Prefetch", "union", root.id, 0)
		perr := sess.Prefetch(keys)
		tr.end(sp)
		sp = tr.begin("SaveCacheTo", "windows.ckpt", root.id, 0)
		fsys.parent.Store(sp.id)
		n, serr := sess.SaveCacheTo(fsys, path)
		tr.end(sp)
		wall := sSince(t0)
		tr.end(root)
		peak = max(peak, peakRSSMB())

		rep := sess.EngineReport()
		o.tl.attempt(len(rep.Runs))
		if perr != nil {
			o.tl.fail("iteration %d: Prefetch: %v", i, perr)
		}
		if serr != nil {
			return fmt.Errorf("SaveCacheTo: %w", serr)
		}
		for _, r := range rep.Runs {
			if r.Err {
				o.tl.fail("window %s errored", r.Key)
			}
		}
		ready := clk.readyTimes(rep)
		o.tl.check(len(ready) == len(rep.Runs), "iteration %d: found when %d of %d windows were ready", i, len(ready), len(rep.Runs))
		for _, t := range ready {
			lats = append(lats, float64(t-start)/1e6)
		}
		o.tl.check(int(rep.Stats.Computed) == want && n == want, "iteration %d: computed %d and saved %d windows, want %d", i, rep.Stats.Computed, n, want)
		walls = append(walls, wall)
		rates = append(rates, float64(len(rep.Runs))/wall)

		digests, ins, err := cacheDigests(iofault.OS(), path)
		if err != nil {
			return err
		}
		if first == nil {
			first, insts = digests, ins
		} else {
			compareDigests(&o.tl, fmt.Sprintf("iteration %d vs 0", i), digests, first)
		}
		if tr != nil || !rc.trace {
			last, lastReport, lastWall, saveCounts = sess, rep, wall, fsys.counts()
		}
	}

	// Outputs: the references, when the seed has them; the round trip
	// through a fresh session always.
	switch {
	case rc.writeRefs:
		if err := updateRefs(rc.seed, func(r *seedRefs) { r.Windows = first }); err != nil {
			return err
		}
	case rc.refs != nil && rc.refs.Windows != nil:
		compareDigests(&o.tl, "reference", first, rc.refs.Windows)
	}
	before := fsys.counts()
	fresh := experiment.NewSessionWith(q, experiment.SessionOptions{Workers: 1})
	sp := rc.tr.begin("LoadCacheFrom", "windows.ckpt", 0, 0)
	fsys.parent.Store(sp.id)
	n, notes, err := fresh.LoadCacheFrom(fsys, path)
	rc.tr.end(sp)
	loadCounts := fsys.counts().sub(before)
	if err != nil {
		return fmt.Errorf("LoadCacheFrom: %w", err)
	}
	o.tl.check(n == want && len(notes) == 0, "restore loaded %d windows (notes %q), want %d", n, notes, want)
	mem := iofault.NewMemFS()
	if _, err := fresh.SaveCacheTo(mem, "again.ckpt"); err != nil {
		return err
	}
	again, _, err := cacheDigests(mem, "again.ckpt")
	if err != nil {
		return err
	}
	compareDigests(&o.tl, "restored and re-saved", again, first)
	o.tl.check(fresh.EngineStats().Computed == 0, "restored session computed %d windows", fresh.EngineStats().Computed)

	// Replay: the layer drivers must reproduce the engine's stats.
	// Untraced runs replay one profile chosen by the seed; traced runs
	// replay every profile.
	suite := q.Suite()
	replay := []string{suite[int(uint64(rc.seed)%uint64(len(suite)))].Profile.Name}
	if rc.trace {
		replay = replay[:0]
		for _, b := range suite {
			replay = append(replay, b.Profile.Name)
		}
	}
	var lt layerTimes
	for _, bench := range replay {
		if err := replayWindow(last, bench, &lt, &o.tl, rc.tr, 0); err != nil {
			return err
		}
	}

	o.e2e.set("setup_s", median(setups))
	o.e2e.set("wall_s", median(walls))
	o.e2e.set("jobs_per_s", median(rates))
	setLatency(o, lats, minIterations*want, "window time to result, ms from the start of Prefetch")
	o.e2e.set("peak_rss_mb", peak)
	minst := float64(insts+uint64(want)*q.WarmupInsts) / 1e6
	o.printf("windows: %d windows (%s), %d iteration(s), wall_s median %.3f s", want, kindCounts(lastReport), len(walls), median(walls))
	o.printf("sim_minst_per_s %.4f (%.2f M leading-core instructions incl. warm-up per iteration / wall_s)", minst/median(walls), minst)
	o.printf("replayed %d profile(s) layer by layer: %s", len(replay), strings.Join(replay, ","))
	o.meta["size"] = map[string]any{"quality": fmt.Sprintf("fast/%d", windowsScale), "warmup_insts": q.WarmupInsts, "measure_insts": q.MeasureInsts,
		"windows": want, "manifest_keys": len(keys), "workers": loadThreads, "iterations": len(walls)}
	o.meta["wall_s_each"] = walls
	o.meta["sim_minst_per_s"] = minst / median(walls)
	overhead(o, walls, rc)

	if rc.trace {
		o.layer("windows", runschedMetrics(lastReport, lastWall, loadThreads))
		ckptMetrics(o, "windows", saveCounts, loadCounts)
		lm := metricSet{}
		lt.metrics(lm)
		o.layer("windows: replay", lm)
		if err := thermalAndDTM(rc, o, last, "windows"); err != nil {
			return err
		}
		if err := probes(rc, o); err != nil {
			return err
		}
	}
	return nil
}

// setLatency sets the latency metrics from a pooled sample. The tail
// is read at the percentile tail picks for fewest, the smallest sample
// a run can pool, so the percentile stays the same however many
// iterations a run makes.
func setLatency(o *outcome, lats []float64, fewest int, what string) {
	p50, _ := percentile(lats, 50)
	p, ok := tailPercentile(fewest)
	v, beyond := percentile(lats, p)
	o.e2e.set("compute_job_p50_ms", p50)
	o.e2e.set("compute_job_tail_ms", v)
	o.meta["compute_job"] = map[string]any{"what": what, "samples": len(lats), "tail_percentile": p, "tail_samples_beyond": beyond, "tail_resolved": ok}
	o.printf("compute_job: %s, %d samples: p50 %.3f ms, tail p%v %.3f ms (%d samples beyond)", what, len(lats), p50, p, v, beyond)
}

// kindCounts renders the number of computed windows of each kind.
func kindCounts(rep experiment.EngineReport) string {
	counts := map[string]int{}
	for _, r := range rep.Runs {
		kind, _, _ := strings.Cut(r.Key, "/")
		counts[kind]++
	}
	var parts []string
	for _, k := range []string{"lead", "rmt", "dfs", "rvq"} {
		parts = append(parts, fmt.Sprintf("%s %d", k, counts[k]))
	}
	return strings.Join(parts, ", ")
}

// runschedMetrics derives the runsched.* metrics from an engine report;
// wall is the phase the engine ran in and workers its pool width.
func runschedMetrics(rep experiment.EngineReport, wall float64, workers int) metricSet {
	m := metricSet{}
	st := rep.Stats
	computeS := float64(st.ComputeNanos) / 1e9
	m.set("runsched.computed", float64(st.Computed))
	m.set("runsched.hits", float64(st.Hits))
	m.set("runsched.batch_deduped", float64(st.BatchDeduped))
	m.set("runsched.compute_s", computeS)
	util := 0.0
	if wall > 0 && workers > 0 {
		util = computeS / (wall * float64(workers))
	}
	m.set("runsched.pool_util", util)
	byKind := map[string]float64{}
	longest := 0.0
	for _, r := range rep.Runs {
		kind, _, _ := strings.Cut(r.Key, "/")
		byKind[kind] += r.WallMS / 1e3
		longest = max(longest, r.WallMS/1e3)
	}
	m.set("runsched.longest_window_s", longest)
	for _, k := range []string{"lead", "rmt", "dfs", "rvq"} {
		m.set("runsched.window_s."+k, byKind[k])
	}
	return m
}

// ckptMetrics records the ckpt.* metrics from the storage seam's counts
// and reports the operation counts behind them.
func ckptMetrics(o *outcome, source string, save, load fsCounts) {
	o.layer(source, metricSet{
		"ckpt.save_s":        float64(save.SaveNs) / 1e9,
		"ckpt.load_s":        float64(load.LoadNs) / 1e9,
		"ckpt.bytes_written": float64(save.Bytes),
		"ckpt.commits":       float64(save.Commits),
		"ckpt.sync_s":        float64(save.SyncNs) / 1e9,
	})
	o.printf("ckpt (%s): %d writes, %d bytes, %d syncs, %d renames (%d commits); %d reads, %d bytes",
		source, save.Writes, save.Bytes, save.Syncs, save.Renames, save.Commits, load.Reads, load.ReadBytes)
}
