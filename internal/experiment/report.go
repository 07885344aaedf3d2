package experiment

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"r3d/internal/runsched"
)

// RunTiming is the per-window line of an engine report: wall-clock cost
// next to simulated work, so slow windows are attributable.
type RunTiming struct {
	Key       string  `json:"key"`
	WallMS    float64 `json:"wall_ms"`
	SimCycles uint64  `json:"sim_cycles"`
	Err       bool    `json:"err,omitempty"`
	// Shared marks a key whose value came from another key's
	// simulation of the same window spec; its wall time is the wait.
	Shared bool `json:"shared,omitempty"`
}

// EngineReport is the session's observability snapshot: scheduler
// counters plus one timing row per computed window, in completion
// order (which is deterministic for prefetched batches — canonical key
// order — and request order for on-demand windows).
type EngineReport struct {
	Workers int            `json:"workers"`
	Stats   runsched.Stats `json:"stats"`
	Thermal ThermalStats   `json:"thermal"`
	Runs    []RunTiming    `json:"runs"`
	// Simulated counts the simulations behind the computed keys: the
	// successful Runs that are not Shared.
	Simulated int `json:"simulated"`
}

// EngineReport builds the current report from the run engine's records.
func (s *Session) EngineReport() EngineReport {
	rep := EngineReport{Workers: s.eng.Workers(), Stats: s.eng.Stats(), Thermal: s.ThermalStats()}
	recs := s.eng.Records()
	shared := make([]bool, len(recs))
	s.simMu.Lock()
	for i, rec := range recs {
		shared[i] = s.shared[rec.Key]
	}
	s.simMu.Unlock()
	for i, rec := range recs {
		rt := RunTiming{
			Key:    rec.Key.String(),
			WallMS: float64(rec.Nanos) / 1e6,
			Err:    rec.Err,
			Shared: shared[i],
		}
		if !rec.Err && !rt.Shared {
			rep.Simulated++
		}
		if !rec.Err {
			if v, err := s.eng.Cached(rec.Key); err == nil {
				if rec.Key.Kind == KindLeading {
					rt.SimCycles = v.lead.Stats.Activity.Cycles
				} else {
					rt.SimCycles = v.rmt.Lead.Activity.Cycles
				}
			}
		}
		rep.Runs = append(rep.Runs, rt)
	}
	return rep
}

// JSON renders the report as indented JSON.
func (r EngineReport) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// String renders the human-readable report: counters, then the slowest
// windows (all of them when ten or fewer).
func (r EngineReport) String() string {
	var b strings.Builder
	st := r.Stats
	fmt.Fprintf(&b, "engine: %d workers, %d computed (%d err), %d simulated, %d cache hits, %d singleflight joins\n",
		r.Workers, st.Computed, st.Errors, r.Simulated, st.Hits, st.Joins)
	// ComputeNanos adds up every window's wall time, so with more than
	// one worker it can exceed the elapsed time of the run.
	fmt.Fprintf(&b, "engine: batches requested %d keys, %d deduplicated; compute wall %.1f ms summed over %d worker(s)\n",
		st.BatchRequested, st.BatchDeduped, float64(st.ComputeNanos)/1e6, r.Workers)
	if th := r.Thermal; th.Solves > 0 {
		fmt.Fprintf(&b, "thermal: %d solves, %d snapshot hits, %d joins; %d fine + %d coarse SOR iters\n",
			th.Solves, th.Hits, th.Joins, th.FineIters, th.CoarseIters)
	}
	runs := make([]RunTiming, len(r.Runs))
	copy(runs, r.Runs)
	sort.SliceStable(runs, func(i, j int) bool { return runs[i].WallMS > runs[j].WallMS })
	show := len(runs)
	if show > 10 {
		show = 10
		fmt.Fprintf(&b, "engine: slowest %d of %d runs:\n", show, len(runs))
	} else if show > 0 {
		fmt.Fprintf(&b, "engine: %d runs:\n", show)
	}
	// A shared key's cycles are its simulation's, already counted once.
	var cycles uint64
	for _, rt := range runs {
		if !rt.Shared {
			cycles += rt.SimCycles
		}
	}
	for _, rt := range runs[:show] {
		status := ""
		switch {
		case rt.Err:
			status = "  ERR"
		case rt.Shared:
			status = "  shared"
		}
		fmt.Fprintf(&b, "  %8.1f ms  %12d cycles  %s%s\n", rt.WallMS, rt.SimCycles, rt.Key, status)
	}
	if len(runs) > 0 {
		fmt.Fprintf(&b, "engine: %d simulated cycles across %d simulations of %d windows\n", cycles, r.Simulated, len(runs))
	}
	return b.String()
}
