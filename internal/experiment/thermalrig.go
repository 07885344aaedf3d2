package experiment

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sync"

	"r3d/internal/floorplan"
	"r3d/internal/noc"
	"r3d/internal/power"
	"r3d/internal/runsched"
	"r3d/internal/thermal"
)

// ChipModel names the four physical organizations of §3.2/§3.3.
type ChipModel int

// Chip models.
const (
	M2DA ChipModel = iota
	M2D2A
	M3D2A
	M3DChecker
)

func (m ChipModel) String() string {
	switch m {
	case M2D2A:
		return "2d-2a"
	case M3D2A:
		return "3d-2a"
	case M3DChecker:
		return "3d-checker"
	default:
		return "2d-a"
	}
}

// ThermalCase is one thermal evaluation point.
type ThermalCase struct {
	Model ChipModel
	Opt   floorplan.Options
	// Act is the leading-core activity; L2Rate the per-bank access rate.
	Act    power.Activity
	L2Rate float64
	// CheckerW is the checker-core block power (the swept parameter of
	// Figures 4/5); ignored for M2DA.
	CheckerW float64
	// Scale multiplies every block power (the §3.3 DVFS study).
	Scale float64
	// TopLeakScale scales the static share of top-die banks (Table 8
	// leakage factor for a 90 nm top die).
	TopLeakScale float64
}

// ThermalResult reports the solved temperatures.
type ThermalResult struct {
	PeakC     thermal.Celsius // hottest active-layer cell anywhere
	PeakDie1C thermal.Celsius
	PeakDie2C thermal.Celsius // NaN-free: equals PeakDie1C for 2D models
	// Iters is the fine-grid SOR iteration count; CoarseIters the
	// coarse-grid preconditioner's (0 when the stack is too small to
	// reduce).
	Iters       int
	CoarseIters int
	// Converged is false when the fine solve hit ThermalMaxIters before
	// reaching ThermalTolC: the temperatures are estimates, not a settled
	// field. Each such solve also increments the session's thermal
	// warning counter (Session.ThermalWarnings).
	Converged bool
}

// ThermalStats counts the session's thermal snapshot-store traffic.
type ThermalStats struct {
	// Solves is the number of fine-grid solves actually run; Hits the
	// requests answered from a published snapshot; Joins the requests
	// that waited on another goroutine's in-flight solve of the same
	// case.
	Solves int64 `json:"solves"`
	Hits   int64 `json:"snapshot_hits"`
	Joins  int64 `json:"joins"`
	// FineIters / CoarseIters accumulate SOR iterations across all
	// solves (coarse = the preconditioner passes).
	FineIters   int64 `json:"fine_iters"`
	CoarseIters int64 `json:"coarse_iters"`
}

func (c ThermalCase) norm() ThermalCase {
	//lint:ignore floatcmp zero-value sentinel for an unset field, never a computed value
	if c.Scale == 0 {
		c.Scale = 1
	}
	//lint:ignore floatcmp zero-value sentinel for an unset field, never a computed value
	if c.TopLeakScale == 0 {
		c.TopLeakScale = 1
	}
	//lint:ignore floatcmp zero-value sentinel for an unset field, never a computed value
	if c.Opt.CheckerAreaScale == 0 {
		c.Opt = floorplan.DefaultOptions()
	}
	return c
}

func buildPlan(m ChipModel, opt floorplan.Options) *floorplan.Floorplan {
	switch m {
	case M2D2A:
		return floorplan.Build2D2A(opt)
	case M3D2A:
		return floorplan.Build3D2A(opt)
	case M3DChecker:
		return floorplan.Build3DChecker(opt)
	default:
		return floorplan.Build2DA()
	}
}

// thermalKey identifies one thermal solve: the stack geometry plus a
// fingerprint of the exact power grids. A solve is a pure function of
// this key, so its result can be memoized and published once.
type thermalKey struct {
	geom string
	fp   uint64
}

// thermalSnapshot is one published solve: the converged state (for
// heatmaps and probing via SolveThermalDetailed) plus its result row.
type thermalSnapshot struct {
	state *thermal.State
	res   ThermalResult
}

// fingerprintGrids hashes the power grids (with the geometry string) to
// the snapshot key. Row-major over float bits, so any two cases that
// would install identical power maps on an identical stack share a key.
func fingerprintGrids(geom string, grids [][][]float64) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(geom))
	var buf [8]byte
	for _, grid := range grids {
		for _, row := range grid {
			for _, v := range row {
				binary.BigEndian.PutUint64(buf[:], math.Float64bits(v))
				_, _ = h.Write(buf[:])
			}
		}
	}
	return h.Sum64()
}

// SolveThermal evaluates one thermal case. Each distinct case (geometry
// + power maps) is solved exactly once per session and memoized as an
// immutable snapshot; concurrent requests for the same case join the
// in-flight solve. No session lock is held across a solve, so
// independent cases solve concurrently.
func (s *Session) SolveThermal(c ThermalCase) (ThermalResult, error) {
	_, res, err := s.solveThermal(c, false)
	return res, err
}

// SolveThermalDetailed is SolveThermal but also returns a private clone
// of the converged state (for heatmaps and further probing; mutating it
// cannot disturb the published snapshot).
func (s *Session) SolveThermalDetailed(c ThermalCase) (*thermal.State, ThermalResult, error) {
	return s.solveThermal(c, true)
}

// solveThermal resolves a case against the snapshot store: hit, join,
// or compute-and-publish. withState asks for a private clone of the
// solved field.
func (s *Session) solveThermal(c ThermalCase, withState bool) (*thermal.State, ThermalResult, error) {
	c = c.norm()
	fp := buildPlan(c.Model, c.Opt)
	if err := fp.Validate(); err != nil {
		return nil, ThermalResult{}, err
	}
	grids, err := thermalPowerGrids(c, fp)
	if err != nil {
		return nil, ThermalResult{}, err
	}
	geom := thermalGeomKey(fp, thermal.GridResolution)
	key := thermalKey{geom: geom, fp: fingerprintGrids(geom, grids)}

	snap, how, err := s.snapshots.Do(key, func() (*thermalSnapshot, error) {
		return s.computeThermal(s.thermalModel(fp, thermal.GridResolution), fp, grids)
	})
	n := &s.thermalCount
	switch {
	case err != nil:
		return nil, ThermalResult{}, err
	case how == runsched.Hit:
		n.hits.Add(1)
	case how == runsched.Joined:
		n.joins.Add(1)
	default:
		n.solves.Add(1)
		n.fineIters.Add(int64(snap.res.Iters))
		n.coarseIters.Add(int64(snap.res.CoarseIters))
	}
	if !withState {
		return nil, snap.res, nil
	}
	return snap.state.Clone(), snap.res, nil
}

// computeThermal runs one cold solve — coarse-grid preconditioner, then
// the parallel fine-grid SOR — with no session lock held.
func (s *Session) computeThermal(m *thermal.Model, fp *floorplan.Floorplan, grids [][][]float64) (*thermalSnapshot, error) {
	st := m.NewState()
	for die, grid := range grids {
		if err := st.SetPower(die, grid); err != nil {
			return nil, err
		}
	}
	coarseIters, _ := st.Precondition(s.Q.ThermalTolC, s.Q.ThermalMaxIters)
	iters, converged := st.Solve(s.Q.ThermalTolC, s.Q.ThermalMaxIters)
	if !converged {
		s.thermalWarn.Add(1)
	}
	res := ThermalResult{
		PeakC:       st.PeakAllC(),
		PeakDie1C:   st.PeakC(0),
		PeakDie2C:   st.PeakC(0),
		Iters:       iters,
		CoarseIters: coarseIters,
		Converged:   converged,
	}
	if fp.Layers == 2 {
		res.PeakDie2C = st.PeakC(1)
	}
	return &thermalSnapshot{state: st, res: res}, nil
}

// thermalPowerGrids renders a case's per-die power grids (die 1 always;
// die 2 for stacked models) — a pure function of the case.
func thermalPowerGrids(c ThermalCase, fp *floorplan.Floorplan) ([][][]float64, error) {
	die1 := power.LeadingCorePower(c.Act, 1, 1)
	//lint:ignore maporder per-key scaling touches each entry exactly once; order-independent
	for k := range die1 {
		die1[k] *= c.Scale
	}
	bank := (power.L2BankPower(c.L2Rate, 1) + noc.RouterPowerW) * c.Scale
	die2 := power.BlockPowers{}
	switch c.Model {
	case M2DA:
		for i := 0; i < 6; i++ {
			die1[fmt.Sprintf("L2Bank%d", i)] = bank
		}
	case M2D2A:
		for i := 0; i < 15; i++ {
			die1[fmt.Sprintf("L2Bank%d", i)] = bank
		}
		die1["Checker"] = c.CheckerW * c.Scale
	case M3D2A:
		for i := 0; i < 6; i++ {
			die1[fmt.Sprintf("L2Bank%d", i)] = bank
		}
		topBank := (power.L2BankPower(c.L2Rate, c.TopLeakScale) + noc.RouterPowerW) * c.Scale
		for i := 0; i < c.Opt.TopDieBanks; i++ {
			die2[fmt.Sprintf("TopBank%d", i)] = topBank
		}
		die2["Checker"] = c.CheckerW * c.Scale
	case M3DChecker:
		for i := 0; i < 6; i++ {
			die1[fmt.Sprintf("L2Bank%d", i)] = bank
		}
		die2["Checker"] = c.CheckerW * c.Scale
	}

	grids := [][][]float64{fp.PowerGrid(floorplan.LayerDie1, die1, thermal.GridResolution, thermal.GridResolution)}
	if fp.Layers == 2 {
		grids = append(grids, fp.PowerGrid(floorplan.LayerDie2, die2, thermal.GridResolution, thermal.GridResolution))
	}
	return grids, nil
}

// thermalGeomKey names a stack geometry at a given grid resolution.
func thermalGeomKey(fp *floorplan.Floorplan, res int) string {
	return fmt.Sprintf("%s/%d/%.2fx%.2f/%dx%d", fp.Name, fp.Layers, fp.DieW, fp.DieH, res, res)
}

// stackFor builds the thermal configuration for a floorplan at the
// given grid resolution.
func stackFor(fp *floorplan.Floorplan, res int) thermal.Config {
	var cfg thermal.Config
	if fp.Layers == 2 {
		cfg = thermal.Stack3D(fp.DieW, fp.DieH)
	} else {
		cfg = thermal.Stack2D(fp.DieW, fp.DieH)
	}
	cfg.Nx, cfg.Ny = res, res
	return cfg
}

// thermalModel returns the immutable model of a floorplan geometry at
// the given resolution, built on first use (the DTM study reuses
// steady-state stacks at a coarser transient grid).
func (s *Session) thermalModel(fp *floorplan.Floorplan, res int) *thermal.Model {
	// The build cannot fail, so Do reports no error.
	m, _, _ := s.models.Do(thermalGeomKey(fp, res), func() (*thermal.Model, error) {
		return thermal.NewModel(stackFor(fp, res)), nil
	})
	return m
}

// ThermalStats returns the snapshot-store counters.
func (s *Session) ThermalStats() ThermalStats {
	n := &s.thermalCount
	return ThermalStats{
		Solves:      n.solves.Load(),
		Hits:        n.hits.Load(),
		Joins:       n.joins.Load(),
		FineIters:   n.fineIters.Load(),
		CoarseIters: n.coarseIters.Load(),
	}
}

// PrefetchThermal solves the given cases across a bounded worker pool.
// Duplicate cases collapse onto one solve through the snapshot store's
// singleflight; results are published deterministically (any solver of
// a case produces identical bytes), so the store's content does not
// depend on worker count or completion order. The first error (in case
// order) is returned.
func (s *Session) PrefetchThermal(cases []ThermalCase, workers int) error {
	if workers < 1 {
		workers = 1
	}
	if workers > len(cases) {
		workers = len(cases)
	}
	if len(cases) == 0 {
		return nil
	}
	errs := make([]error, len(cases))
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				_, errs[i] = s.SolveThermal(cases[i])
			}
		}()
	}
	for i := range cases {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
