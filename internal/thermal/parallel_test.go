package thermal

import (
	"math"
	"runtime"
	"testing"
)

// testGrid returns a deliberately non-uniform power map: a hot block in
// one quadrant over a warm floor, so the field has structure in every
// direction.
func testGrid(cfg Config, totalW float64) [][]float64 {
	grid := make([][]float64, cfg.Ny)
	floor := totalW * 0.4 / float64(cfg.Nx*cfg.Ny)
	hot := totalW * 0.6 / float64((cfg.Nx/3)*(cfg.Ny/3))
	for y := range grid {
		grid[y] = make([]float64, cfg.Nx)
		for x := range grid[y] {
			grid[y][x] = floor
			if x < cfg.Nx/3 && y < cfg.Ny/3 {
				grid[y][x] += hot
			}
		}
	}
	return grid
}

func solveOnce(t *testing.T, cfg Config, workers int, precondition bool) (*State, int, int) {
	t.Helper()
	m := NewModel(cfg)
	st := m.NewState()
	if err := st.SetPower(0, testGrid(cfg, 40)); err != nil {
		t.Fatal(err)
	}
	if len(m.HeatLayers()) > 1 {
		if err := st.SetPower(1, testGrid(cfg, 12)); err != nil {
			t.Fatal(err)
		}
	}
	coarse := 0
	if precondition {
		var ok bool
		coarse, ok = func() (int, bool) { return st.Precondition(1e-4, 40000) }()
		if !ok {
			t.Fatal("coarse solve did not converge")
		}
		if coarse == 0 {
			t.Fatal("expected a real coarse solve for the full-resolution stack")
		}
	}
	iters, converged := st.SolveWith(1e-4, 40000, workers)
	if !converged {
		t.Fatalf("solve(workers=%d) did not converge", workers)
	}
	return st, iters, coarse
}

func requireIdenticalFields(t *testing.T, a, b *State, label string) {
	t.Helper()
	for i := range a.temp {
		if math.Float64bits(a.temp[i]) != math.Float64bits(b.temp[i]) {
			t.Fatalf("%s: temp[%d] differs: %x vs %x", label, i,
				math.Float64bits(a.temp[i]), math.Float64bits(b.temp[i]))
		}
	}
}

// TestSolveWorkerByteIdentity is the tentpole determinism regression:
// the same 3D stack solved with 1, 3 and 8 row bands — and with
// GOMAXPROCS pinned to 1 and to 8 around the default Solve — must
// produce byte-identical temperature fields and identical iteration
// counts. The red-black coloring makes every in-color update
// independent, so banding must not be observable.
func TestSolveWorkerByteIdentity(t *testing.T) {
	cfg := Stack3D(6.2, 8.4)
	ref, refIters, _ := solveOnce(t, cfg, 1, false)
	for _, workers := range []int{2, 3, 8} {
		st, iters, _ := solveOnce(t, cfg, workers, false)
		if iters != refIters {
			t.Fatalf("workers=%d: %d iters, want %d", workers, iters, refIters)
		}
		requireIdenticalFields(t, ref, st, "workers")
	}

	// The default Solve picks its band count from GOMAXPROCS; pin it to
	// both extremes.
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	m := NewModel(cfg)
	solve := func() (*State, int) {
		st := m.NewState()
		if err := st.SetPower(0, testGrid(cfg, 40)); err != nil {
			t.Fatal(err)
		}
		if err := st.SetPower(1, testGrid(cfg, 12)); err != nil {
			t.Fatal(err)
		}
		iters, converged := st.Solve(1e-4, 40000)
		if !converged {
			t.Fatal("default Solve did not converge")
		}
		return st, iters
	}
	st1, it1 := solve()
	runtime.GOMAXPROCS(8)
	stN, itN := solve()
	if it1 != itN {
		t.Fatalf("GOMAXPROCS 1 vs 8: %d vs %d iters", it1, itN)
	}
	requireIdenticalFields(t, st1, stN, "GOMAXPROCS")
	requireIdenticalFields(t, ref, st1, "SolveWith(1) vs Solve")
}

// TestPreconditionDeterministicAndEffective checks the coarse-grid
// preconditioner both ways: a preconditioned solve is itself
// byte-identical at any worker count (the coarse solve is serial and
// the prolongation is a pure function of it), and it cuts the fine-grid
// iteration count against a cold start.
func TestPreconditionDeterministicAndEffective(t *testing.T) {
	cfg := Stack3D(6.2, 8.4)
	_, coldIters, _ := solveOnce(t, cfg, 1, false)
	ref, preIters, coarse := solveOnce(t, cfg, 1, true)
	for _, workers := range []int{2, 8} {
		st, iters, c := solveOnce(t, cfg, workers, true)
		if iters != preIters || c != coarse {
			t.Fatalf("workers=%d: (%d fine, %d coarse) iters, want (%d, %d)",
				workers, iters, c, preIters, coarse)
		}
		requireIdenticalFields(t, ref, st, "preconditioned")
	}
	if preIters >= coldIters {
		t.Errorf("preconditioned fine solve took %d iters, cold %d — no benefit", preIters, coldIters)
	}
	t.Logf("fine iters: cold %d, preconditioned %d (+%d coarse)", coldIters, preIters, coarse)
}

// TestPreconditionTinyGridNoop: a stack too small to coarsen reports
// (0, true) and leaves the field untouched.
func TestPreconditionTinyGridNoop(t *testing.T) {
	cfg := Stack2D(7.2, 7.2)
	cfg.Nx, cfg.Ny = 4, 4
	st := NewModel(cfg).NewState()
	before := st.Clone()
	iters, ok := st.Precondition(1e-4, 1000)
	if iters != 0 || !ok {
		t.Fatalf("Precondition on 4x4 = (%d, %v), want (0, true)", iters, ok)
	}
	requireIdenticalFields(t, before, st, "tiny-grid noop")
}

// TestSetPowerRaggedGrid: every row is validated, so a short inner row
// (or an empty grid) is an error, never an index-out-of-range panic.
func TestSetPowerRaggedGrid(t *testing.T) {
	cfg := Stack2D(7.2, 7.2)
	s := NewModel(cfg).NewState()

	grid := make([][]float64, cfg.Ny)
	for y := range grid {
		grid[y] = make([]float64, cfg.Nx)
	}
	grid[cfg.Ny/2] = grid[cfg.Ny/2][:cfg.Nx-1] // ragged inner row
	if err := s.SetPower(0, grid); err == nil {
		t.Error("ragged inner row accepted")
	}

	if err := s.SetPower(0, [][]float64{}); err == nil {
		t.Error("empty grid accepted")
	}
	if err := s.SetPower(0, make([][]float64, cfg.Ny)); err == nil {
		t.Error("grid of nil rows accepted")
	}
	if err := s.SetPower(-1, grid); err == nil {
		t.Error("negative die accepted")
	}
	if err := s.SetPower(5, grid); err == nil {
		t.Error("out-of-range die accepted")
	}
}

// TestCloneIsolation: mutating a clone never touches its source.
func TestCloneIsolation(t *testing.T) {
	cfg := Stack2D(7.2, 7.2)
	m := NewModel(cfg)
	st := m.NewState()
	if err := st.SetPower(0, testGrid(cfg, 40)); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Solve(1e-3, 40000); !ok {
		t.Fatal("solve did not converge")
	}
	orig := st.Clone()
	clone := st.Clone()
	clone.temp[0] = -1000
	clone.power[0] = 99
	requireIdenticalFields(t, orig, st, "clone isolation")
	if math.Float64bits(orig.power[0]) != math.Float64bits(st.power[0]) {
		t.Fatal("clone power write leaked into source")
	}
}

// --- microbenchmarks (wired as `make bench-thermal`) -------------------------

func benchState(b *testing.B, cfg Config) *State {
	b.Helper()
	m := NewModel(cfg)
	st := m.NewState()
	if err := st.SetPower(0, testGrid(cfg, 40)); err != nil {
		b.Fatal(err)
	}
	if len(m.HeatLayers()) > 1 {
		if err := st.SetPower(1, testGrid(cfg, 12)); err != nil {
			b.Fatal(err)
		}
	}
	return st
}

const benchTol = 1e-4

// BenchmarkSolveCold measures a from-ambient fine-grid solve.
func BenchmarkSolveCold(b *testing.B) {
	cfg := Stack3D(6.2, 8.4)
	proto := benchState(b, cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := proto.Clone()
		for j := range st.temp {
			st.temp[j] = st.m.ambient
		}
		if _, ok := st.Solve(benchTol, 100000); !ok {
			b.Fatal("no convergence")
		}
	}
}

// BenchmarkSolveWarm measures re-solving from an already-converged
// field (the old warm-start path's best case).
func BenchmarkSolveWarm(b *testing.B) {
	cfg := Stack3D(6.2, 8.4)
	proto := benchState(b, cfg)
	if _, ok := proto.Solve(benchTol, 100000); !ok {
		b.Fatal("no convergence")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := proto.Clone()
		if _, ok := st.Solve(benchTol, 100000); !ok {
			b.Fatal("no convergence")
		}
	}
}

// BenchmarkSolvePreconditioned measures the production path: cold state,
// coarse-grid preconditioner, fine solve.
func BenchmarkSolvePreconditioned(b *testing.B) {
	cfg := Stack3D(6.2, 8.4)
	proto := benchState(b, cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := proto.Clone()
		for j := range st.temp {
			st.temp[j] = st.m.ambient
		}
		if _, ok := st.Precondition(benchTol, 100000); !ok {
			b.Fatal("coarse solve did not converge")
		}
		if _, ok := st.Solve(benchTol, 100000); !ok {
			b.Fatal("no convergence")
		}
	}
}
