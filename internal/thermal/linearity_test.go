package thermal

import (
	"math"
	"math/rand"
	"testing"
)

// TestSuperposition verifies the solver is linear: the temperature rise
// of a summed power map equals the sum of the rises of its parts,
// pointwise — the property the §3.3 constant-thermal frequency search
// relies on.
func TestSuperposition(t *testing.T) {
	cfg := Stack3D(7.2, 7.2)
	r := rand.New(rand.NewSource(3))
	randGrid := func(total float64) [][]float64 {
		g := make([][]float64, cfg.Ny)
		var sum float64
		for y := range g {
			g[y] = make([]float64, cfg.Nx)
			for x := range g[y] {
				g[y][x] = r.Float64()
				sum += g[y][x]
			}
		}
		for y := range g {
			for x := range g[y] {
				g[y][x] *= total / sum
			}
		}
		return g
	}
	p1 := randGrid(30)
	p2 := randGrid(12)
	solve := func(d1, d2 [][]float64) *State {
		s := NewModel(cfg).NewState()
		if d1 != nil {
			if err := s.SetPower(0, d1); err != nil {
				t.Fatal(err)
			}
		}
		if d2 != nil {
			if err := s.SetPower(1, d2); err != nil {
				t.Fatal(err)
			}
		}
		s.Solve(1e-6, 80000)
		return s
	}
	sA := solve(p1, nil)
	sB := solve(nil, p2)
	sAB := solve(p1, p2)
	for _, probe := range [][3]int{{2, 10, 10}, {4, 25, 25}, {8, 40, 5}} {
		l, y, x := probe[0], probe[1], probe[2]
		a := sA.CellC(l, y, x) - cfg.AmbientC
		b := sB.CellC(l, y, x) - cfg.AmbientC
		ab := sAB.CellC(l, y, x) - cfg.AmbientC
		if math.Abs(float64(ab-(a+b))) > 0.05*math.Max(1, float64(ab)) {
			t.Errorf("superposition violated at (%d,%d,%d): %.3f vs %.3f+%.3f", l, y, x, ab, a, b)
		}
	}
}

// TestPowerBalance checks global conservation: in steady state, the heat
// leaving through the sink and package boundaries equals the injected
// power.
func TestPowerBalance(t *testing.T) {
	cfg := Stack2D(7.2, 7.2)
	s := NewModel(cfg).NewState()
	const P = 37.0
	grid := make([][]float64, cfg.Ny)
	for y := range grid {
		grid[y] = make([]float64, cfg.Nx)
		for x := range grid[y] {
			grid[y][x] = P / float64(cfg.Nx*cfg.Ny)
		}
	}
	if err := s.SetPower(0, grid); err != nil {
		t.Fatal(err)
	}
	s.Solve(1e-7, 200000)
	m := s.Model()
	var out float64
	for y := 0; y < cfg.Ny; y++ {
		for x := 0; x < cfg.Nx; x++ {
			out += m.gSink * float64(s.CellC(0, y, x)-cfg.AmbientC)
			out += m.gPack * float64(s.CellC(m.nl-1, y, x)-cfg.AmbientC)
		}
	}
	if math.Abs(out-P) > 0.02*P {
		t.Errorf("boundary outflow %.3f W, injected %.1f W", out, P)
	}
}

// TestMorePowerNeverCools checks that the steady solve is monotone in
// power: on the two-die Table 3 stack, on an 8×8 grid that keeps it to
// a fraction of a second, raising the power of one 2×2-cell region of
// one die at a time above a random base map lowers no cell of any layer
// by more than the solver tolerance. Conduction through positive
// conductances to the ambient can only carry more heat everywhere. The
// regions are small so that the shared heat sink, which warms every
// cell alike, does not hide what the lateral conduction does; a
// non-finite field fails too.
func TestMorePowerNeverCools(t *testing.T) {
	const tol = 1e-9
	cfg := Stack3D(7.2, 7.2)
	cfg.Nx, cfg.Ny = 8, 8
	m := NewModel(cfg)
	r := rand.New(rand.NewSource(11))
	base := make([][][]float64, len(m.HeatLayers()))
	for die := range base {
		base[die] = make([][]float64, cfg.Ny)
		for y := range base[die] {
			base[die][y] = make([]float64, cfg.Nx)
			for x := range base[die][y] {
				base[die][y][x] = 0.5 * r.Float64()
			}
		}
	}
	s0 := m.NewState()
	for die, g := range base {
		if err := s0.SetPower(die, g); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := s0.Solve(tol, 200_000); !ok {
		t.Fatal("the base map did not converge")
	}
	for die := range base {
		for y0 := 0; y0 < cfg.Ny; y0 += 2 {
			for x0 := 0; x0 < cfg.Nx; x0 += 2 {
				raised := make([][]float64, cfg.Ny)
				for y := range raised {
					raised[y] = append([]float64(nil), base[die][y]...)
				}
				for y := y0; y < y0+2; y++ {
					for x := x0; x < x0+2; x++ {
						raised[y][x] += 0.25
					}
				}
				s := s0.Clone()
				if err := s.SetPower(die, raised); err != nil {
					t.Fatal(err)
				}
				if _, ok := s.Solve(tol, 200_000); !ok {
					t.Fatalf("die %d region (%d,%d): did not converge", die, y0, x0)
				}
				for l := range cfg.Layers {
					for y := 0; y < cfg.Ny; y++ {
						for x := 0; x < cfg.Nx; x++ {
							if d := s.CellC(l, y, x) - s0.CellC(l, y, x); !(d >= -tol) {
								t.Fatalf("die %d region (%d,%d): more power moved %s (%d,%d) by %.3g °C", die, y0, x0, cfg.Layers[l].Name, y, x, d)
							}
						}
					}
				}
			}
		}
	}
}

// TestNonFiniteFieldDoesNotConverge: a model with one layer's lateral
// conductance negated (the spreader's, the layer a sign error in the
// conductance set-up would reach) drives the field to NaN, over which
// every sweep's largest update reads 0. Such a solve must report that
// it did not converge, serially and banded.
func TestNonFiniteFieldDoesNotConverge(t *testing.T) {
	cfg := Stack3D(7.2, 7.2)
	cfg.Nx, cfg.Ny = 8, 8
	m := NewModel(cfg)
	spreader := -1
	for l, layer := range cfg.Layers {
		if layer.Name == "spreader" {
			spreader = l
		}
	}
	if spreader < 0 {
		t.Fatal("the stack has no spreader layer")
	}
	m.gLat[spreader] = -m.gLat[spreader]
	for _, workers := range []int{1, 4} {
		s := m.NewState()
		for die := range m.HeatLayers() {
			g := make([][]float64, cfg.Ny)
			for y := range g {
				g[y] = make([]float64, cfg.Nx)
				for x := range g[y] {
					g[y][x] = 0.1
				}
			}
			if err := s.SetPower(die, g); err != nil {
				t.Fatal(err)
			}
		}
		iters, ok := s.SolveWith(1e-6, 200_000, workers)
		if ok {
			t.Errorf("%d workers: a solve over a diverging model reported convergence after %d sweeps (hottest cell %v)", workers, iters, s.CellC(0, 0, 0))
		}
	}
}
