package thermal

import (
	"math"
	"strings"
	"testing"
)

func TestTransientConvergesToSteadyState(t *testing.T) {
	cfg := Stack2D(7.2, 7.2)
	cfg.Nx, cfg.Ny = 20, 20 // coarse grid keeps the test quick
	grid := uniformGrid(cfg.Nx, cfg.Ny, 40)

	steady := NewModel(cfg).NewState()
	if err := steady.SetPower(0, grid); err != nil {
		t.Fatal(err)
	}
	steady.Solve(1e-7, 200000)

	tr := NewTransientFromModel(NewModel(cfg))
	if err := tr.State().SetPower(0, grid); err != nil {
		t.Fatal(err)
	}
	// Integrate 0.2 s: the sink's thermal mass has a time constant of
	// ~0.2 s, so the field should have covered most — but not all — of
	// the distance to steady state, without overshooting.
	if err := tr.Step(2e11); err != nil {
		t.Fatal(err)
	}
	got := tr.State().MeanC(0) - cfg.AmbientC
	want := steady.MeanC(0) - cfg.AmbientC
	if frac := got / want; frac < 0.6 || frac > 1.02 {
		t.Errorf("after 0.2 s the transient covered %.0f%% of the rise (%.2f of %.2f °C)", frac*100, got, want)
	}
}

func TestSteadyStateIsTransientFixedPoint(t *testing.T) {
	// The steady-state field must be a fixed point of the transient
	// dynamics — the consistency check between the two integrators.
	cfg := Stack3D(7.2, 7.2)
	cfg.Nx, cfg.Ny = 16, 16
	grid := uniformGrid(cfg.Nx, cfg.Ny, 30)
	steady := NewModel(cfg).NewState()
	steady.SetPower(0, grid)
	steady.Solve(1e-8, 400000)

	tr := NewTransientFromModel(NewModel(cfg))
	if err := tr.State().CopyFrom(steady); err != nil {
		t.Fatal(err)
	}
	tr.State().SetPower(0, grid)
	before := tr.State().PeakAllC()
	if err := tr.Step(1e9); err != nil { // 1 ms
		t.Fatal(err)
	}
	after := tr.State().PeakAllC()
	if math.Abs(float64(after-before)) > 0.05 {
		t.Errorf("steady state drifted under transient dynamics: %.3f → %.3f", before, after)
	}
}

func TestCopyStateFromMismatch(t *testing.T) {
	a := NewModel(Stack2D(7.2, 7.2)).NewState()
	small := Stack2D(7.2, 7.2)
	small.Nx, small.Ny = 10, 10
	b := NewModel(small).NewState()
	if err := a.CopyFrom(b); err == nil {
		t.Error("geometry mismatch must error")
	}
}

func TestTransientMonotoneWarmup(t *testing.T) {
	cfg := Stack2D(7.2, 7.2)
	cfg.Nx, cfg.Ny = 16, 16
	tr := NewTransientFromModel(NewModel(cfg))
	if err := tr.State().SetPower(0, uniformGrid(cfg.Nx, cfg.Ny, 30)); err != nil {
		t.Fatal(err)
	}
	prev := tr.State().MeanC(0)
	for i := 0; i < 6; i++ {
		if err := tr.Step(5e9); err != nil { // 5 ms
			t.Fatal(err)
		}
		cur := tr.State().MeanC(0)
		if cur < prev-1e-9 {
			t.Fatalf("warming chip cooled down: %.3f → %.3f", prev, cur)
		}
		prev = cur
	}
	if prev <= AmbientC+1 {
		t.Error("chip failed to warm at all")
	}
	if math.Abs(tr.TimePs()-6*5e9) > 1e3 {
		t.Errorf("integrated time %.0f ps, want ≈%v", tr.TimePs(), 6*5e9)
	}
}

func TestTransientCoolsAfterPowerOff(t *testing.T) {
	cfg := Stack2D(7.2, 7.2)
	cfg.Nx, cfg.Ny = 16, 16
	tr := NewTransientFromModel(NewModel(cfg))
	tr.State().SetPower(0, uniformGrid(cfg.Nx, cfg.Ny, 40))
	tr.Step(5e10)
	hot := tr.State().MeanC(0)
	tr.State().SetPower(0, uniformGrid(cfg.Nx, cfg.Ny, 0))
	tr.Step(5e10)
	cool := tr.State().MeanC(0)
	if cool >= hot {
		t.Errorf("chip must cool after power-off: %.2f → %.2f", hot, cool)
	}
}

func TestTransientStepValidation(t *testing.T) {
	cfg := Stack2D(7.2, 7.2)
	cfg.Nx, cfg.Ny = 8, 8
	tr := NewTransientFromModel(NewModel(cfg))
	if err := tr.Step(0); err == nil {
		t.Error("zero step must error")
	}
	if err := tr.Step(-1); err == nil {
		t.Error("negative step must error")
	}
	if tr.MaxStepPs() <= 0 {
		t.Error("stability bound must be positive")
	}
}

func TestHeatmapASCII(t *testing.T) {
	cfg := Stack2D(7.2, 7.2)
	cfg.Nx, cfg.Ny = 20, 20
	s := NewModel(cfg).NewState()
	g := uniformGrid(cfg.Nx, cfg.Ny, 0)
	g[2][2] = 20 // hot corner
	s.SetPower(0, g)
	s.Solve(1e-4, 50000)
	hm := s.HeatmapASCII(s.Model().HeatLayers()[0], 20)
	if !strings.Contains(hm, "@") {
		t.Errorf("hot spot missing from heatmap:\n%s", hm)
	}
	lines := strings.Split(strings.TrimSpace(hm), "\n")
	if len(lines) < 10 {
		t.Errorf("heatmap too small: %d lines", len(lines))
	}
	// The hot cell is at low y → it must appear near the bottom rows.
	bottom := lines[len(lines)-4:]
	found := false
	for _, l := range bottom {
		if strings.Contains(l, "@") {
			found = true
		}
	}
	if !found {
		t.Error("hot spot not rendered near the bottom edge")
	}
}
