package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"

	"r3d/internal/bpred"
	"r3d/internal/cache"
	"r3d/internal/core"
	"r3d/internal/dtm"
	"r3d/internal/experiment"
	"r3d/internal/floorplan"
	"r3d/internal/inorder"
	"r3d/internal/isa"
	"r3d/internal/noc"
	"r3d/internal/nuca"
	"r3d/internal/ooo"
	"r3d/internal/power"
	"r3d/internal/thermal"
	"r3d/internal/trace"
)

// The layer drivers replay windows the workload already computed, one
// layer at a time, by calling each module's public functions directly.
// A replay rebuilds the window the way the experiment engine builds it
// (same generator seed, same 2d-a distributed-sets L2, same warm-up and
// measurement), so the replayed ooo.Stats and SystemStats must equal the
// engine's exactly; any difference is a failed check.

// layerTimes accumulates the drivers' host time and work counts over
// every replayed window.
type layerTimes struct {
	genNs, genInsts     int64
	bpredNs, branches   int64
	cacheNs, accesses   int64
	nucaNs, l1Misses    int64
	l2Accesses, l2Insts uint64 // from the engine's window L2Stats

	oooNs, oooInsts     int64
	oooAllocs           uint64
	oooCycles, oooMeas  uint64
	inorderNs, checked  int64
	coreNs, coreInsts   int64
	checkerCyc, coreMea uint64
}

// sliceSource replays a pre-generated instruction stream into a core,
// so core timing excludes generation.
type sliceSource struct {
	buf     []isa.Inst
	i       int
	overrun bool
}

func (s *sliceSource) Next() isa.Inst {
	if s.i >= len(s.buf) {
		s.overrun = true
		return isa.Inst{}
	}
	in := s.buf[s.i]
	s.i++
	return in
}

// replayWindow replays the lead (2d-a, distributed sets) and RMT (2d-a,
// 2.0 GHz cap) windows of one benchmark of the session's quality.
// Generation, predictor, L1, NUCA, OoO core, checker and coupled
// system are timed separately over the same stream.
func replayWindow(sess *experiment.Session, bench string, lt *layerTimes, tl *tally, tr *tracer, parent int64) error {
	q := sess.Q
	b, err := trace.ByName(bench)
	if err != nil {
		return err
	}
	lead, err := sess.Leading(bench, experiment.L2DA, nuca.DistributedSets, 0)
	if err != nil {
		return err
	}
	rmt, err := sess.RMT(bench, experiment.L2DA, 2.0)
	if err != nil {
		return err
	}
	key := experiment.LeadingKey(q, bench, experiment.L2DA, nuca.DistributedSets, 0).String()
	root := tr.begin("replay", key, parent, 0)
	defer tr.end(root)

	// trace: the committed stream plus room for what the cores have in
	// flight when the measurement ends.
	ocfg := ooo.Default()
	n := int(q.WarmupInsts+q.MeasureInsts) + 2*(ocfg.ROBSize+ocfg.IFQSize) + 64
	buf := make([]isa.Inst, n)
	sp := tr.begin("trace.Next", key, root.id, 0)
	t0 := time.Now()
	g := trace.MustGenerator(b.Profile, q.Seed)
	for i := range buf {
		buf[i] = g.Next()
	}
	lt.genNs += int64(time.Since(t0))
	lt.genInsts += int64(n)
	tr.end(sp)

	// bpred: the stream's conditional branches through a fresh
	// predictor and BTB, the way fetch drives them.
	var brs []isa.Inst
	var mem []isa.Inst
	for i := range buf {
		switch {
		case buf[i].Op == isa.BranchCond:
			brs = append(brs, buf[i])
		case buf[i].Op.IsMem():
			mem = append(mem, buf[i])
		}
	}
	sp = tr.begin("bpred", key, root.id, 0)
	t0 = time.Now()
	pred, btb := bpred.New(), bpred.NewBTB()
	for i := range brs {
		in := &brs[i]
		taken := pred.Lookup(in.PC)
		btb.Lookup(in.PC)
		pred.Update(in.PC, taken, in.Taken)
		if in.Taken {
			btb.Update(in.PC, in.Target)
		}
	}
	lt.bpredNs += int64(time.Since(t0))
	lt.branches += int64(len(brs))
	tr.end(sp)

	// cache: the data stream through a fresh L1D and DTLB; the misses
	// become the NUCA driver's input.
	type l2Req struct {
		addr  uint64
		write bool
	}
	misses := make([]l2Req, 0, len(mem)/8)
	sp = tr.begin("cache", key, root.id, 0)
	t0 = time.Now()
	l1d, dtlb := cache.New(cache.L1D), cache.NewTLB("DTLB")
	for i := range mem {
		write := mem[i].Op == isa.Store
		dtlb.Access(mem[i].Addr)
		if hit, _ := l1d.Access(mem[i].Addr, write); !hit {
			misses = append(misses, l2Req{mem[i].Addr, write})
		}
	}
	lt.cacheNs += int64(time.Since(t0))
	lt.accesses += int64(len(mem))
	tr.end(sp)

	sp = tr.begin("nuca", key, root.id, 0)
	t0 = time.Now()
	l2 := nuca.New(nuca.Config2DA(nuca.DistributedSets))
	for _, m := range misses {
		l2.Access(m.addr, m.write)
	}
	lt.nucaNs += int64(time.Since(t0))
	lt.l1Misses += int64(len(misses))
	lt.l2Accesses += lead.L2Stats.Accesses
	lt.l2Insts += q.WarmupInsts + lead.Stats.Instructions
	tr.end(sp)

	// ooo: the lead window, exactly as the engine runs it.
	src := &sliceSource{buf: buf}
	l2 = nuca.New(nuca.Config2DA(nuca.DistributedSets))
	c, err := ooo.New(ocfg, src, l2)
	if err != nil {
		return err
	}
	sp = tr.begin("ooo.Step", key, root.id, 0)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	t0 = time.Now()
	c.Run(q.WarmupInsts)
	c.ResetStats()
	c.SetFetchBudget(^uint64(0))
	for c.Stats().Instructions < q.MeasureInsts {
		c.Step(ocfg.CommitWidth)
	}
	lt.oooNs += int64(time.Since(t0))
	runtime.ReadMemStats(&ms)
	tr.end(sp)
	st := c.Stats()
	lt.oooAllocs += ms.Mallocs - mallocs
	lt.oooInsts += int64(q.WarmupInsts + st.Instructions)
	lt.oooCycles += st.Activity.Cycles
	lt.oooMeas += st.Instructions
	tl.check(!src.overrun && st == lead.Stats, "replay of %s: ooo.Stats differ from the engine's window", key)
	tl.check(equalL2(l2.Stats(), lead.L2Stats), "replay of %s: nuca.Stats differ from the engine's window", key)
	tl.check(c.PredictorStats().MispredictRate() == lead.Pred, "replay of %s: mispredict rate differs from the engine's window", key)

	// inorder: the committed stream (the same prefix, in program order)
	// through a standalone checker.
	committed := int(q.WarmupInsts + st.Instructions)
	entries := make([]inorder.Entry, committed)
	for i := range entries {
		entries[i] = inorder.MakeEntry(buf[i])
	}
	ck := inorder.New(inorder.Default())
	outcomes := make([]inorder.CheckOutcome, inorder.Default().Width)
	sp = tr.begin("inorder.Step", key, root.id, 0)
	t0 = time.Now()
	for pos := 0; pos < len(entries); {
		pos += ck.Step(entries[pos:min(pos+len(outcomes), len(entries))], outcomes)
	}
	lt.inorderNs += int64(time.Since(t0))
	lt.checked += int64(len(entries))
	tr.end(sp)
	tl.check(ck.Stats().Checked == uint64(len(entries)), "replay of %s: checker verified %d of %d instructions", key, ck.Stats().Checked, len(entries))

	// core: the RMT window over the same stream.
	rk := experiment.RMTKey(q, bench, experiment.L2DA, 2.0)
	rkey := rk.String()
	src = &sliceSource{buf: buf}
	lc, err := ooo.New(ocfg, src, nuca.New(nuca.Config2DA(nuca.DistributedSets)))
	if err != nil {
		return err
	}
	cfg := core.Default(ocfg)
	cfg.CheckerMaxFreqGHz = rk.CheckerCGHz.GHz()
	sys, err := core.New(cfg, lc)
	if err != nil {
		return err
	}
	sp = tr.begin("core.Step", rkey, root.id, 0)
	t0 = time.Now()
	sys.Run(q.WarmupInsts)
	sys.ResetStats()
	lc.SetFetchBudget(^uint64(0))
	for lc.Stats().Instructions < q.MeasureInsts {
		sys.Step()
	}
	lt.coreNs += int64(time.Since(t0))
	tr.end(sp)
	ls := lc.Stats()
	lt.coreInsts += int64(q.WarmupInsts + ls.Instructions)
	lt.checkerCyc += sys.Checker().Stats().Cycles
	lt.coreMea += ls.Instructions
	tl.check(!src.overrun && ls == rmt.Lead, "replay of %s: leading ooo.Stats differ from the engine's window", rkey)
	tl.check(sys.Stats() == rmt.Sys, "replay of %s: SystemStats differ from the engine's window", rkey)
	tl.check(sys.MeanCheckerFreqGHz() == rmt.MeanFreqGHz && sys.Checker().Stats().IPC() == rmt.CheckerIPC,
		"replay of %s: checker frequency or IPC differs from the engine's window", rkey)
	return nil
}

func equalL2(a, b nuca.Stats) bool {
	return a.Accesses == b.Accesses && a.Misses == b.Misses && a.Writebacks == b.Writebacks &&
		a.HitLatencySum == b.HitLatencySum && slices.Equal(a.BankAccesses, b.BankAccesses)
}

// metrics converts the accumulated times into the per-layer metrics.
func (lt *layerTimes) metrics(m metricSet) {
	per := func(ns, n int64) float64 {
		if n == 0 {
			return 0
		}
		return float64(ns) / float64(n)
	}
	perK := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b) * 1000
	}
	m.set("trace.ns_per_inst", per(lt.genNs, lt.genInsts))
	m.set("bpred.ns_per_branch", per(lt.bpredNs, lt.branches))
	m.set("cache.ns_per_access", per(lt.cacheNs, lt.accesses))
	m.set("nuca.ns_per_access", per(lt.nucaNs, lt.l1Misses))
	m.set("nuca.accesses_per_kinst", perK(lt.l2Accesses, lt.l2Insts))
	oooNs := per(lt.oooNs, lt.oooInsts)
	inNs := per(lt.inorderNs, lt.checked)
	coreNs := per(lt.coreNs, lt.coreInsts)
	m.set("ooo.ns_per_inst", oooNs)
	m.set("ooo.allocs_per_kinst", perK(lt.oooAllocs, uint64(lt.oooInsts)))
	m.set("ooo.cycles_per_kinst", perK(lt.oooCycles, lt.oooMeas))
	m.set("inorder.ns_per_inst", inNs)
	m.set("core.ns_per_inst", coreNs)
	m.set("core.coupling_ns_per_inst", coreNs-oooNs-inNs)
	m.set("core.checker_cycles_per_kinst", perK(lt.checkerCyc, lt.coreMea))
}

// thermalLayer is the standalone thermal driver's result.
type thermalLayer struct {
	fineNsPerCellIter, coarseNsPerCellIter float64
	fineIters, coarseIters                 int
}

// thermalCoarseFactor is the lateral reduction of the preconditioner's
// coarse grid (thermal.coarseFactor, which the thermal package does not
// export); it sizes the coarse cell count the coarse sweep time is
// divided by. Nothing checks the copy: if the package's factor changes,
// thermal.coarse_ns_per_cell_iter changes scale.
const thermalCoarseFactor = 5

// thermalDriver times State.Precondition and State.Solve on one
// representative case: the 3d-2a stack with the session's suite-average
// activity and the pessimistic 15 W checker. It repeats the cold solve
// reps times and keeps the median times.
func thermalDriver(sess *experiment.Session, reps int, tr *tracer, parent int64) (thermalLayer, error) {
	act, rate6, err := sess.SuiteActivity(experiment.L2DA)
	if err != nil {
		return thermalLayer{}, err
	}
	rate15 := rate6 * 6 / 15
	opt := floorplan.DefaultOptions()
	fp := floorplan.Build3D2A(opt)
	cfg := thermal.Stack3D(fp.DieW, fp.DieH)
	m := thermal.NewModel(cfg)
	bank := power.L2BankPower(rate15, 1) + noc.RouterPowerW
	die1 := power.LeadingCorePower(act, 1, 1)
	for i := 0; i < 6; i++ {
		die1[fmt.Sprintf("L2Bank%d", i)] = bank
	}
	die2 := power.BlockPowers{"Checker": power.CheckerPessimisticW}
	for i := 0; i < opt.TopDieBanks; i++ {
		die2[fmt.Sprintf("TopBank%d", i)] = bank
	}
	g1 := fp.PowerGrid(floorplan.LayerDie1, die1, cfg.Nx, cfg.Ny)
	g2 := fp.PowerGrid(floorplan.LayerDie2, die2, cfg.Nx, cfg.Ny)

	var res thermalLayer
	var fineNs, coarseNs []float64
	for r := 0; r < reps; r++ {
		st := m.NewState()
		if err := st.SetPower(floorplan.LayerDie1, g1); err != nil {
			return res, err
		}
		if err := st.SetPower(floorplan.LayerDie2, g2); err != nil {
			return res, err
		}
		sp := tr.begin("thermal.Precondition", "stack3d", parent, 0)
		t0 := time.Now()
		res.coarseIters, _ = st.Precondition(sess.Q.ThermalTolC, sess.Q.ThermalMaxIters)
		coarseNs = append(coarseNs, float64(time.Since(t0)))
		tr.end(sp)
		sp = tr.begin("thermal.Solve", "stack3d", parent, 0)
		t0 = time.Now()
		res.fineIters, _ = st.Solve(sess.Q.ThermalTolC, sess.Q.ThermalMaxIters)
		fineNs = append(fineNs, float64(time.Since(t0)))
		tr.end(sp)
	}
	layers := len(cfg.Layers)
	fineCells := layers * cfg.Nx * cfg.Ny
	coarseCells := layers * ceilDiv(cfg.Nx, thermalCoarseFactor) * ceilDiv(cfg.Ny, thermalCoarseFactor)
	if res.fineIters > 0 {
		res.fineNsPerCellIter = median(fineNs) / float64(res.fineIters*fineCells)
	}
	if res.coarseIters > 0 {
		res.coarseNsPerCellIter = median(coarseNs) / float64(res.coarseIters*coarseCells)
	}
	return res, nil
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// dtmGridRes is the DTM study's transient grid (experiment.dtmGridRes,
// unexported). thermalAndDTM compares dtmDriver's results with
// DTMStudy's, so a drift between the copy and the study fails the run.
const dtmGridRes = 16

// dtmLayer is the standalone DTM driver's result.
type dtmLayer struct {
	eulerSteps    int64
	nsPerCellStep float64
	// planar and stacked are the controllers' final stats on the 2d-a
	// and the 3d-2a stack, which must equal what DTMStudy reports.
	planar, stacked dtm.Stats
}

// dtmDriver runs the DTM study's two stacks (2d-a and 3d-2a with the
// pessimistic checker) through dtm.NewFromModel and RunPhase for
// dtmHorizonMs with the session's suite-average power, as DTMStudy does.
func dtmDriver(sess *experiment.Session, tr *tracer, parent int64) (dtmLayer, error) {
	act, rate6, err := sess.SuiteActivity(experiment.L2DA)
	if err != nil {
		return dtmLayer{}, err
	}
	rate15 := rate6 * 6 / 15
	pol := dtm.DefaultPolicy()
	opt := floorplan.DefaultOptions()
	var res dtmLayer
	var ns float64
	var cellSteps float64
	for _, stacked := range []bool{false, true} {
		var fp *floorplan.Floorplan
		var cfg thermal.Config
		die1 := power.LeadingCorePower(act, 1, 1)
		die2 := power.BlockPowers{}
		if stacked {
			fp = floorplan.Build3D2A(opt)
			cfg = thermal.Stack3D(fp.DieW, fp.DieH)
			bank := power.L2BankPower(rate15, 1) + noc.RouterPowerW
			for i := 0; i < 6; i++ {
				die1[fmt.Sprintf("L2Bank%d", i)] = bank
			}
			for i := 0; i < opt.TopDieBanks; i++ {
				die2[fmt.Sprintf("TopBank%d", i)] = bank
			}
			die2["Checker"] = power.CheckerPessimisticW
		} else {
			fp = floorplan.Build2DA()
			cfg = thermal.Stack2D(fp.DieW, fp.DieH)
			for i := 0; i < 6; i++ {
				die1[fmt.Sprintf("L2Bank%d", i)] = power.L2BankPower(rate6, 1) + noc.RouterPowerW
			}
		}
		cfg.Nx, cfg.Ny = dtmGridRes, dtmGridRes
		ctl, err := dtm.NewFromModel(thermal.NewModel(cfg), pol)
		if err != nil {
			return res, err
		}
		grids := [][][]float64{fp.PowerGrid(floorplan.LayerDie1, die1, dtmGridRes, dtmGridRes)}
		if stacked {
			grids = append(grids, fp.PowerGrid(floorplan.LayerDie2, die2, dtmGridRes, dtmGridRes))
		}
		steps := eulerSteps(dtmHorizonMs, pol.IntervalMs, ctl.Transient().MaxStepPs())
		sp := tr.begin("dtm.RunPhase", fp.Name, parent, 0)
		t0 := time.Now()
		err = ctl.RunPhase(dtm.Phase{DurationMs: dtmHorizonMs, Grids: grids})
		ns += float64(time.Since(t0))
		tr.end(sp)
		if err != nil {
			return res, err
		}
		if stacked {
			res.stacked = ctl.Stats()
		} else {
			res.planar = ctl.Stats()
		}
		res.eulerSteps += steps
		cellSteps += float64(steps) * float64(len(cfg.Layers)*dtmGridRes*dtmGridRes)
	}
	if cellSteps > 0 {
		res.nsPerCellStep = ns / cellSteps
	}
	return res, nil
}

// matches reports whether dtmDriver's two runs reproduce the study's
// result exactly, so that dtmDriver times the stacks the study runs.
func (d dtmLayer) matches(r experiment.DTMStudyResult) bool {
	return d.planar.PeakC == r.Peak2DAC && d.stacked.PeakC == r.Peak3DC &&
		d.planar.PerfLossPct(r.Policy.MaxGHz) == r.Loss2DAPct && d.stacked.PerfLossPct(r.Policy.MaxGHz) == r.Loss3DPct &&
		d.stacked.Interventions == r.Interventions3D
}

// eulerSteps counts the explicit-Euler updates RunPhase makes over
// horizonMs: one Transient.Step per control interval, each split into
// sub-steps no longer than maxStepPs, with the same float arithmetic.
func eulerSteps(horizonMs, intervalMs, maxStepPs float64) int64 {
	var n int64
	for remaining := horizonMs; remaining > 0; {
		step := math.Min(intervalMs, remaining)
		remaining -= step
		for dt := step * 1e9; dt > 0; {
			dt -= math.Min(dt, maxStepPs)
			n++
		}
	}
	return n
}
