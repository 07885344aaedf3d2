// Package ooo is a trace-driven, cycle-level model of the paper's
// out-of-order leading core (Table 1): 4-wide fetch/dispatch/commit, an
// 80-entry reorder buffer, 20/15-entry integer/FP issue queues, a
// 40-entry load/store queue, 4 integer ALUs, 2 integer multipliers, one
// FP ALU and one FP multiplier, a combined branch predictor with a
// 16K-set 2-way BTB and a 12-cycle misprediction redirect, 32 KB 2-way
// L1 caches (2-cycle D-cache) and a NUCA L2 with a 300-cycle memory
// behind it.
//
// The model executes the correct-path instruction stream produced by
// package trace. Branch mispredictions stall fetch until the branch
// resolves plus the redirect latency — the standard trace-driven
// approximation, which captures the timing cost of speculation without
// simulating wrong-path instructions.
package ooo

import (
	"fmt"
	"math/bits"

	"r3d/internal/bpred"
	"r3d/internal/cache"
	"r3d/internal/isa"
	"r3d/internal/nuca"
)

// Config holds the microarchitectural parameters (defaults in Default).
type Config struct {
	FetchWidth    int
	DispatchWidth int
	IssueWidth    int
	CommitWidth   int
	IFQSize       int
	ROBSize       int
	IQInt         int
	IQFP          int
	LSQSize       int

	IntALU  int
	IntMult int
	FPALU   int
	FPMult  int
	// LoadPorts/StorePorts bound memory issue per cycle; Table 4's via
	// budget implies two of each.
	LoadPorts  int
	StorePorts int

	// MispredictRedirect is the front-end redirect latency after a
	// mispredicted branch resolves (Table 1: 12 cycles).
	MispredictRedirect int

	// MemLatencyCycles is the first-chunk memory latency in core cycles
	// (Table 1: 300 cycles at 2 GHz; a frequency-scaled core sees
	// proportionally fewer cycles because the wall-clock latency is
	// unchanged, which is why the §3.3 thermal-constrained performance
	// loss is smaller than the frequency reduction).
	MemLatencyCycles int

	// TLBMissPenalty is the fill latency for I/D TLB misses.
	TLBMissPenalty int
}

// Default returns the Table 1 configuration.
func Default() Config {
	return Config{
		FetchWidth:    4,
		DispatchWidth: 4,
		IssueWidth:    4,
		CommitWidth:   4,
		IFQSize:       32,
		ROBSize:       80,
		IQInt:         20,
		IQFP:          15,
		LSQSize:       40,
		IntALU:        4,
		IntMult:       2,
		FPALU:         1,
		FPMult:        1,
		LoadPorts:     2,
		StorePorts:    2,

		MispredictRedirect: bpred.MispredictLatency,
		MemLatencyCycles:   nuca.MemoryLatency,
		TLBMissPenalty:     30,
	}
}

// Validate reports malformed configurations.
func (c Config) Validate() error {
	if c.FetchWidth <= 0 || c.DispatchWidth <= 0 || c.IssueWidth <= 0 || c.CommitWidth <= 0 {
		return fmt.Errorf("ooo: non-positive width")
	}
	if c.ROBSize <= 0 || c.IFQSize <= 0 || c.LSQSize <= 0 || c.IQInt <= 0 || c.IQFP <= 0 {
		return fmt.Errorf("ooo: non-positive queue size")
	}
	if c.IntALU <= 0 || c.LoadPorts <= 0 || c.StorePorts <= 0 {
		return fmt.Errorf("ooo: non-positive functional unit count")
	}
	if c.MemLatencyCycles < 0 || c.MispredictRedirect < 0 {
		return fmt.Errorf("ooo: negative latency")
	}
	return nil
}

// Activity counts microarchitectural events, consumed by the power model
// (accesses drive Wattch-style dynamic power with cc3 clock gating).
type Activity struct {
	Cycles         uint64
	Fetched        uint64
	Dispatched     uint64
	IssuedInt      uint64
	IssuedFP       uint64
	IssuedMem      uint64
	Committed      uint64
	BpredLookups   uint64
	ICacheAccesses uint64
	DCacheAccesses uint64
	L2Accesses     uint64
	RegReads       uint64
	RegWrites      uint64
}

// Stats is the result of a simulation window.
type Stats struct {
	Activity Activity

	Instructions uint64
	Mispredicts  uint64
	L1IMisses    uint64
	L1DMisses    uint64
	L2Misses     uint64
	L2HitLatSum  uint64
	L2Hits       uint64
}

// IPC returns committed instructions per cycle.
func (s Stats) IPC() float64 {
	if s.Activity.Cycles == 0 {
		return 0
	}
	return float64(s.Instructions) / float64(s.Activity.Cycles)
}

// L2MissesPer10k returns L2 misses per 10k committed instructions (the
// §3.3 metric: suite average 1.43 at 6 MB, 1.25 at 15 MB).
func (s Stats) L2MissesPer10k() float64 {
	if s.Instructions == 0 {
		return 0
	}
	return float64(s.L2Misses) / float64(s.Instructions) * 1e4
}

// MeanL2HitLatency returns the average observed L2 hit latency.
func (s Stats) MeanL2HitLatency() float64 {
	if s.L2Hits == 0 {
		return 0
	}
	return float64(s.L2HitLatSum) / float64(s.L2Hits)
}

const (
	stateWaiting = iota // in ROB, not yet issued
	stateIssued         // executing
	stateDone           // complete, awaiting commit
)

// robEntry is the scheduling state of one ring slot; the instruction
// itself is the slot's element of Core.insts. Fetch sets mispred, and
// dispatch the rest.
type robEntry struct {
	op      isa.OpClass
	state   uint8
	mispred bool
	// pending counts the entry's producers that have not issued yet.
	pending uint8
	// consumers heads the list of wakeup edges from this entry to the
	// entries waiting for it to issue (-1 when empty).
	consumers int32
	complete  uint64 // cycle at which result is available
	// readyAt is the first cycle at which both operands are available:
	// each producer raises it to its completion cycle when it issues
	// (or at dispatch, if it already has). It is final once pending is 0.
	readyAt uint64
}

// InstSource supplies the committed-order instruction stream.
type InstSource interface {
	Next() isa.Inst
}

// Core is one out-of-order core instance.
type Core struct {
	cfg  Config
	src  InstSource
	pred *bpred.Predictor
	btb  *bpred.BTB
	l1i  *cache.Cache
	l1d  *cache.Cache
	itlb *cache.TLB
	dtlb *cache.TLB
	l2   *nuca.Cache

	cycle uint64
	stats Stats

	// insts is one ring of IFQSize+ROBSize+CommitWidth slots that holds
	// every in-flight instruction from fetch to commit, and rob is the
	// scheduling state of the same slots. From robHead on, the ring
	// holds robCount ROB entries in program order, then ifqCount IFQ
	// entries, which end before ifqTail; ifqHead, where the ROB ends,
	// is the IFQ's oldest slot. Fetch writes an instruction into its
	// slot once, dispatch moves ifqHead past it, and commit moves
	// robHead past it and returns the committed run as a view of insts.
	// The CommitWidth slots beyond the ROB and IFQ hold that view until
	// the next Step's commit frees their slots for fetch (see commit).
	insts    []isa.Inst
	rob      []robEntry
	robHead  int
	ifqHead  int
	ifqTail  int
	robCount int
	ifqCount int

	// lastWriter maps a register to the ring slot of its in-flight
	// producer, or -1 when the architectural value is ready.
	lastWriter [isa.NumRegs]int

	// fetchStallUntil blocks fetch until the given cycle (mispredict
	// redirect or I-cache miss).
	fetchStallUntil uint64
	// iqInt/iqFP/lsq track occupancy of the scheduling structures.
	iqInt, iqFP, lsq int

	// edgeNext links the wakeup edges, two per ring slot: edge 2i+k says
	// that source k of the entry in slot i waits for the producer whose
	// consumers list holds it, and edgeNext[2i+k] is the next edge in
	// that list (-1 ends it).
	edgeNext []int32
	// ready has one bit per ring slot whose unissued ROB entry has no
	// pending producer; select walks it oldest first.
	ready []uint64
	// inflight holds the ring slots of issued entries awaiting
	// writeback; nextDone is the earliest completion cycle among them.
	inflight []int
	nextDone uint64
	// issueAt is a lower bound on the next cycle at which any ready
	// entry can issue, so issue skips the cycles before it (see issue).
	issueAt uint64
	// wake is the first cycle at which any stage can act (see nextWake);
	// Step only advances the clock before it.
	wake uint64

	// done marks that the instruction budget was consumed by fetch.
	fetchBudget uint64
	fetchedTot  uint64

	// committedBuf holds a committed run that wraps around the ring.
	committedBuf []isa.Inst
}

// New builds a core over the given instruction source and L2. The L2 is
// passed in (rather than constructed) because the paper's models differ
// only in L2 organization and because the RMT system shares it.
func New(cfg Config, src InstSource, l2 *nuca.Cache) (*Core, error) {
	c := &Core{}
	if err := c.Reset(cfg, src, l2); err != nil {
		return nil, err
	}
	return c, nil
}

// Reset returns c to the state New(cfg, src, l2) builds — a cold core
// at cycle 0 — reusing its predictor, BTB, L1 caches, TLBs and ring
// arrays instead of allocating them. On an invalid cfg it returns the
// error and leaves c unchanged.
func (c *Core) Reset(cfg Config, src InstSource, l2 *nuca.Cache) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	old := *c
	ring := cfg.IFQSize + cfg.ROBSize + cfg.CommitWidth
	*c = Core{
		cfg:          cfg,
		src:          src,
		pred:         old.pred,
		btb:          old.btb,
		l1i:          old.l1i,
		l1d:          old.l1d,
		itlb:         old.itlb,
		dtlb:         old.dtlb,
		l2:           l2,
		insts:        zeroed(old.insts, ring),
		rob:          zeroed(old.rob, ring),
		edgeNext:     zeroed(old.edgeNext, 2*ring),
		ready:        zeroed(old.ready, (ring+63)/64),
		inflight:     zeroed(old.inflight, cfg.ROBSize)[:0],
		fetchBudget:  ^uint64(0),
		committedBuf: zeroed(old.committedBuf, cfg.CommitWidth)[:0],
	}
	if c.pred == nil {
		c.pred, c.btb = bpred.New(), bpred.NewBTB()
		c.l1i, c.l1d = cache.New(cache.L1I), cache.New(cache.L1D)
		c.itlb, c.dtlb = cache.NewTLB("ITLB"), cache.NewTLB("DTLB")
	} else {
		c.pred.Reset()
		c.btb.Reset()
		c.l1i.Reset()
		c.l1d.Reset()
		c.itlb.Reset()
		c.dtlb.Reset()
	}
	for i := range c.lastWriter {
		c.lastWriter[i] = -1
	}
	return nil
}

// zeroed returns s resized to n zero elements, reusing its array when it
// has room.
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// Stats returns a copy of the statistics so far.
func (c *Core) Stats() Stats { return c.stats }

// Committed returns Stats().Instructions without copying Stats, for
// loops that test it every cycle.
func (c *Core) Committed() uint64 { return c.stats.Instructions }

// ResetStats zeroes the statistics while preserving microarchitectural
// state (caches, predictor, in-flight instructions). Experiments use it
// to discard warmup windows, mirroring the paper's use of Simpoint
// windows rather than whole-program runs.
func (c *Core) ResetStats() { c.stats = Stats{} }

// Cycle returns the current cycle number.
func (c *Core) Cycle() uint64 { return c.cycle }

// L2 returns the core's L2 cache.
func (c *Core) L2() *nuca.Cache { return c.l2 }

// PredictorStats returns branch predictor statistics.
func (c *Core) PredictorStats() bpred.PredStats { return c.pred.Stats() }

// L1DStats returns the data-cache statistics.
func (c *Core) L1DStats() cache.Stats { return c.l1d.Stats() }

// SetFetchBudget bounds the total number of instructions fetched; after
// the budget is exhausted the pipeline drains. A new budget can restart
// fetch, so the next Step runs every stage.
func (c *Core) SetFetchBudget(n uint64) {
	c.fetchBudget = n
	c.wake = 0
}

// Drained reports whether the fetch budget is exhausted and the pipeline
// is empty.
func (c *Core) Drained() bool {
	return c.fetchedTot >= c.fetchBudget && c.robCount == 0 && c.ifqCount == 0
}

// Step advances the core one cycle, committing at most commitBudget
// instructions (the RMT coupler uses this to model leading-thread stalls
// when the RVQ or StB is full). The returned slice is valid until the
// next call, and the caller must not write through it: it is usually a
// view of the core's instruction ring. A cycle before wake, when no
// stage can act, only advances the clock.
func (c *Core) Step(commitBudget int) []isa.Inst {
	c.cycle++
	c.stats.Activity.Cycles++
	if c.cycle < c.wake {
		return c.committedBuf[:0]
	}

	c.writeback()
	committed := c.commit(commitBudget)
	c.issue()
	c.dispatch()
	c.fetch()
	c.wake = c.nextWake()
	return committed
}

// Quiet returns how many of the next Steps can only advance the clock:
// they commit nothing whatever their budget, and change nothing but the
// cycle counters. A drained core is quiet for ever; a caller bounds the
// count by its own limits.
func (c *Core) Quiet() uint64 {
	if c.cycle+1 >= c.wake {
		return 0
	}
	return c.wake - c.cycle - 1
}

// Skip runs k quiet Steps in one call, k at most Quiet(): it advances the
// cycle and Activity.Cycles by k, as k Steps would.
func (c *Core) Skip(k uint64) {
	c.cycle += k
	c.stats.Activity.Cycles += k
}

// NextCommits returns how many instructions the next Step commits at
// full width, changing nothing: none on a quiet cycle, else the
// consecutive entries at the ROB head that are Done once that cycle's
// writeback has run, at most CommitWidth. A Step whose budget is at
// least this leaves the core exactly as a full-width Step would, since
// the budget acts on nothing but commit.
func (c *Core) NextCommits() int {
	if c.Quiet() > 0 {
		return 0
	}
	next, n := c.cycle+1, 0
	for slot := c.robHead; n < c.cfg.CommitWidth && n < c.robCount; n++ {
		e := &c.rob[slot]
		if e.state == stateWaiting || e.state == stateIssued && e.complete > next {
			break
		}
		slot = c.wrap(slot + 1)
	}
	return n
}

// CopyTo makes dst a copy of c as it stands — pipeline, predictor, BTB,
// L1 caches, TLBs, L2 contents and statistics — that reads on from src,
// which must yield what c's source yields from here on. The two share
// nothing: stepped with the same budgets they commit the same
// instructions, and neither sees the other's steps. dst may be a zero
// Core or any idle one; CopyTo reuses its tables and L2.
func (c *Core) CopyTo(dst *Core, src InstSource) {
	old := *dst
	if old.pred == nil {
		old.pred, old.btb = new(bpred.Predictor), new(bpred.BTB)
		old.l1i, old.l1d = cache.New(cache.L1I), cache.New(cache.L1D)
		old.itlb, old.dtlb = cache.NewTLB("ITLB"), cache.NewTLB("DTLB")
	}
	if old.l2 == nil {
		old.l2 = new(nuca.Cache)
	}
	*dst = *c
	dst.src = src
	dst.pred, dst.btb, dst.l1i, dst.l1d, dst.itlb, dst.dtlb, dst.l2 = old.pred, old.btb, old.l1i, old.l1d, old.itlb, old.dtlb, old.l2
	*dst.pred, *dst.btb = *c.pred, *c.btb
	c.l1i.CopyTo(dst.l1i)
	c.l1d.CopyTo(dst.l1d)
	c.itlb.CopyTo(dst.itlb)
	c.dtlb.CopyTo(dst.dtlb)
	c.l2.CopyTo(dst.l2)
	dst.insts = copied(old.insts, c.insts)
	dst.rob = copied(old.rob, c.rob)
	dst.edgeNext = copied(old.edgeNext, c.edgeNext)
	dst.ready = copied(old.ready, c.ready)
	dst.inflight = copied(old.inflight, c.inflight)
	dst.committedBuf = copied(old.committedBuf, c.committedBuf)
}

// Release drops the core's instruction source, so that an idle core
// keeps no stream alive; Reset and CopyTo give it a new one.
func (c *Core) Release() { c.src = nil }

// copied returns a copy of s, in d's array when that has room for
// cap(s) elements, so the copy grows as far as s can without
// reallocating.
func copied[T any](d, s []T) []T {
	if cap(d) < cap(s) {
		d = make([]T, len(s), cap(s))
	}
	d = d[:len(s)]
	copy(d, s)
	return d
}

// nextWake returns the first cycle at which a stage can act, given the
// state the stages left this cycle; any value up to the next cycle runs
// the next Step in full. Each stage acts only when:
//
//   - writeback: a completion is due (nextDone);
//   - commit: the ROB head is Done, which only writeback makes it;
//   - issue: cycle ≥ issueAt;
//   - dispatch: the IFQ head fits in the ROB, the LSQ and its issue
//     queue, which only writeback and commit (to make room) and fetch
//     (to fill an empty IFQ) change;
//   - fetch: the stall is over, the IFQ has room and the budget is not
//     spent; a mispredict stall ends at an issue, the IFQ drains by
//     dispatch, and the budget changes only by SetFetchBudget, which
//     clears wake.
func (c *Core) nextWake() uint64 {
	if c.robCount > 0 && c.rob[c.robHead].state == stateDone ||
		c.ifqCount > 0 && c.fits(c.insts[c.ifqHead].Op) {
		return c.cycle + 1
	}
	w := min(c.nextDone, c.issueAt)
	if c.ifqCount < c.cfg.IFQSize && c.fetchedTot < c.fetchBudget {
		w = min(w, c.fetchStallUntil)
	}
	return w
}

// Run executes until n instructions commit (or the pipeline drains) and
// returns the statistics. It skips each quiet stretch in one call.
func (c *Core) Run(n uint64) Stats {
	c.SetFetchBudget(n)
	for c.stats.Instructions < n && !c.Drained() {
		c.Advance(c.cfg.CommitWidth)
	}
	return c.stats
}

// Advance runs the quiet stretch ahead in one call, or else one Step
// with the given commit budget, and returns what that Step committed
// (nothing after a skip). Run it only where nothing bounds the stretch:
// a quiet core skips until its next event, for ever once drained.
func (c *Core) Advance(commitBudget int) []isa.Inst {
	if k := c.Quiet(); k > 0 {
		c.Skip(k)
		return c.committedBuf[:0]
	}
	return c.Step(commitBudget)
}

// --- pipeline stages -------------------------------------------------------

func (c *Core) fetch() {
	if c.cycle < c.fetchStallUntil {
		return
	}
	var lastBlock uint64 = ^uint64(0)
	for n := 0; n < c.cfg.FetchWidth; n++ {
		if c.ifqCount >= c.cfg.IFQSize || c.fetchedTot >= c.fetchBudget {
			return
		}
		slot := c.ifqTail
		in := &c.insts[slot]
		*in = c.src.Next()
		c.fetchedTot++
		c.stats.Activity.Fetched++

		// I-cache/ITLB per 64-byte fetch block.
		block := in.PC &^ 63
		if block != lastBlock {
			lastBlock = block
			c.stats.Activity.ICacheAccesses++
			if !c.itlb.Access(in.PC) {
				c.fetchStallUntil = c.cycle + uint64(c.cfg.TLBMissPenalty)
			}
			if hit, _ := c.l1i.Access(in.PC, false); !hit {
				c.stats.L1IMisses++
				lat, miss := c.l2.Access(block, false)
				c.noteL2(lat, miss)
				stall := uint64(lat)
				if miss {
					stall += uint64(c.cfg.MemLatencyCycles)
				}
				c.fetchStallUntil = c.cycle + stall
			}
		}

		// Branch prediction.
		if in.Op == isa.BranchCond {
			c.stats.Activity.BpredLookups++
			predTaken := c.pred.Lookup(in.PC)
			tgt, btbHit := c.btb.Lookup(in.PC)
			effTaken := predTaken && btbHit
			mispred := effTaken != in.Taken || (effTaken && tgt != in.Target)
			c.pred.Update(in.PC, predTaken, in.Taken)
			if in.Taken {
				c.btb.Update(in.PC, in.Target)
			}
			c.pushIFQ(slot, mispred)
			if mispred {
				c.stats.Mispredicts++
				// Fetch stalls until the branch resolves; the resolve
				// path adds the redirect latency when the branch issues.
				c.fetchStallUntil = ^uint64(0) >> 1 // released at issue
				return
			}
			if in.Taken {
				// One taken branch per fetch cycle.
				return
			}
			continue
		}
		if in.Op == isa.BranchUncond {
			c.pushIFQ(slot, false)
			return
		}
		c.pushIFQ(slot, false)
	}
}

// pushIFQ appends the instruction fetch has just written into slot to
// the IFQ.
func (c *Core) pushIFQ(slot int, mispred bool) {
	c.rob[slot].mispred = mispred
	c.ifqTail = c.wrap(slot + 1)
	c.ifqCount++
}

// wrap maps i, at most one lap past the ring's end, back onto the ring.
func (c *Core) wrap(i int) int {
	if i >= len(c.insts) {
		i -= len(c.insts)
	}
	return i
}

// dispatch moves IFQ entries into the ROB in place: the IFQ's oldest
// slot becomes the ROB's youngest.
func (c *Core) dispatch() {
	for n := 0; n < c.cfg.DispatchWidth && c.ifqCount > 0 && c.fits(c.insts[c.ifqHead].Op); n++ {
		slot := c.ifqHead
		in := &c.insts[slot]
		fp := in.Op.IsFP()
		c.ifqHead = c.wrap(slot + 1)
		c.ifqCount--

		e := &c.rob[slot]
		*e = robEntry{op: in.Op, state: stateWaiting, mispred: e.mispred, consumers: -1}
		if !in.Src1.IsZero() {
			c.dependOn(slot, 0, c.lastWriter[in.Src1])
		}
		if !in.Src2.IsZero() {
			c.dependOn(slot, 1, c.lastWriter[in.Src2])
		}
		if in.HasDest() {
			c.lastWriter[in.Dest] = slot
		}
		if e.pending == 0 {
			// Every producer has issued: the entry's earliest issue
			// cycle is known now (and is never this cycle, whose issue
			// stage has run).
			c.markReady(slot)
			c.issueAt = min(c.issueAt, max(e.readyAt, c.cycle+1))
		}
		c.robCount++

		if in.Op.IsMem() {
			c.lsq++
		}
		if fp {
			c.iqFP++
		} else {
			c.iqInt++
		}
		c.stats.Activity.Dispatched++
		c.stats.Activity.RegReads += 2
	}
}

// fits reports whether an instruction of class op has room in the ROB,
// the LSQ and its issue queue.
func (c *Core) fits(op isa.OpClass) bool {
	if c.robCount >= c.cfg.ROBSize || op.IsMem() && c.lsq >= c.cfg.LSQSize {
		return false
	}
	if op.IsFP() {
		return c.iqFP < c.cfg.IQFP
	}
	return c.iqInt < c.cfg.IQInt
}

// dependOn makes source k of the entry in slot wait for the producer in
// ring slot p (-1: the register's architectural value is ready). A
// producer that has issued already only raises the entry's readyAt;
// otherwise the entry joins the producer's consumers list, and issue
// wakes it.
func (c *Core) dependOn(slot, k, p int) {
	if p < 0 {
		return
	}
	e, prod := &c.rob[slot], &c.rob[p]
	if prod.state != stateWaiting {
		e.readyAt = max(e.readyAt, prod.complete)
		return
	}
	edge := int32(2*slot + k)
	c.edgeNext[edge] = prod.consumers
	prod.consumers = edge
	e.pending++
}

// wakeConsumers hands the completion cycle of the producer e, which has
// just issued, to every entry waiting for it, and marks ready those that
// wait for nothing else. A consumer is younger than its producer, so it
// is still in the ROB.
func (c *Core) wakeConsumers(e *robEntry) {
	for edge := e.consumers; edge >= 0; edge = c.edgeNext[edge] {
		slot := int(edge >> 1)
		d := &c.rob[slot]
		d.readyAt = max(d.readyAt, e.complete)
		if d.pending--; d.pending == 0 {
			c.markReady(slot)
		}
	}
	e.consumers = -1
}

func (c *Core) markReady(slot int) { c.ready[slot>>6] |= 1 << uint(slot&63) }

// writeback completes every in-flight entry whose result is available
// by this cycle, releasing its issue-queue and LSQ slots. It runs before
// commit, which needs completed entries marked Done; only dispatch reads
// the occupancies, so releasing them this early changes nothing it sees.
func (c *Core) writeback() {
	if c.cycle < c.nextDone {
		return
	}
	next := ^uint64(0)
	kept := c.inflight[:0]
	for _, idx := range c.inflight {
		e := &c.rob[idx]
		if e.complete > c.cycle {
			kept = append(kept, idx)
			next = min(next, e.complete)
			continue
		}
		e.state = stateDone
		if e.op.IsMem() {
			c.lsq--
		}
		if e.op.IsFP() {
			c.iqFP--
		} else {
			c.iqInt--
		}
	}
	c.inflight = kept
	c.nextDone = next
}

// issue selects, oldest first, ready entries whose operands are
// available and whose functional unit is free, up to the issue width.
// It walks the ready bitmap from the ROB head, wrapping at the ring
// size, which is program order: only ROB entries have ready bits.
//
// It does nothing before c.issueAt. A walk leaves issueAt at the
// earliest readyAt among the entries it could not issue, or at the next
// cycle when it issued anything (a consumer of the issued entry may be
// ready then) or left a ready entry behind for want of a unit or a slot.
// An entry whose producer has not issued is not in the bitmap: it cannot
// issue before that producer does. Every op latency is at least one
// cycle, so nothing issued this cycle can wake a consumer before the
// next one.
func (c *Core) issue() {
	if c.cycle < c.issueAt {
		return
	}
	slots := c.cfg.IssueWidth
	alu, mul, fpa, fpm := c.cfg.IntALU, c.cfg.IntMult, c.cfg.FPALU, c.cfg.FPMult
	loads, stores := c.cfg.LoadPorts, c.cfg.StorePorts

	next := ^uint64(0)
	// Visit the head's word twice: first the slots from the head up,
	// last (after the wrap) the slots below it.
	words := len(c.ready)
	hw, hb := c.robHead>>6, uint(c.robHead&63)
	for i := 0; i <= words; i++ {
		wi := hw + i
		if wi >= words {
			wi -= words
		}
		set := c.ready[wi]
		switch i {
		case 0:
			set &= ^uint64(0) << hb
		case words:
			set &= 1<<hb - 1
		}
		for ; set != 0; set &= set - 1 {
			slot := wi<<6 | bits.TrailingZeros64(set)
			e := &c.rob[slot]
			if e.readyAt > c.cycle {
				next = min(next, e.readyAt)
				continue
			}
			// Functional unit availability.
			free := true
			switch e.op {
			case isa.IntALU, isa.BranchCond, isa.BranchUncond:
				free, alu = take(alu)
			case isa.IntMult:
				free, mul = take(mul)
			case isa.FPALU:
				free, fpa = take(fpa)
			case isa.FPMult:
				free, fpm = take(fpm)
			case isa.Load:
				free, loads = take(loads)
			case isa.Store:
				free, stores = take(stores)
			}
			if !free {
				next = c.cycle + 1
				continue
			}
			lat := uint64(e.op.Latency())
			if e.op == isa.Load {
				lat += c.loadLatency(c.insts[slot].Addr)
				c.stats.Activity.IssuedMem++
			} else if e.op == isa.Store {
				// Stores complete at issue; the write drains at commit.
				c.stats.Activity.IssuedMem++
			} else if e.op.IsFP() {
				c.stats.Activity.IssuedFP++
			} else {
				c.stats.Activity.IssuedInt++
			}
			c.ready[wi] &^= 1 << uint(slot&63)
			e.state = stateIssued
			e.complete = c.cycle + lat
			c.inflight = append(c.inflight, slot)
			c.nextDone = min(c.nextDone, e.complete)
			c.wakeConsumers(e)
			if c.insts[slot].HasDest() {
				c.stats.Activity.RegWrites++
			}
			if e.mispred {
				// Redirect the front end after resolution.
				c.fetchStallUntil = e.complete + uint64(c.cfg.MispredictRedirect)
			}
			next = c.cycle + 1
			if slots--; slots == 0 {
				c.issueAt = next
				return
			}
		}
	}
	c.issueAt = next
}

// take claims one of n free units, reporting whether one was free and
// how many remain.
func take(n int) (bool, int) {
	if n == 0 {
		return false, 0
	}
	return true, n - 1
}

// loadLatency returns the additional cycles beyond address generation
// for a load: 2-cycle L1D hit, plus L2 and memory on misses.
func (c *Core) loadLatency(addr uint64) uint64 {
	c.stats.Activity.DCacheAccesses++
	var extra uint64
	if !c.dtlb.Access(addr) {
		extra = uint64(c.cfg.TLBMissPenalty)
	}
	hit, _ := c.l1d.Access(addr, false)
	if hit {
		return extra + uint64(cache.L1D.LatencyCycles)
	}
	c.stats.L1DMisses++
	lat, miss := c.l2.Access(addr, false)
	c.noteL2(lat, miss)
	total := extra + uint64(cache.L1D.LatencyCycles+lat)
	if miss {
		total += uint64(c.cfg.MemLatencyCycles)
	}
	return total
}

func (c *Core) noteL2(lat int, miss bool) {
	c.stats.Activity.L2Accesses++
	if miss {
		c.stats.L2Misses++
	} else {
		c.stats.L2Hits++
		c.stats.L2HitLatSum += uint64(lat)
	}
}

// commit retires up to budget Done entries from the ROB head and
// returns them as a view of the ring, or as a copy in committedBuf when
// the run wraps around the ring's end. The view stays valid until the
// next Step's commit: the ROB and IFQ never hold more than
// ROBSize+IFQSize slots, so fetch, which writes only past them, cannot
// reach the CommitWidth slots just freed before commit moves robHead on.
func (c *Core) commit(budget int) []isa.Inst {
	budget = min(budget, c.cfg.CommitWidth)
	start, n := c.robHead, 0
	for ; n < budget && c.robCount > 0; n++ {
		slot := c.robHead
		if c.rob[slot].state != stateDone {
			break
		}
		in := &c.insts[slot]
		// Stores write the cache at commit (the leading core commits
		// stores to the store buffer; the architectural write happens
		// after checking, but the cache-timing effect is modeled here).
		if in.Op == isa.Store {
			c.stats.Activity.DCacheAccesses++
			c.dtlb.Access(in.Addr) // fill charged, commit not stalled
			if hit, _ := c.l1d.Access(in.Addr, true); !hit {
				c.stats.L1DMisses++
				lat, miss := c.l2.Access(in.Addr, true)
				c.noteL2(lat, miss)
			}
		}
		// Clear register mapping if this entry is still the last writer.
		if in.HasDest() && c.lastWriter[in.Dest] == slot {
			c.lastWriter[in.Dest] = -1
		}
		c.robHead = c.wrap(slot + 1)
		c.robCount--
	}
	c.stats.Instructions += uint64(n)
	c.stats.Activity.Committed += uint64(n)
	if end := start + n; end <= len(c.insts) {
		return c.insts[start:end:end]
	}
	c.committedBuf = append(append(c.committedBuf[:0], c.insts[start:]...), c.insts[:start+n-len(c.insts)]...)
	return c.committedBuf
}
