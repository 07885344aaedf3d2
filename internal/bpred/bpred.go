// Package bpred implements the leading core's branch direction predictor
// and branch target buffer with the geometry of the paper's Table 1: a
// combined (tournament) predictor with a 16K-entry bimodal component, a
// two-level component (16K-entry level-1 history table, 12 bits of
// history, 16K-entry level-2 PHT), a 16K-entry selector, and a
// 16384-set 2-way BTB. The trailing checker core does not use this
// package: it receives branch outcomes from the leading core through the
// BOQ and therefore enjoys perfect prediction (§2 of the paper).
package bpred

// Table geometries from Table 1 of the paper.
const (
	BimodalEntries = 16384
	L1Entries      = 16384
	HistoryBits    = 12
	L2Entries      = 16384
	MetaEntries    = 16384
	BTBSets        = 16384
	BTBWays        = 2
	// MispredictLatency is the branch misprediction penalty in cycles.
	MispredictLatency = 12
)

// counter is a 2-bit saturating counter; values 2..3 predict taken.
type counter uint8

func (c counter) taken() bool { return c >= 2 }

func (c counter) update(taken bool) counter {
	if taken {
		if c < 3 {
			return c + 1
		}
		return c
	}
	if c > 0 {
		return c - 1
	}
	return c
}

// Predictor is a tournament predictor: a per-address bimodal table and a
// global-history two-level table, arbitrated by a meta (chooser) table.
type Predictor struct {
	bimodal [BimodalEntries]counter
	l1      [L1Entries]uint16 // per-address history registers
	l2      [L2Entries]counter
	meta    [MetaEntries]counter

	stats PredStats
}

// PredStats accumulates prediction accuracy counters.
type PredStats struct {
	Lookups     uint64
	Mispredicts uint64
	BTBMisses   uint64
}

// MispredictRate returns mispredictions per lookup (0 if no lookups).
func (s PredStats) MispredictRate() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return float64(s.Mispredicts) / float64(s.Lookups)
}

// New returns a predictor with weakly-taken initial state, the common
// SimpleScalar initialization.
func New() *Predictor {
	p := &Predictor{}
	p.Reset()
	return p
}

// Reset returns p to the state New builds.
func (p *Predictor) Reset() {
	for i := range p.bimodal {
		p.bimodal[i] = 1
	}
	clear(p.l1[:])
	for i := range p.l2 {
		p.l2[i] = 1
	}
	for i := range p.meta {
		p.meta[i] = 2 // slight initial preference for the 2-level side
	}
	p.stats = PredStats{}
}

func bimodalIndex(pc uint64) int { return int(pc>>2) & (BimodalEntries - 1) }
func l1Index(pc uint64) int      { return int(pc>>2) & (L1Entries - 1) }
func metaIndex(pc uint64) int    { return int(pc>>2) & (MetaEntries - 1) }

func (p *Predictor) l2Index(pc uint64) int {
	hist := uint64(p.l1[l1Index(pc)]) & ((1 << HistoryBits) - 1)
	return int((hist ^ (pc >> 2))) & (L2Entries - 1)
}

// Lookup predicts the direction of the conditional branch at pc.
func (p *Predictor) Lookup(pc uint64) bool {
	p.stats.Lookups++
	b := p.bimodal[bimodalIndex(pc)].taken()
	g := p.l2[p.l2Index(pc)].taken()
	if p.meta[metaIndex(pc)].taken() {
		return g
	}
	return b
}

// Update trains the predictor with the resolved outcome and records a
// misprediction if predicted != taken.
func (p *Predictor) Update(pc uint64, predicted, taken bool) {
	if predicted != taken {
		p.stats.Mispredicts++
	}
	bi := bimodalIndex(pc)
	gi := p.l2Index(pc)
	b := p.bimodal[bi].taken()
	g := p.l2[gi].taken()
	// Chooser trains towards the component that was right (only when
	// they disagree).
	if b != g {
		mi := metaIndex(pc)
		p.meta[mi] = p.meta[mi].update(g == taken)
	}
	p.bimodal[bi] = p.bimodal[bi].update(taken)
	p.l2[gi] = p.l2[gi].update(taken)
	// Shift outcome into the per-address history register.
	li := l1Index(pc)
	p.l1[li] = (p.l1[li]<<1 | b2u(taken)) & ((1 << HistoryBits) - 1)
}

func b2u(b bool) uint16 {
	if b {
		return 1
	}
	return 0
}

// Stats returns a copy of the accumulated statistics.
func (p *Predictor) Stats() PredStats { return p.stats }

// btbEntry is one BTB way.
type btbEntry struct {
	tag    uint64
	target uint64
	valid  bool
	lru    uint8
}

// BTB is a 16384-set, 2-way branch target buffer.
type BTB struct {
	sets  [BTBSets][BTBWays]btbEntry
	stats PredStats
}

// NewBTB returns an empty BTB.
func NewBTB() *BTB { return &BTB{} }

// Reset empties b, as NewBTB builds it.
func (b *BTB) Reset() { *b = BTB{} }

func btbIndex(pc uint64) (set int, tag uint64) {
	return int(pc>>2) & (BTBSets - 1), pc >> 16
}

// Lookup returns the predicted target for the branch at pc, and whether
// the BTB hit. A miss is counted and predicts not-taken / fall-through.
func (b *BTB) Lookup(pc uint64) (target uint64, hit bool) {
	set, tag := btbIndex(pc)
	for w := range b.sets[set] {
		e := &b.sets[set][w]
		if e.valid && e.tag == tag {
			e.lru = 0
			b.sets[set][1-w].lru = 1
			return e.target, true
		}
	}
	b.stats.BTBMisses++
	return 0, false
}

// Update installs or refreshes the target for a taken branch.
func (b *BTB) Update(pc, target uint64) {
	set, tag := btbIndex(pc)
	// Hit: refresh.
	for w := range b.sets[set] {
		e := &b.sets[set][w]
		if e.valid && e.tag == tag {
			e.target = target
			e.lru = 0
			b.sets[set][1-w].lru = 1
			return
		}
	}
	// Miss: fill LRU way.
	victim := 0
	for w := range b.sets[set] {
		if !b.sets[set][w].valid {
			victim = w
			break
		}
		if b.sets[set][w].lru > b.sets[set][victim].lru {
			victim = w
		}
	}
	b.sets[set][victim] = btbEntry{tag: tag, target: target, valid: true}
	b.sets[set][1-victim].lru = 1
}

// Stats returns BTB statistics.
func (b *BTB) Stats() PredStats { return b.stats }
