package experiment

import (
	"cmp"
	"slices"
	"strings"
	"sync"

	"r3d/internal/nuca"
	"r3d/internal/ooo"
	"r3d/internal/runsched"
	"r3d/internal/trace"
)

// setUp is what the windows of running Prefetch batches share instead
// of building it per window: a recorded stream per (profile, seed), idle
// leading cores, each with the L2 it last ran on, and the groups of
// windows that share a leading core (group.go). A window built from it
// is bit-identical to one built from scratch, because a tape replays
// its generator's stream exactly, Reset returns a core and an L2 to the
// state New builds, and a group forks each window off its trunk before
// the two could differ. A nil *setUp builds from scratch.
type setUp struct {
	// limit bounds the tapes kept, and half the idle cores: the worker
	// count, which bounds the windows one batch runs at once, each on
	// at most two cores (a group's trunk and its branch).
	limit int

	mu sync.Mutex
	// tapes holds the recorded streams, least recently used first.
	// r3dlint:guardedby mu
	tapes []streamTape
	// cores holds idle leading cores.
	// r3dlint:guardedby mu
	cores []*ooo.Core
	// groups maps a trunk window (windowSpec.trunk) to the distinct
	// windows of the running batches that share its leading core.
	// r3dlint:guardedby mu
	groups map[windowSpec][]windowSpec

	// runs holds the values of each group that ran, by trunk window.
	runs runsched.Flight[windowSpec, map[windowSpec]runValue]
}

// streamTape is the recording of one (profile, seed) stream.
type streamTape struct {
	profile trace.Profile
	seed    int64
	tape    *trace.Tape
}

// stream returns a source of the (profile, seed) stream: a reader of
// its tape, or a fresh generator for a nil setUp.
func (p *setUp) stream(profile trace.Profile, seed int64) ooo.InstSource {
	if p == nil {
		return trace.MustGenerator(profile, seed)
	}
	return p.reader(profile, seed)
}

// reader returns a reader of the (profile, seed) stream's tape,
// recorded on first use.
func (p *setUp) reader(profile trace.Profile, seed int64) *trace.TapeReader {
	if t := p.tape(profile, seed, nil); t != nil {
		return t.Reader()
	}
	t := trace.NewTape(trace.MustGenerator(profile, seed))
	return p.tape(profile, seed, t).Reader()
}

// tape returns the tape of the (profile, seed) stream and marks it the
// most recently used. Without one it keeps and returns add (nil: none),
// dropping the least recently used tape beyond limit; readers that
// still hold a dropped tape finish on it.
func (p *setUp) tape(profile trace.Profile, seed int64, add *trace.Tape) *trace.Tape {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, st := range p.tapes {
		if st.profile == profile && st.seed == seed {
			p.tapes = append(slices.Delete(p.tapes, i, i+1), st)
			return st.tape
		}
	}
	if add != nil {
		if len(p.tapes) >= p.limit {
			p.tapes = slices.Delete(p.tapes, 0, 1)
		}
		p.tapes = append(p.tapes, streamTape{profile: profile, seed: seed, tape: add})
	}
	return add
}

// core returns a cold leading core for window w over src, with a cold
// L2 of its organization: an idle core and its L2 reset, or new ones.
func (p *setUp) core(w windowSpec, src ooo.InstSource) (*ooo.Core, error) {
	l2cfg, err := nuca.ByName(w.l2.String(), w.policy)
	if err != nil {
		return nil, err
	}
	c := p.idle()
	if c == nil {
		return ooo.New(w.lead, src, nuca.New(l2cfg))
	}
	l2 := c.L2()
	l2.Reset(l2cfg)
	if err := c.Reset(w.lead, src, l2); err != nil {
		return nil, err
	}
	return c, nil
}

// idle takes an idle core, or returns nil when there is none.
func (p *setUp) idle() *ooo.Core {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(p.cores)
	if n == 0 {
		return nil
	}
	c := p.cores[n-1]
	p.cores = p.cores[:n-1]
	return c
}

// done takes back a core whose window has finished. It drops the
// core's stream, so an idle core keeps no tape alive.
func (p *setUp) done(c *ooo.Core) {
	if p == nil {
		return
	}
	c.Release()
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.cores) < 2*p.limit {
		p.cores = append(p.cores, c)
	}
}

// addGroups adds each window of ws to the group of its leading core.
func (p *setUp) addGroups(ws []windowSpec) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.groups == nil {
		p.groups = map[windowSpec][]windowSpec{}
	}
	for _, w := range ws {
		t := w.trunk()
		if !slices.Contains(p.groups[t], w) {
			p.groups[t] = append(p.groups[t], w)
		}
	}
}

// group returns the windows of w's group, or nil when w shares its
// leading core with no other window of the running batches or the
// group lacks its trunk window. Without it, the trunk's steps serve only
// the prefixes the coupled windows share before they fork, which on
// short windows cost more in copies than they save.
func (p *setUp) group(w windowSpec) []windowSpec {
	p.mu.Lock()
	defer p.mu.Unlock()
	g := p.groups[w.trunk()]
	if len(g) < 2 || !slices.Contains(g, w) || !slices.Contains(g, w.trunk()) {
		return nil
	}
	return slices.Clone(g)
}

// beginBatch opens a Prefetch batch of keys, making the shared set-up
// if no other batch is running, and adds the windows of the keys the
// engine does not hold yet to the groups of their leading cores.
func (s *Session) beginBatch(keys []RunKey) {
	var ws []windowSpec
	for _, k := range keys {
		if w, err := resolveWindow(k); err == nil && !s.eng.Has(k) {
			ws = append(ws, w)
		}
	}
	s.simMu.Lock()
	defer s.simMu.Unlock()
	if s.batches++; s.setup == nil {
		s.setup = &setUp{limit: s.eng.Workers()}
	}
	s.setup.addGroups(ws)
}

// endBatch closes a Prefetch batch; the last one to end drops the
// set-up, so tapes, idle cores and groups live only while batches run.
func (s *Session) endBatch() {
	s.simMu.Lock()
	defer s.simMu.Unlock()
	if s.batches--; s.batches == 0 {
		s.setup = nil
	}
}

// compareStreams orders keys by the stream their window replays —
// bench, then seed — and then canonically. Batches dispatch in this
// order (Session.PrefetchUntil sorts the keys it hands the engine), so
// the windows of one stream run together and its tape is recorded
// once.
func compareStreams(a, b RunKey) int {
	if c := strings.Compare(a.Bench, b.Bench); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Seed, b.Seed); c != 0 {
		return c
	}
	return CompareRunKeys(a, b)
}
