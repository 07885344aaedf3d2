package experiment

import (
	"cmp"
	"slices"
	"strings"
	"sync"

	"r3d/internal/nuca"
	"r3d/internal/ooo"
	"r3d/internal/trace"
)

// setUp is what the windows of running Prefetch batches share instead
// of building it per window: a recorded stream per (profile, seed) and
// idle leading cores, each with the L2 it last ran on. A window built
// from it is bit-identical to one built from scratch, because a tape
// replays its generator's stream exactly and Reset returns a core and
// an L2 to the state New builds. A nil *setUp builds from scratch.
type setUp struct {
	// limit bounds the tapes and the idle cores kept: the worker count,
	// which bounds the windows one batch runs at once.
	limit int

	mu sync.Mutex
	// tapes holds the recorded streams, least recently used first.
	// r3dlint:guardedby mu
	tapes []streamTape
	// cores holds idle leading cores.
	// r3dlint:guardedby mu
	cores []*ooo.Core
}

// streamTape is the recording of one (profile, seed) stream.
type streamTape struct {
	profile trace.Profile
	seed    int64
	tape    *trace.Tape
}

// stream returns a source of the (profile, seed) stream: a reader of
// its tape, recorded on first use, or a fresh generator for a nil
// setUp.
func (p *setUp) stream(profile trace.Profile, seed int64) ooo.InstSource {
	if p == nil {
		return trace.MustGenerator(profile, seed)
	}
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

// core returns a cold leading core of cfg over src with a cold L2 of
// l2cfg: an idle core and its L2 reset, or new ones.
func (p *setUp) core(cfg ooo.Config, src ooo.InstSource, l2cfg nuca.Config) (*ooo.Core, error) {
	var c *ooo.Core
	if p != nil {
		p.mu.Lock()
		if n := len(p.cores); n > 0 {
			c = p.cores[n-1]
			p.cores = p.cores[:n-1]
		}
		p.mu.Unlock()
	}
	if c == nil {
		return ooo.New(cfg, src, nuca.New(l2cfg))
	}
	l2 := c.L2()
	l2.Reset(l2cfg)
	if err := c.Reset(cfg, src, l2); err != nil {
		return nil, err
	}
	return c, nil
}

// done takes back a core whose window has finished.
func (p *setUp) done(c *ooo.Core) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.cores) < p.limit {
		p.cores = append(p.cores, c)
	}
}

// beginBatch opens a Prefetch batch, making the shared set-up if no
// other batch is running.
func (s *Session) beginBatch() {
	s.simMu.Lock()
	defer s.simMu.Unlock()
	if s.batches++; s.setup == nil {
		s.setup = &setUp{limit: s.eng.Workers()}
	}
}

// endBatch closes a Prefetch batch; the last one to end drops the
// set-up, so tapes and idle cores live only while batches run.
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
