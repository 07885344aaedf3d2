package experiment

import (
	"bytes"
	"testing"

	"r3d/internal/nuca"
	"r3d/internal/trace"
)

// TestPrefetchWorkerCountIdentity prefetches every golden window at one
// and at two workers — each batch replaying tapes and reusing cores —
// and requires byte-identical values, and a shadow re-verification of
// every two-worker window, which rebuilds it from a fresh generator and
// fresh tables, to find no divergence. The golden file pins the same
// values at GOMAXPROCS workers.
func TestPrefetchWorkerCountIdentity(t *testing.T) {
	q := goldenQuality()
	keys := goldenKeys(q)
	one := NewSession(q)
	two := NewSessionWith(q, SessionOptions{Workers: 2, ShadowFraction: 1})
	for _, s := range []*Session{one, two} {
		if err := s.Prefetch(keys); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range keys {
		var enc [2][]byte
		for i, s := range []*Session{one, two} {
			v, err := s.eng.Cached(k)
			if err != nil {
				t.Fatalf("%s: %v", k, err)
			}
			if enc[i], err = encodeRunValue(v); err != nil {
				t.Fatalf("%s: %v", k, err)
			}
		}
		if !bytes.Equal(enc[0], enc[1]) {
			t.Errorf("%s: one and two workers computed different windows", k)
		}
	}
	if err := two.Prefetch(keys); err != nil {
		t.Fatal(err)
	}
	if st := two.EngineStats(); st.ShadowChecked != len(keys) {
		t.Errorf("shadow-checked %d windows, want %d", st.ShadowChecked, len(keys))
	}
	for _, d := range two.ShadowDivergences() {
		t.Errorf("%s: a window built from scratch differs from the batch's", d.Key)
	}
	two.simMu.Lock()
	defer two.simMu.Unlock()
	if two.setup != nil || two.batches != 0 {
		t.Errorf("after the last batch: %d batches running, set-up kept: %v", two.batches, two.setup != nil)
	}
}

// TestShadowReportsTamperedTape corrupts the PC of one branch on the
// tape a batch replays: the batch's window is then wrong, and the
// shadow re-verification, which replays a fresh generator instead of
// the tape, must report it.
func TestShadowReportsTamperedTape(t *testing.T) {
	q := goldenQuality()
	k := LeadingKey(q, "gzip", L2DA, nuca.DistributedSets, 0)
	b, err := trace.ByName(k.Bench)
	if err != nil {
		t.Fatal(err)
	}
	// The first branch halfway through the measured window (fetch runs
	// ahead of commit, so an instruction just past the warm-up can
	// execute before the statistics are reset).
	g := trace.MustGenerator(b.Profile, q.Seed)
	at := uint64(0)
	for in := g.Next(); in.Seq < q.WarmupInsts+q.MeasureInsts/2 || !in.Op.IsBranch(); in = g.Next() {
		at = in.Seq + 1
	}
	s := NewSessionWith(q, SessionOptions{ShadowFraction: 1})
	// The open batch keeps the set-up, and the tampered tape in it,
	// alive through the first Prefetch; the second one's hit is
	// shadow-checked.
	s.beginBatch()
	tp := trace.NewTape(trace.MustGenerator(b.Profile, q.Seed))
	tp.Corrupt(at, 1<<40)
	s.setup.tape(b.Profile, q.Seed, tp)
	err = s.Prefetch([]RunKey{k})
	s.endBatch()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Prefetch([]RunKey{k}); err != nil {
		t.Fatal(err)
	}
	if d := s.ShadowDivergences(); len(d) != 1 || d[0].Key != k {
		t.Fatalf("divergences %+v, want one for %s", d, k)
	}
}
