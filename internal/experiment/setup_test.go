package experiment

import (
	"bytes"
	"slices"
	"testing"

	"r3d/internal/nuca"
	"r3d/internal/runsched"
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
	s.beginBatch(nil)
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

// TestConcurrentGroupsMatchSoloWindows runs each Fast()/5 stream's
// windows as one batch, at one and at four workers, so that the windows
// sharing the stream's 2d-a leading core run as a group on one trunk and
// fork off it, and requires every key's value to be byte-identical to a
// fresh session's that computes the key alone, on a core of its own. A
// second batch per stream leaves the trunk's own lead window out, which
// forms no group: its coupled windows run alone. The streams include
// art and mcf, whose coupled windows mostly never fork.
func TestConcurrentGroupsMatchSoloWindows(t *testing.T) {
	q := Fast()
	q.WarmupInsts /= 5
	q.MeasureInsts /= 5
	keys := ManifestUnion(q, Registry())
	slices.SortFunc(keys, CompareRunKeys)
	streams := map[string][]RunKey{}
	want := map[RunKey][]byte{}
	for _, k := range slices.Compact(keys) {
		streams[k.Bench] = append(streams[k.Bench], k)
		alone := NewSession(q)
		v, err := alone.eng.Get(k)
		if err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		if want[k], err = encodeRunValue(v); err != nil {
			t.Fatal(err)
		}
	}
	for _, workers := range []int{1, 4} {
		for _, b := range q.Benchmarks {
			trunk := LeadingKey(q, b, L2DA, nuca.DistributedSets, 0)
			tw, err := resolveWindow(trunk)
			if err != nil {
				t.Fatal(err)
			}
			withoutLead := slices.DeleteFunc(slices.Clone(streams[b]), func(k RunKey) bool { return k == trunk })
			for _, batch := range [][]RunKey{streams[b], withoutLead} {
				s := NewSessionWith(q, SessionOptions{Workers: workers})
				// An outer batch keeps the set-up, and the group's
				// values in it, past the Prefetch.
				s.beginBatch(nil)
				err := s.Prefetch(batch)
				vals, how, _ := s.setup.runs.Do(tw, func() (map[windowSpec]runValue, error) { return nil, nil })
				s.endBatch()
				if err != nil {
					t.Fatal(err)
				}
				// The 2d-a lead window and the stream's 8 coupled
				// configurations (10 coupled keys), or no group.
				members := 0
				if len(batch) == len(streams[b]) {
					members = 9
				}
				if ran := how == runsched.Hit; ran != (members > 0) || len(vals) != members {
					t.Errorf("%s, %d keys, %d workers: a group ran %d windows (ran: %v), want %d", b, len(batch), workers, len(vals), ran, members)
				}
				for _, k := range batch {
					v, err := s.eng.Cached(k)
					if err != nil {
						t.Fatalf("%s: %v", k, err)
					}
					got, err := encodeRunValue(v)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, want[k]) {
						t.Errorf("%s, %d keys, %d workers: the batch's value differs from the key's alone", k, len(batch), workers)
					}
				}
			}
		}
	}
}
