package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"r3d/internal/campaign"
	"r3d/internal/core"
)

// FuzzSubmit posts arbitrary bytes to the submit handler. The server's
// one job worker is held by a gate job whose trial build waits for the
// server to drain, so no fuzzed job runs a trial or an experiment:
// accepted jobs queue behind the gate, and a full queue answers 429.
// Queued jobs hold their admission slots, so once the queue is full the
// target drains the server and starts a fresh one, which keeps the
// accept path reachable. Nothing may panic, and every reply must be 200
// or 202 with a job ID, or 4xx or 503 with an error body. The corpus
// starts from the bodies the package's tests and cmd/r3dservesmoke send,
// plus truncated, oversized and unknown-field bodies.
func FuzzSubmit(f *testing.F) {
	for _, sub := range []Submission{
		{Kind: KindCampaign, Grid: tinyGrid(1)},
		{Kind: KindCampaign, Grid: &campaign.Grid{}},
		{Kind: KindCampaign, Grid: tinyGrid(1), Experiment: "table2"},
		{Kind: KindExperiment, Experiment: "table2"},
		{Kind: KindExperiment, Experiment: "fig4", Quality: "tiny"},
		{Kind: KindExperiment, Experiment: "table2", DeadlineMS: 5},
		{Kind: KindExperiment, Experiment: "table2", Quality: "galactic"},
		{Kind: KindExperiment, Experiment: "nope"},
		{Kind: "frobnicate"},
	} {
		body, err := json.Marshal(sub)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
		f.Add(body[:len(body)/2])
	}
	smoke := `{"kind": "campaign", "grid": {"Benches": ["gzip"], "Seeds": [7], "LeadRates": [40], "Instructions": 20000, "Node": 65}}`
	f.Add([]byte(smoke))
	f.Add([]byte(`{"kind": "campaign", "grid": {"Benches": ["gzip"], "Seeds": [1, 2, 3, 4, 5], "LeadRates": [40], "Instructions": 20000, "Node": 65}}`))
	f.Add([]byte(`{"kind": "experiment", "experiment": "table2", "colour": "blue"}`))
	f.Add([]byte(`{"kind": "campaign"}{"kind": "campaign"}`))
	f.Add([]byte(`[]`))
	f.Add([]byte{})
	f.Add([]byte(`{"kind": "experiment", "experiment": "` + strings.Repeat("x", maxSubmissionBytes) + `"}`))

	g := newGatedServer(f)
	f.Cleanup(func() { g.close() })
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		g.h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/jobs", bytes.NewReader(body)))
		switch code := rec.Code; {
		case code == http.StatusOK || code == http.StatusAccepted:
			var res SubmitResult
			if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil || res.Job.ID == "" {
				t.Fatalf("reply %d without a job ID: %q", code, rec.Body.Bytes())
			}
		case code >= 400 && code < 500 || code == http.StatusServiceUnavailable:
			var eb errorBody
			if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || eb.Error == "" {
				t.Fatalf("reply %d without an error body: %q", code, rec.Body.Bytes())
			}
		default:
			t.Fatalf("reply %d: %q", code, rec.Body.Bytes())
		}
		// The server has no rate limit, so a 429 means the queue is full.
		if rec.Code == http.StatusTooManyRequests {
			g.close()
			g = newGatedServer(t)
		}
	})
}

// gatedServer is a server whose one job worker is held by a gate job.
type gatedServer struct {
	s       *Server
	h       http.Handler
	release chan struct{}
}

func newGatedServer(tb testing.TB) *gatedServer {
	release := make(chan struct{})
	s, err := New(Options{
		Tiers:           []Tier{{Name: "tiny", Quality: tinyQuality()}},
		QueueBound:      256,
		MaxTrialsPerJob: 4,
		Builder: func(campaign.TrialSpec) (*core.System, error) {
			<-release
			return nil, errors.New("fuzz: no trial runs")
		},
	})
	if err != nil {
		tb.Fatal(err)
	}
	if _, serr := s.Submit(Submission{Kind: KindCampaign, Grid: tinyGrid(0)}, "gate"); serr != nil {
		tb.Fatal(serr)
	}
	return &gatedServer{s: s, h: s.Handler(), release: release}
}

// close drains the server. Drain cancels every queued job before it
// waits for the worker; the gate opens only then, so no fuzzed job
// starts.
func (g *gatedServer) close() {
	drained := make(chan struct{})
	go func() {
		g.s.Drain()
		close(drained)
	}()
	for !g.s.Draining() || queuedJobs(g.s) > 0 {
		time.Sleep(time.Millisecond)
	}
	close(g.release)
	<-drained
}

// queuedJobs counts the jobs no worker has started.
func queuedJobs(s *Server) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, j := range s.jobs {
		if j.snapshot().State == StateQueued {
			n++
		}
	}
	return n
}
