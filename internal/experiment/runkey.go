package experiment

import (
	"fmt"
	"strings"

	"r3d/internal/nuca"
)

// RunKind selects which simulation window a RunKey names.
type RunKind uint8

// The four cached window families of the evaluation.
const (
	// KindLeading is a standalone leading-core window (bench × L2
	// organization × NUCA policy × memory latency).
	KindLeading RunKind = iota
	// KindRMT is a coupled leading+checker window with a DFS frequency
	// cap (bench × L2 organization × checker-GHz cap).
	KindRMT
	// KindDFSVariant is a 2d-a RMT window with the DFS thresholds,
	// evaluation interval and emergency ramp of one §4 ablation
	// variant (DFSVariants); the "default" variant is the default
	// configuration.
	KindDFSVariant
	// KindRVQSize is a 2d-a RMT window with the swept RVQ capacity of
	// the §2.1 queue-sizing sweep and thresholds at 30%/60% of it; 200
	// entries is the default configuration.
	KindRVQSize
)

// Keys of different kinds can name one configuration: rmt/<b>/2d-a/
// 2.00GHz, dfs/<b>/default and rvq/<b>/200 all run the default RMT
// system, and a leading key's memory latency 0 and 300 are the same
// window. Each key is still computed, reported and persisted under its
// own name; the session runs their shared simulation once (window.go).

// CentiGHz is a frequency stored in hundredths of a GHz. RunKeys keep
// the checker DFS cap in this integer unit so key equality and ordering
// stay exact (no float rounding in map keys); the units manifest anchors
// it as a distinct dimension from plain GHz so the two are never mixed
// without going through the documented ×100 quantization.
type CentiGHz int

// GHz converts the quantized cap back to GHz for simulator configs.
func (c CentiGHz) GHz() float64 { return float64(c) / 100 }

func (k RunKind) String() string {
	switch k {
	case KindRMT:
		return "rmt"
	case KindDFSVariant:
		return "dfs"
	case KindRVQSize:
		return "rvq"
	default:
		return "lead"
	}
}

// RunKey canonically identifies one memoized simulation window. It
// replaces the ad-hoc fmt.Sprintf cache keys that used to be scattered
// across session.go, ablation.go and extensions.go: every experiment
// names its windows with the same typed key, so the run engine can
// deduplicate, schedule and account for them uniformly. Unused fields
// are zero for a given Kind, which keeps equality and ordering exact
// (no floats: the checker cap is stored in centi-GHz).
type RunKey struct {
	Kind  RunKind
	Bench string
	// L2 and Policy select the NUCA organization (KindLeading and
	// KindRMT; variant/sizing windows always run 2d-a distributed-sets).
	L2     L2Config
	Policy nuca.Policy
	// MemLatency overrides the memory latency in cycles when positive
	// (KindLeading only; the §3.3 frequency-scaling study).
	MemLatency int
	// CheckerCGHz is the checker DFS cap in centi-GHz (KindRMT only;
	// 200 = the 2.0 GHz homogeneous stack).
	CheckerCGHz CentiGHz
	// DFSVariant names the DFSVariants() entry (KindDFSVariant only).
	DFSVariant string
	// RVQSize is the swept queue capacity (KindRVQSize only).
	RVQSize int
	// Seed is the workload generator seed (always the session quality's).
	Seed int64
}

// String renders the canonical form used in engine reports.
func (k RunKey) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s/%s", k.Kind, k.Bench)
	switch k.Kind {
	case KindLeading:
		policy := "sets"
		if k.Policy == nuca.DistributedWays {
			policy = "ways"
		}
		fmt.Fprintf(&b, "/%s/%s", k.L2, policy)
		if k.MemLatency > 0 {
			fmt.Fprintf(&b, "/mem%d", k.MemLatency)
		}
	case KindRMT:
		fmt.Fprintf(&b, "/%s/%d.%02dGHz", k.L2, k.CheckerCGHz/100, k.CheckerCGHz%100)
	case KindDFSVariant:
		fmt.Fprintf(&b, "/%s", k.DFSVariant)
	case KindRVQSize:
		fmt.Fprintf(&b, "/%d", k.RVQSize)
	}
	fmt.Fprintf(&b, "/s%d", k.Seed)
	return b.String()
}

// CompareRunKeys is the canonical total order over RunKeys: the order
// batch results are committed in and engine reports are listed in.
func CompareRunKeys(a, b RunKey) int {
	if c := int(a.Kind) - int(b.Kind); c != 0 {
		return c
	}
	if c := strings.Compare(a.Bench, b.Bench); c != 0 {
		return c
	}
	if c := int(a.L2) - int(b.L2); c != 0 {
		return c
	}
	if c := int(a.Policy) - int(b.Policy); c != 0 {
		return c
	}
	if c := a.MemLatency - b.MemLatency; c != 0 {
		return c
	}
	if c := int(a.CheckerCGHz) - int(b.CheckerCGHz); c != 0 {
		return c
	}
	if c := strings.Compare(a.DFSVariant, b.DFSVariant); c != 0 {
		return c
	}
	if c := a.RVQSize - b.RVQSize; c != 0 {
		return c
	}
	switch {
	case a.Seed < b.Seed:
		return -1
	case a.Seed > b.Seed:
		return 1
	}
	return 0
}

// LeadingKey names a standalone leading-core window.
func LeadingKey(q Quality, bench string, l2c L2Config, policy nuca.Policy, memLatency int) RunKey {
	return RunKey{Kind: KindLeading, Bench: bench, L2: l2c, Policy: policy, MemLatency: memLatency, Seed: q.Seed}
}

// RMTKey names a coupled RMT window; the cap is quantized to centi-GHz
// (every caller passes deci-GHz values, so the quantization is exact).
func RMTKey(q Quality, bench string, l2c L2Config, maxCheckerGHz float64) RunKey {
	return RunKey{Kind: KindRMT, Bench: bench, L2: l2c, CheckerCGHz: CentiGHz(maxCheckerGHz*100 + 0.5), Seed: q.Seed}
}

// DFSVariantKey names a DFS-threshold ablation window.
func DFSVariantKey(q Quality, bench, variant string) RunKey {
	return RunKey{Kind: KindDFSVariant, Bench: bench, DFSVariant: variant, Seed: q.Seed}
}

// RVQSizeKey names a queue-sizing window.
func RVQSizeKey(q Quality, bench string, size int) RunKey {
	return RunKey{Kind: KindRVQSize, Bench: bench, RVQSize: size, Seed: q.Seed}
}

// --- manifest helpers --------------------------------------------------------

// suiteLeadKeys lists one leading window per suite benchmark.
func suiteLeadKeys(q Quality, l2c L2Config, policy nuca.Policy, memLatency int) []RunKey {
	var keys []RunKey
	for _, b := range q.Suite() {
		keys = append(keys, LeadingKey(q, b.Profile.Name, l2c, policy, memLatency))
	}
	return keys
}

// suiteRMTKeys lists one RMT window per suite benchmark.
func suiteRMTKeys(q Quality, l2c L2Config, maxCheckerGHz float64) []RunKey {
	var keys []RunKey
	for _, b := range q.Suite() {
		keys = append(keys, RMTKey(q, b.Profile.Name, l2c, maxCheckerGHz))
	}
	return keys
}

// activityKeys is the manifest of SuiteActivity / BenchActivity: the
// leading windows behind every power map and thermal case.
func activityKeys(q Quality, l2c L2Config) []RunKey {
	return suiteLeadKeys(q, l2c, nuca.DistributedSets, 0)
}
