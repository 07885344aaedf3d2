package main

import "fmt"

// probeEntries is the mini serve script of the probes: enough for a few
// novel, repeated and experiment jobs.
const probeEntries = 24

// probes fills in the per-layer metrics of layers the traced workload
// does not exercise (the windows workload renders nothing and serves no
// jobs), so every traced run reports every per-layer metric. Each probe
// is the workload that exercises the layer, in miniature: warm-render at
// the tiny tier's window size with one pass, serve with a short script
// and one pass. The run's metadata names the source of every metric.
func probes(rc *runConfig, o *outcome) error {
	prc := *rc
	prc.trace = false // a probe's passes all count; it is not split into traced and untraced halves
	prc.seconds = 0   // one pass: a probe does not measure for -seconds
	if _, ok := o.layers["experiment.render_s"]; !ok {
		q := tinyQuality()
		q.Seed = rc.seed
		res, err := warmRender(&prc, renderSize{q: q, setups: 1, passes: 1}, &o.tl)
		if err != nil {
			return fmt.Errorf("warm-render probe: %w", err)
		}
		o.layer(fmt.Sprintf("probe: warm-render at the tiny tier, %v ms horizon", dtmHorizonMs), renderMetrics(res))
	}
	if _, ok := o.layers["serve.submit_ms"]; !ok {
		sc := makeScript(rc.seed, scriptEntries).prefix(probeEntries)
		sr, err := runServePasses(&prc, sc, 1, &o.tl)
		if err != nil {
			return fmt.Errorf("serve probe: %w", err)
		}
		source := fmt.Sprintf("probe: serve, %d-entry script", probeEntries)
		o.layer(source, serveMetrics(sr))
		cm, err := campaignMetrics(rc, sr, &o.tl)
		if err != nil {
			return fmt.Errorf("campaign probe: %w", err)
		}
		o.layer(source, cm)
	}
	return nil
}
