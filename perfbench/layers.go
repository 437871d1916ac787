package main

import (
	"fmt"
	"time"
)

// tracedRun measures the per-layer metrics. Every path alternates
// untraced and traced passes — the workload's own path for the window, the
// others for sidePasses — so the tracing overhead is measured on passes
// that share the same conditions, and each path's named metrics come from
// its untraced passes. Then the layer probes time the simulation, decode
// and ingest layers on their own. The spans are written out at the end.
func tracedRun(workload, primary string, seed uint64, window time.Duration, m map[string]float64) error {
	tr := newTracer()
	pp := &profilePath{seed: seed}
	op := &optimizePath{seed: seed}
	ip := &ingestPath{seed: seed}
	defer ip.close()
	paths := map[string]path{"profile": pp, "optimize": op, "ingest": ip}
	for _, name := range pathOrder {
		p := paths[name]
		if err := p.setup(); err != nil {
			return fmt.Errorf("%s setup: %w", name, err)
		}
		n := sidePasses[name]
		if name == primary {
			n = 0
		}
		if err := driveTraced(p, window, n, true, tr); err != nil {
			return err
		}
		p.metrics(m)
		if name == primary {
			l := p.log()
			m["trace.overhead_pct"] = 100 * (median(l.traced) - median(l.plain)) / median(l.plain)
		}
	}

	lt := tr.times()
	share := func(path, name string) float64 { return 100 * lt.total[name] / lt.total[path] }
	m["share.profile.build"] = share("profile.op", "profile.build")
	m["share.profile.simulate"] = share("profile.op", "profile.profile_run")
	m["share.profile.analyze"] = share("profile.op", "profile.analyze")
	m["share.profile.legality"] = share("profile.op", "profile.legality")
	m["core.analyze_ms"] = 1e3 * lt.total["profile.analyze"] / float64(lt.count["profile.analyze"])
	m["legality.ms"] = 1e3 * lt.total["profile.legality"] / float64(lt.count["profile.legality"])

	m["share.optimize.profile"] = 100 * (lt.total["optimize.build_baseline"] + lt.total["optimize.profile"]) / lt.total["optimize.op"]
	m["share.optimize.legality"] = share("optimize.op", "optimize.legality")
	m["share.optimize.enumerate"] = share("optimize.op", "optimize.enumerate")
	m["share.optimize.build"] = share("optimize.op", "optimize.build")
	m["share.optimize.ab"] = 100 * lt.self["optimize.run_with_report"] / lt.total["optimize.op"]
	op.layerMetrics(lt, m)

	m["share.ingest.push"] = share("ingest.round", "ingest.push")
	m["share.ingest.report"] = share("ingest.round", "ingest.report")
	m["share.ingest.advice"] = share("ingest.round", "ingest.advice")

	if err := pp.probe(tr, m); err != nil {
		return fmt.Errorf("simulation probe: %w", err)
	}
	if err := ip.probe(tr, m); err != nil {
		return fmt.Errorf("ingest probe: %w", err)
	}
	return tr.write(spanDir, fmt.Sprintf("spans-%s-seed%d.json", workload, seed))
}
