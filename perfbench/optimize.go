package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"time"

	"repro/internal/optimize"
	"repro/internal/prog"
	"repro/internal/workloads"
	"repro/structslim"
)

// optimizePath optimizes the seven paper programs, serially (Parallel: 1)
// with the default statistical screen and exact confirmation. Each op
// makes the calls optimize.Run makes — build, ProfileAndAnalyze,
// AttachLegality, RunWithReport — so the profiling run's statistics are
// at hand and traced ops run the same code as untraced ones.
type optimizePath struct {
	seed     uint64
	progs    []workloads.Workload
	ref      [][32]byte // rendered result per program, from its first op
	speedups []float64  // ConfirmedSpeedup per program, from its first op
	overhead []float64  // profiling-run overhead per program
	memOps   []uint64   // profiling-run MemOps per program
	pl       passLog
	// counts over the traced passes.
	candidates, skipped, ranked, exactLayout int
}

func (o *optimizePath) options() optimize.Options {
	return optimize.Options{Scale: scale, SamplePeriod: samplePeriod, Seed: o.seed, Parallel: 1}
}

// setup's warm-up op optimizes the first program.
func (o *optimizePath) setup() error {
	o.progs = workloads.Paper()
	o.ref = make([][32]byte, len(o.progs))
	o.speedups = make([]float64, len(o.progs))
	o.overhead = make([]float64, len(o.progs))
	o.memOps = make([]uint64, len(o.progs))
	if err := o.op(0, nil); err != nil {
		return fmt.Errorf("%s: %w", o.progs[0].Name(), err)
	}
	return nil
}

func (o *optimizePath) pass(tr *tracer) error {
	t0 := time.Now()
	for i, w := range o.progs {
		t := time.Now()
		err := o.op(i, tr)
		if tr == nil {
			o.pl.addOp(i, time.Since(t))
		}
		if err != nil {
			err = fmt.Errorf("optimize %s: %w", w.Name(), err)
		}
		opDone(err)
	}
	o.pl.add(time.Since(t0), tr != nil)
	return nil
}

// op optimizes program i and checks the result. Traced, each call gets a
// span, Enumerate is called once more from outside (the call
// inside RunWithReport is out of reach) and RunWithReport gets a Workload
// whose Build is timed.
func (o *optimizePath) op(i int, tr *tracer) error {
	w := o.progs[i]
	op := tr.newOp()
	root := tr.begin("optimize.op", 0, op)
	defer tr.end(root)
	opt := o.options()
	sp := tr.begin("optimize.build_baseline", root, op)
	p, phases, err := w.Build(nil, opt.Scale)
	tr.end(sp)
	if err != nil {
		return err
	}
	po := structslim.Options{SamplePeriod: opt.SamplePeriod, Seed: opt.Seed}
	sp = tr.begin("optimize.profile", root, op)
	res, rep, err := structslim.ProfileAndAnalyze(p, phases, po)
	tr.end(sp)
	if err != nil {
		return err
	}
	sp = tr.begin("optimize.legality", root, op)
	_, err = structslim.AttachLegality(rep, p)
	tr.end(sp)
	if err != nil {
		return err
	}
	ab := w
	var cands []optimize.Candidate
	if tr != nil {
		sp = tr.begin("optimize.enumerate", root, op)
		cands, _, err = optimize.Enumerate(w.Record(), structslim.FindStruct(rep, w.Record().Name), opt.Enum)
		tr.end(sp)
		if err != nil {
			return err
		}
	}
	sp = tr.begin("optimize.run_with_report", root, op)
	if tr != nil {
		ab = timedWorkload{w, tr, sp, op}
	}
	r, err := optimize.RunWithReport(ab, p, rep, opt)
	tr.end(sp)
	if err != nil {
		return err
	}
	if tr != nil {
		o.candidates += len(cands)
		o.skipped += len(r.Skipped)
		o.ranked += len(r.Ranked)
		for _, row := range r.Ranked {
			if row.ExactCycles > 0 {
				o.exactLayout++
			}
		}
	}
	o.overhead[i] = res.Stats.OverheadPct()
	o.memOps[i] = res.Stats.MemOps
	return o.checkResult(i, r)
}

// checkResult holds the selection to the optimizer's guarantees and to the
// program's first result.
func (o *optimizePath) checkResult(i int, r *optimize.Result) error {
	if r.ExactSelected > r.ExactBaseline {
		return fmt.Errorf("selected %d cycles > baseline %d", r.ExactSelected, r.ExactBaseline)
	}
	if r.ExactAdvice > 0 && r.ExactSelected > r.ExactAdvice {
		return fmt.Errorf("selected %d cycles > advice %d", r.ExactSelected, r.ExactAdvice)
	}
	var buf bytes.Buffer
	r.RenderText(&buf)
	d := sha256.Sum256(buf.Bytes())
	if o.speedups[i] == 0 {
		o.ref[i], o.speedups[i] = d, r.ConfirmedSpeedup
	} else if d != o.ref[i] {
		return fmt.Errorf("result differs from its first op")
	}
	return nil
}

// timedWorkload records a span around every Build the A/B loop makes.
type timedWorkload struct {
	workloads.Workload
	tr         *tracer
	parent, op int64
}

func (w timedWorkload) Build(l *prog.PhysLayout, s workloads.Scale) (*prog.Program, []workloads.Phase, error) {
	sp := w.tr.begin("optimize.build", w.parent, w.op)
	defer w.tr.end(sp)
	return w.Workload.Build(l, s)
}

func (o *optimizePath) metrics(m map[string]float64) {
	m["optimize.sweep_p50_s"] = o.pl.p50()
	logSum := 0.0
	for _, s := range o.speedups {
		logSum += math.Log(s)
	}
	m["optimize.geomean_speedup"] = math.Exp(logSum / float64(len(o.speedups)))
}

// e2e's input is the seven programs' simulated accesses (their
// profiling runs' MemOps) and its overhead the mean profiling-run
// overhead.
func (o *optimizePath) e2e(m map[string]float64) {
	var perPass float64
	for _, n := range o.memOps {
		perPass += float64(n)
	}
	m["pass_min_s"] = o.pl.min()
	m["input_per_s"] = perPass / o.pl.min()
	m["overhead_pct"] = mean(o.overhead)
}

func (o *optimizePath) log() *passLog { return &o.pl }
func (o *optimizePath) close()        {}

// layerMetrics derives the optimizer's per-layer metrics from the traced
// passes' spans and counts.
func (o *optimizePath) layerMetrics(lt layerTimes, m map[string]float64) {
	ops := float64(lt.count["optimize.op"])
	passes := ops / float64(len(o.progs))
	m["optimize.profile_ms"] = lt.total["optimize.profile"] * 1e3 / ops
	m["optimize.enumerate_ms"] = lt.total["optimize.enumerate"] * 1e3 / ops
	m["optimize.ab_ms"] = lt.self["optimize.run_with_report"] * 1e3 / ops
	m["optimize.builds"] = float64(lt.count["optimize.build"]) / passes
	m["optimize.build_ms"] = lt.total["optimize.build"] * 1e3 / float64(lt.count["optimize.build"])
	m["optimize.candidates"] = float64(o.candidates) / passes
	m["optimize.skipped"] = float64(o.skipped) / passes
	m["optimize.layouts_exact"] = float64(o.exactLayout) / passes
	m["optimize.confirm_ratio"] = float64(o.exactLayout) / float64(o.ranked)
}
