package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/prog"
	"repro/internal/vm"
	"repro/internal/workloads"
	"repro/structslim"
)

// The simulation workloads run the seven paper programs at test scale,
// sampled every 3000 accesses: dense enough for the stride analysis to
// converge, short enough for several passes per window.
const (
	samplePeriod = 3000
	scale        = workloads.ScaleTest
)

// profileOut is what one profile op produced; every later op on the same
// program must reproduce it exactly.
type profileOut struct {
	digest   [32]byte // SHA-256 of the rendered report
	memOps   uint64
	instrs   uint64
	overhead float64
}

// profilePath repeats Workload.Build → structslim.ProfileAndAnalyze →
// structslim.AttachLegality over the seven paper programs.
type profilePath struct {
	seed  uint64
	progs []workloads.Workload
	ref   []profileOut // from the warm-up pass
	pl    passLog
}

func (p *profilePath) options() structslim.Options {
	return structslim.Options{SamplePeriod: samplePeriod, Seed: p.seed}
}

func (p *profilePath) setup() error {
	p.progs = workloads.Paper()
	p.ref = make([]profileOut, len(p.progs))
	for i, w := range p.progs {
		out, err := profileOp(w, p.options(), nil, 0)
		if err != nil {
			return fmt.Errorf("%s: %w", w.Name(), err)
		}
		p.ref[i] = out
	}
	return nil
}

func (p *profilePath) pass(tr *tracer) error {
	t0 := time.Now()
	var memOps uint64
	for i, w := range p.progs {
		t := time.Now()
		out, err := profileOp(w, p.options(), tr, tr.newOp())
		if tr == nil {
			p.pl.addOp(i, time.Since(t))
		}
		if err == nil && out != p.ref[i] {
			err = fmt.Errorf("differs from its first op (digest, counts or overhead)")
		}
		if err != nil {
			err = fmt.Errorf("profile %s: %w", w.Name(), err)
		}
		opDone(err)
		memOps += out.memOps
	}
	d := time.Since(t0)
	p.pl.add(d, tr != nil)
	if tr == nil {
		p.pl.input += float64(memOps)
		p.pl.inputTime += d
	}
	return nil
}

// profileOp is one op. Traced, it makes the two calls ProfileAndAnalyze
// wraps (ProfileRun, then Analyze) so each gets its own span.
func profileOp(w workloads.Workload, opt structslim.Options, tr *tracer, op int64) (profileOut, error) {
	root := tr.begin("profile.op", 0, op)
	defer tr.end(root)
	sp := tr.begin("profile.build", root, op)
	p, phases, err := w.Build(nil, scale)
	tr.end(sp)
	if err != nil {
		return profileOut{}, err
	}
	var res *structslim.RunResult
	var rep *core.Report
	if tr == nil {
		res, rep, err = structslim.ProfileAndAnalyze(p, phases, opt)
	} else {
		sp = tr.begin("profile.profile_run", root, op)
		res, err = structslim.ProfileRun(p, phases, opt)
		tr.end(sp)
		if err == nil {
			sp = tr.begin("profile.analyze", root, op)
			rep, err = structslim.Analyze(res, p, opt)
			tr.end(sp)
		}
	}
	if err != nil {
		return profileOut{}, err
	}
	sp = tr.begin("profile.legality", root, op)
	_, err = structslim.AttachLegality(rep, p)
	tr.end(sp)
	if err != nil {
		return profileOut{}, err
	}
	return profileOut{
		digest:   reportDigest(rep),
		memOps:   res.Stats.MemOps,
		instrs:   res.Stats.Instrs,
		overhead: res.Stats.OverheadPct(),
	}, nil
}

func reportDigest(rep *core.Report) [32]byte {
	var buf bytes.Buffer
	rep.RenderText(&buf)
	return sha256.Sum256(buf.Bytes())
}

// check re-runs each program once on the reference interpreter, which
// must reproduce the fast engine's report byte for byte.
func (p *profilePath) check() {
	opt := p.options()
	opt.VM.Reference = true
	for i, w := range p.progs {
		out, err := profileOp(w, opt, nil, 0)
		if err == nil && out != p.ref[i] {
			err = fmt.Errorf("reference engine differs from the fast engine")
		}
		if err != nil {
			err = fmt.Errorf("profile %s: %w", w.Name(), err)
		}
		opDone(err)
	}
}

func (p *profilePath) e2e(m map[string]float64) {
	var perPass float64
	for _, r := range p.ref {
		perPass += float64(r.memOps)
	}
	m["pass_min_s"] = p.pl.min()
	m["input_per_s"] = perPass / p.pl.min()
	m["overhead_pct"] = p.overheadPct()
}

func (p *profilePath) metrics(m map[string]float64) {
	m["profile.accesses_per_s"] = p.pl.input / p.pl.inputTime.Seconds()
	m["profile.sweep_p50_s"] = p.pl.p50()
	m["profile.overhead_pct"] = p.overheadPct()
}

// overheadPct is the mean of Stats.OverheadPct over the seven programs.
func (p *profilePath) overheadPct() float64 {
	var ovh []float64
	for _, r := range p.ref {
		ovh = append(ovh, r.overhead)
	}
	return mean(ovh)
}

func (p *profilePath) log() *passLog { return &p.pl }
func (p *profilePath) close()        {}

// probeRepeats is how often the layer probes time each call; the
// simulation probe keeps the fastest time per program, the least
// disturbed by other load on the machine, because the sampler's share is
// the small difference of two such times.
const probeRepeats = 4

// probe splits simulation host time into its layers for each program:
// the bare machine (structslim.Run: interpreter plus cache), the cache
// alone (the run's access stream, captured once, replayed into a fresh
// hierarchy), the sampler (ProfileRun minus Run) and the statistical
// engine the optimizer screens with.
func (p *profilePath) probe(tr *tracer, m map[string]float64) error {
	var runS, replayS, profS, statS, buildS float64
	var instrs, memOps, accesses, l1Acc, l1Miss, samples uint64
	var simPct []float64
	for _, w := range p.progs {
		op := tr.newOp()
		root := tr.begin("probe.op", 0, op)
		sp := tr.begin("probe.build", root, op)
		t0 := time.Now()
		pr, phases, err := w.Build(nil, scale)
		buildS += time.Since(t0).Seconds()
		tr.end(sp)
		if err != nil {
			return err
		}
		if len(phases) == 0 {
			phases = []workloads.Phase{{vm.ThreadSpec{Fn: pr.EntryFn}}}
		}
		trace, err := captureAccesses(pr, phases)
		if err != nil {
			return err
		}
		statOpt := p.options()
		statOpt.Analysis.Statistical = true
		var run, replay, prof, stat []float64
		var st vm.Stats
		for r := 0; r < probeRepeats; r++ {
			st, err = timed(tr, "probe.run", root, op, &run, func() (vm.Stats, error) {
				return structslim.Run(pr, phases, p.options())
			})
			if err != nil {
				return err
			}
			l1, err := timed(tr, "probe.replay", root, op, &replay, trace.replay)
			if err != nil {
				return err
			}
			// The replay must redo the run's cache work: same L1 accesses
			// and misses as the bare run.
			if l1 != st.Cache.Levels[0] {
				err = fmt.Errorf("probe %s: cache replay L1 %+v, bare run L1 %+v", w.Name(), l1, st.Cache.Levels[0])
			}
			opDone(err)
			res, err := timed(tr, "probe.profile_run", root, op, &prof, func() (*structslim.RunResult, error) {
				return structslim.ProfileRun(pr, phases, p.options())
			})
			if err != nil {
				return err
			}
			samples += res.Profile.NumSamples
			sres, err := timed(tr, "probe.stat_run", root, op, &stat, func() (*structslim.RunResult, error) {
				return structslim.ProfileRun(pr, phases, statOpt)
			})
			if err != nil {
				return err
			}
			if sres.Stat != nil {
				simPct = append(simPct, sres.Stat.SimulatedPct)
			}
		}
		tr.end(root)
		runS += minimum(run)
		replayS += minimum(replay)
		profS += minimum(prof)
		statS += minimum(stat)
		instrs += st.Instrs
		memOps += st.MemOps
		accesses += uint64(len(trace.acc))
		l1Acc += st.Cache.Levels[0].Accesses
		l1Miss += st.Cache.Levels[0].Misses
		m["sim.ns_per_access."+w.Name()] = minimum(run) * 1e9 / float64(st.MemOps)
	}
	n := float64(len(p.progs))
	m["build.ms"] = buildS * 1e3 / n
	m["vm.ns_per_instr"] = (runS - replayS) * 1e9 / float64(instrs)
	m["cache.ns_per_access"] = replayS * 1e9 / float64(accesses)
	m["sim.ns_per_access"] = runS * 1e9 / float64(memOps)
	m["sim.instrs"] = float64(instrs)
	m["sim.mem_ops"] = float64(memOps)
	m["cache.l1_miss_ratio"] = float64(l1Miss) / float64(l1Acc)
	m["pebs.ns_per_access"] = (profS - runS) * 1e9 / float64(memOps)
	m["pebs.samples"] = float64(samples) / probeRepeats
	m["ab.exact_baseline_ms"] = runS * 1e3 / n
	m["ab.stat_baseline_ms"] = statS * 1e3 / n
	m["ab.stat_simulated_pct"] = mean(simPct)
	// Layer shares of the profile path's pass, splitting ProfileRun by
	// the probe's ratios: the interpreter, the cache and the sampler.
	simShare := m["share.profile.simulate"]
	m["share.profile.vm"] = simShare * (runS - replayS) / profS
	m["share.profile.cache"] = simShare * replayS / profS
	m["share.profile.pebs"] = simShare * (profS - runS) / profS
	return nil
}

// timed runs f inside a span and appends its host time in seconds to d.
func timed[T any](tr *tracer, name string, parent, op int64, d *[]float64, f func() (T, error)) (T, error) {
	sp := tr.begin(name, parent, op)
	t0 := time.Now()
	v, err := f()
	*d = append(*d, time.Since(t0).Seconds())
	tr.end(sp)
	return v, err
}

// access is one captured data access, enough to replay it into a cache
// hierarchy.
type access struct {
	pc, addr uint64
	core     int32
	size     uint8
	write    bool
}

// accessTrace is a program's complete data-access stream in machine
// order, with the core count it ran on.
type accessTrace struct {
	cores int
	acc   []access
}

// captureAccesses runs the program on the fast engine with an observer
// that records every access and the core its thread is pinned to.
func captureAccesses(p *prog.Program, phases []workloads.Phase) (*accessTrace, error) {
	cores := 1
	for _, ph := range phases {
		for _, t := range ph {
			if t.Core+1 > cores {
				cores = t.Core + 1
			}
		}
	}
	m, err := vm.NewMachine(p, cache.DefaultConfig(), cores, vm.Config{})
	if err != nil {
		return nil, err
	}
	c := &captureObserver{tr: &accessTrace{cores: cores}}
	m.Observer = c
	for _, ph := range phases {
		c.coreOf = c.coreOf[:0]
		for _, t := range ph {
			c.coreOf = append(c.coreOf, int32(t.Core))
		}
		if _, err := m.Run(ph); err != nil {
			return nil, err
		}
	}
	return c.tr, nil
}

type captureObserver struct {
	tr     *accessTrace
	coreOf []int32 // thread ID within the current phase → core
}

func (c *captureObserver) OnAccess(ev *vm.MemEvent) uint64 {
	c.tr.acc = append(c.tr.acc, access{pc: ev.IP, addr: ev.EA, core: c.coreOf[ev.TID], size: ev.Size, write: ev.Write})
	return 0
}

// replay feeds the stream into a fresh hierarchy and returns its L1
// counters.
func (t *accessTrace) replay() (cache.LevelStats, error) {
	h, err := cache.NewHierarchy(cache.DefaultConfig(), t.cores)
	if err != nil {
		return cache.LevelStats{}, err
	}
	for i := range t.acc {
		a := &t.acc[i]
		h.Access(int(a.core), a.pc, a.addr, int(a.size), a.write)
	}
	return h.Stats().Levels[0], nil
}
