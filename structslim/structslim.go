// Package structslim is the public API of the StructSlim reproduction: a
// lightweight profiler that pinpoints arrays-of-structures worth
// splitting, after Roy & Liu, "StructSlim: A Lightweight Profiler to
// Guide Structure Splitting" (CGO 2016).
//
// The workflow mirrors the paper's tool:
//
//	program  := ...                          // a synthetic binary (internal/prog)
//	res, _   := structslim.ProfileRun(program, phases, opts)   // online profiler
//	report, _ := structslim.Analyze(res, program, opts)        // offline analyzer
//	report.RenderText(os.Stdout)                               // advice + tables
//
// ProfileRun executes the program on the simulated machine with PEBS-LL
// style address sampling attached; Analyze recovers loops from the
// binary, ranks data structures by latency share, runs the GCD stride
// analysis, computes field affinities, and emits splitting advice. Run
// executes without the profiler for baseline timing, and Optimize applies
// the advice to a record layout so the improved program can be rebuilt
// and measured.
package structslim

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/legality"
	"repro/internal/pebs"
	"repro/internal/profile"
	"repro/internal/prog"
	"repro/internal/regroup"
	"repro/internal/split"
	"repro/internal/vm"
)

// Phase is one stage of a program's execution: the threads launched
// together and run to completion before the next phase starts (e.g. a
// sequential initialization phase followed by a parallel compute phase).
// It is an alias so workload packages can return phases without importing
// this package.
type Phase = []vm.ThreadSpec

// Options configures profiling and analysis. The zero value gives the
// paper's defaults.
type Options struct {
	// SamplePeriod is the number of memory accesses per address sample
	// (paper: 10,000). 0 uses the default.
	SamplePeriod uint64
	// IBS switches the sampler to AMD-IBS semantics: the period counts
	// retired instructions and tags landing on non-memory instructions
	// are lost. Default is Intel PEBS-LL semantics.
	IBS bool
	// Seed drives period randomization deterministically.
	Seed uint64
	// NoRandomize disables sampling-period jitter.
	NoRandomize bool
	// InterruptCost / SharedAttribCost override the sampler's overhead
	// model when nonzero.
	InterruptCost    uint64
	SharedAttribCost uint64
	// MinLatency is the PEBS-LL latency threshold filter.
	MinLatency uint32

	// Cache overrides the simulated hierarchy (nil = the paper's Xeon
	// E5-4650L model).
	Cache *cache.Config
	// Cores sets the simulated core count (0 = max core used + 1).
	Cores int
	// VM tunes the interpreter.
	VM vm.Config
	// MergeWorkers bounds the parallel reduction-tree profile merge.
	MergeWorkers int

	// Analysis tunes the offline analyzer.
	Analysis core.Options
}

func (o Options) samplerConfig() pebs.Config {
	c := pebs.DefaultConfig()
	if o.SamplePeriod != 0 {
		c.Period = o.SamplePeriod
	}
	if o.IBS {
		c.Mode = pebs.ModeIBS
	}
	c.Seed = o.Seed
	c.Randomize = !o.NoRandomize
	if o.InterruptCost != 0 {
		c.InterruptCost = o.InterruptCost
	}
	if o.SharedAttribCost != 0 {
		c.SharedAttribCost = o.SharedAttribCost
	}
	c.MinLatency = o.MinLatency
	return c
}

func (o Options) cacheConfig() cache.Config {
	if o.Cache != nil {
		return *o.Cache
	}
	return cache.DefaultConfig()
}

// vmConfig derives the interpreter config, mapping the analysis-level
// Statistical switch onto the engine's window setting. The window is
// inert without a window-capable sampler attached, so baseline (Run) and
// IBS runs stay exact either way.
func (o Options) vmConfig() vm.Config {
	c := o.VM
	if o.Analysis.Statistical && c.StatWindow == 0 {
		c.StatWindow = o.Analysis.StatWindow
		if c.StatWindow == 0 {
			c.StatWindow = core.DefaultStatWindow
		}
	}
	return c
}

func coresFor(phases []Phase, override int) int {
	if override > 0 {
		return override
	}
	maxCore := 0
	for _, ph := range phases {
		for _, t := range ph {
			if t.Core > maxCore {
				maxCore = t.Core
			}
		}
	}
	return maxCore + 1
}

func maxThreads(phases []Phase) int {
	n := 1
	for _, ph := range phases {
		if len(ph) > n {
			n = len(ph)
		}
	}
	return n
}

// RunResult is the outcome of a profiled run.
type RunResult struct {
	// Stats aggregates the machine's cycle, instruction, and cache
	// counters across all phases.
	Stats vm.Stats
	// Profile is the merged whole-program profile.
	Profile *profile.Profile
	// ThreadProfiles are the per-thread profiles before merging (what
	// the online profiler writes to disk, one file per thread).
	ThreadProfiles []*profile.ThreadProfile
	// Stat is the statistical-mode error report (nil on exact runs).
	Stat *StatReport
}

// normalizePhases defaults to a single thread running the entry function.
func normalizePhases(p *prog.Program, phases []Phase) []Phase {
	if len(phases) == 0 {
		return []Phase{{vm.ThreadSpec{Fn: p.EntryFn}}}
	}
	return phases
}

// runPhases executes all phases on one machine, accumulating stats.
func runPhases(m *vm.Machine, phases []Phase) (vm.Stats, error) {
	var total vm.Stats
	perThread := make(map[int]*vm.ThreadStats)
	for _, ph := range phases {
		st, err := m.Run(ph)
		if err != nil {
			return vm.Stats{}, err
		}
		total.Instrs += st.Instrs
		total.MemOps += st.MemOps
		total.WallCycles += st.WallCycles
		total.AppWallCycles += st.AppWallCycles
		total.Cache = st.Cache // machine counters are cumulative
		total.Stat.Windows += st.Stat.Windows
		total.Stat.Skipped += st.Stat.Skipped
		total.Stat.Simulated += st.Stat.Simulated
		total.Stat.EstimatedCycles += st.Stat.EstimatedCycles
		for _, ts := range st.PerThread {
			agg := perThread[ts.ID]
			if agg == nil {
				agg = &vm.ThreadStats{ID: ts.ID}
				perThread[ts.ID] = agg
			}
			agg.Cycles += ts.Cycles
			agg.OverheadCycles += ts.OverheadCycles
			agg.Instrs += ts.Instrs
			agg.MemOps += ts.MemOps
		}
	}
	for id := 0; ; id++ {
		ts, ok := perThread[id]
		if !ok {
			break
		}
		total.PerThread = append(total.PerThread, *ts)
	}
	return total, nil
}

// Run executes the program without profiling and returns baseline timing
// and cache statistics.
func Run(p *prog.Program, phases []Phase, opt Options) (vm.Stats, error) {
	phases = normalizePhases(p, phases)
	m, err := vm.NewMachine(p, opt.cacheConfig(), coresFor(phases, opt.Cores), opt.vmConfig())
	if err != nil {
		return vm.Stats{}, err
	}
	return runPhases(m, phases)
}

// ProfileRun executes the program with the PEBS-style sampler attached
// and returns the run statistics plus the merged profile.
func ProfileRun(p *prog.Program, phases []Phase, opt Options) (*RunResult, error) {
	phases = normalizePhases(p, phases)
	vmCfg := opt.vmConfig()
	m, err := vm.NewMachine(p, opt.cacheConfig(), coresFor(phases, opt.Cores), vmCfg)
	if err != nil {
		return nil, err
	}
	sampler := pebs.NewSampler(opt.samplerConfig(), m.Space, maxThreads(phases))
	m.Observer = sampler
	stats, err := runPhases(m, phases)
	if err != nil {
		return nil, err
	}
	tps := sampler.Finish(stats)
	merged, err := profile.ReduceThreadProfiles(tps, opt.MergeWorkers)
	if err != nil {
		return nil, err
	}
	res := &RunResult{Stats: stats, Profile: merged, ThreadProfiles: tps}
	if vmCfg.StatWindow > 0 {
		res.Stat = buildStatReport(vmCfg.StatWindow, stats, merged, opt)
	}
	return res, nil
}

// Analyze runs the offline analyzer over a profiled run.
func Analyze(res *RunResult, p *prog.Program, opt Options) (*core.Report, error) {
	if res == nil || res.Profile == nil {
		return nil, fmt.Errorf("nil run result")
	}
	return core.Analyze(res.Profile, p, opt.Analysis)
}

// ProfileAndAnalyze is the one-call workflow.
func ProfileAndAnalyze(p *prog.Program, phases []Phase, opt Options) (*RunResult, *core.Report, error) {
	res, err := ProfileRun(p, phases, opt)
	if err != nil {
		return nil, nil, err
	}
	rep, err := Analyze(res, p, opt)
	if err != nil {
		return nil, nil, err
	}
	return res, rep, nil
}

// AnalyzeRegrouping runs the array-regrouping analysis (the paper's
// stated future work; see internal/regroup) over a profiled run. When a
// legality analysis is supplied (may be nil), frozen arrays are excluded
// from the clustering and reported as skipped.
func AnalyzeRegrouping(res *RunResult, p *prog.Program, opt Options, la *legality.Analysis) (*regroup.Report, error) {
	if res == nil || res.Profile == nil {
		return nil, fmt.Errorf("nil run result")
	}
	ropt := regroup.Options{}
	if opt.Analysis.AffinityThreshold != 0 {
		ropt.AffinityThreshold = opt.Analysis.AffinityThreshold
	}
	if opt.Analysis.MinLd != 0 {
		ropt.MinLd = opt.Analysis.MinLd
	}
	if la != nil {
		ropt.Frozen = legality.FrozenIdentities(la, res.Profile)
	}
	return regroup.Analyze(res.Profile, p, ropt)
}

// AttachLegality runs the transform-legality pass over the program and
// attaches a verdict summary to every analyzed structure in the report,
// so Optimize can refuse unsound splits and renderers can show the
// verdict. Returns the full analysis for callers that want the
// per-object detail or a dynamic cross-check.
func AttachLegality(rep *core.Report, p *prog.Program) (*legality.Analysis, error) {
	a, err := legality.AnalyzeProgram(p, nil)
	if err != nil {
		return nil, err
	}
	for _, sr := range rep.Structures {
		sr.Legality = legality.SummaryFor(a, sr.Name, sr.TypeName)
	}
	return a, nil
}

// Optimize converts a structure's splitting advice into a physical layout
// for the given record, completing the partition with any cold fields.
// If a legality verdict is attached to the report (AttachLegality), the
// layout is gated on it: frozen structures are refused and keep-together
// constraints merge the advice's groups.
func Optimize(rec *prog.RecordSpec, sr *core.StructReport) (*prog.PhysLayout, error) {
	if sr == nil {
		return nil, fmt.Errorf("nil structure report")
	}
	return split.LayoutFromAdviceChecked(rec, sr.Advice, sr.Legality)
}

// FindStruct locates the analyzed structure whose debug type or display
// name matches, or nil.
func FindStruct(rep *core.Report, name string) *core.StructReport {
	for _, sr := range rep.Structures {
		if sr.TypeName == name || sr.Name == name {
			return sr
		}
	}
	return nil
}
