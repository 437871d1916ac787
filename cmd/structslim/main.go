// Command structslim profiles one workload on the simulated machine and
// prints StructSlim's analysis: the hot-data ranking, per-field and
// per-loop latency tables, field affinities, and structure-splitting
// advice. With -optimize it also applies the advice and reports the
// resulting speedup and cache-miss changes.
//
// Usage:
//
//	structslim -workload art [-scale bench] [-period 10000] [-dot out.dot]
//	structslim -list
//
// The vet subcommand runs the static stride & layout analyzer instead:
// it predicts each loop's access streams from the IR alone, lints the
// registered struct layouts, and cross-checks the predictions against
// the dynamic profiler:
//
//	structslim vet -workload quickstart
//	structslim vet -all [-static-only]
//
// The serve and push subcommands run the streaming profile service: serve
// hosts the online analyzer behind an HTTP ingest API, push profiles a
// workload locally and replays its sample stream to a server:
//
//	structslim serve -workload art -addr 127.0.0.1:7080
//	structslim push -workload art -addr 127.0.0.1:7080 -selftest
//
// The optimize subcommand closes the loop: it enumerates legal candidate
// layouts from the analysis, measures every variant on the experiment
// engine, and prints the ranked table plus the exact-confirmed winner:
//
//	structslim optimize -workload art [-exact] [-parallel 8]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/profile"
	"repro/internal/tables"
	"repro/internal/workloads"
	"repro/structslim"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "vet":
			fail(runVet(os.Args[2:], os.Stdout))
			return
		case "serve":
			fail(runServe(os.Args[2:], os.Stdout))
			return
		case "push":
			fail(runPush(os.Args[2:], os.Stdout))
			return
		case "optimize":
			fail(runOptimize(os.Args[2:], os.Stdout))
			return
		}
	}
	var (
		name     = flag.String("workload", "", "workload to profile (see -list)")
		list     = flag.Bool("list", false, "list available workloads")
		scale    = flag.String("scale", "test", "problem scale: test or bench")
		period   = flag.Uint64("period", 10_000, "address-sampling period in memory accesses")
		ibs      = flag.Bool("ibs", false, "sample with AMD-IBS semantics (period counts instructions)")
		seed     = flag.Uint64("seed", 1, "sampling randomization seed")
		topK     = flag.Int("topk", 3, "data structures to analyze in depth")
		thresh   = flag.Float64("affinity", 0.5, "affinity clustering threshold")
		dotPath  = flag.String("dot", "", "write the hot structure's affinity graph (Figure 6 style) to this file")
		jsonPath = flag.String("json", "", "write the analysis as JSON to this file (- for stdout)")
		optimize = flag.Bool("optimize", false, "apply the advice and measure the split program")
		doRegr   = flag.Bool("regroup", false, "also run the array-regrouping analysis (future-work extension)")
		profDir  = flag.String("profiles", "", "also write per-thread profiles (gob) into this directory")
		analyze  = flag.String("analyze", "", "skip profiling: load per-thread profiles from this directory and analyze them offline")
		dump     = flag.Bool("dump", false, "print the workload's disassembly and recovered loop structure, then exit")
		cfgDot   = flag.String("cfg-dot", "", "write the named function's CFG as dot to this file (with -dump)")
		cfgFn    = flag.String("cfg-fn", "main", "function for -cfg-dot")
		stat     = flag.Bool("statistical", false, "statistical mode: fully simulate only sampled windows, fast-forward between them (prints an error report)")
		statWin  = flag.Int("stat-window", 0, "per-sample warmup window W in accesses for -statistical (0 = default)")
	)
	flag.Parse()

	if *list {
		inPaper := make(map[string]bool)
		fmt.Println("Paper benchmarks (Table 2):")
		for _, w := range workloads.Paper() {
			inPaper[w.Name()] = true
			fmt.Printf("  %-12s %-45s %s\n", w.Name(), w.Suite(), w.Description())
		}
		fmt.Println("Suite stand-ins (Figures 4/5):")
		for _, w := range workloads.All() {
			if w.Record() == nil {
				fmt.Printf("  %-12s %-45s %s\n", w.Name(), w.Suite(), w.Description())
			}
		}
		fmt.Println("Other (case studies, fixtures):")
		for _, w := range workloads.All() {
			if w.Record() != nil && !inPaper[w.Name()] {
				fmt.Printf("  %-12s %-45s %s\n", w.Name(), w.Suite(), w.Description())
			}
		}
		return
	}
	if *name == "" {
		fmt.Fprintln(os.Stderr, "need -workload (or -list)")
		os.Exit(2)
	}

	w, err := workloads.Get(*name)
	fail(err)
	sc := workloads.ScaleTest
	if *scale == "bench" {
		sc = workloads.ScaleBench
	}
	opt := structslim.Options{
		SamplePeriod: *period,
		IBS:          *ibs,
		Seed:         *seed,
		Analysis:     core.Options{TopK: *topK, AffinityThreshold: *thresh},
	}
	opt.Analysis.Statistical = *stat
	opt.Analysis.StatWindow = *statWin

	p, phases, err := w.Build(nil, sc)
	fail(err)

	if *dump {
		fmt.Print(p.Disasm())
		loops, err := cfg.AnalyzeLoops(p)
		fail(err)
		cfg.WriteLoopReport(os.Stdout, p, loops)
		if *cfgDot != "" {
			fn := p.FuncByName(*cfgFn)
			if fn == nil {
				fail(fmt.Errorf("no function %q", *cfgFn))
			}
			f, err := os.Create(*cfgDot)
			fail(err)
			cfg.WriteDot(f, fn, loops.Forests[fn.ID])
			fail(f.Close())
			fmt.Printf("Wrote CFG of %s to %s\n", *cfgFn, *cfgDot)
		}
		return
	}

	var res *structslim.RunResult
	var rep *core.Report
	if *analyze != "" {
		// Offline path: the profiles were collected earlier (one gob
		// file per thread); merge them with the reduction tree and
		// analyze against the rebuilt binary.
		tps, err := profile.ReadDir(*analyze)
		fail(err)
		merged, err := profile.ReduceThreadProfiles(tps, 0)
		fail(err)
		res = &structslim.RunResult{Profile: merged, ThreadProfiles: tps}
		rep, err = core.Analyze(merged, p, opt.Analysis)
		fail(err)
		fmt.Printf("Analyzed %d thread profiles from %s (offline)\n\n", len(tps), *analyze)
	} else {
		res, rep, err = structslim.ProfileAndAnalyze(p, phases, opt)
		fail(err)
	}

	rep.RenderText(os.Stdout)
	fmt.Printf("Run: %d instructions, %d memory accesses, %d app cycles, overhead %.2f%%\n",
		res.Stats.Instrs, res.Stats.MemOps, res.Stats.AppWallCycles, res.Stats.OverheadPct())
	if res.Stat != nil {
		fmt.Println()
		res.Stat.RenderText(os.Stdout)
	}

	if *profDir != "" {
		fail(profile.WriteDir(*profDir, res.ThreadProfiles))
		fmt.Printf("Wrote %d thread profiles to %s\n", len(res.ThreadProfiles), *profDir)
	}

	if *jsonPath != "" {
		out := os.Stdout
		if *jsonPath != "-" {
			f, err := os.Create(*jsonPath)
			fail(err)
			defer f.Close()
			out = f
		}
		fail(rep.WriteJSON(out))
	}

	if *dotPath != "" && len(rep.Structures) > 0 {
		f, err := os.Create(*dotPath)
		fail(err)
		rep.Structures[0].WriteDot(f)
		fail(f.Close())
		fmt.Printf("Wrote affinity graph to %s\n", *dotPath)
	}

	if *doRegr {
		la, err := structslim.AttachLegality(rep, p)
		fail(err)
		rr, err := structslim.AnalyzeRegrouping(res, p, opt, la)
		fail(err)
		fmt.Println()
		rr.RenderText(os.Stdout)
	}

	if *optimize {
		if w.Record() == nil {
			fail(fmt.Errorf("workload %s has no record to optimize", w.Name()))
		}
		r, err := tables.RunBenchmark(w, tables.Options{Scale: sc, SamplePeriod: *period, Seed: *seed})
		fail(err)
		fmt.Printf("\nOptimization (advice applied automatically):\n")
		fmt.Printf("  layout: %v\n", r.SplitLayout)
		fmt.Printf("  cycles: %d → %d  (speedup %.2fx)\n", r.OrigCycles, r.SplitCycles, r.Speedup)
		for _, lvl := range []string{"L1", "L2", "L3"} {
			fmt.Printf("  %s miss reduction: %.1f%%\n", lvl, r.MissReduction(lvl))
		}
	}
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "structslim:", err)
		os.Exit(1)
	}
}
