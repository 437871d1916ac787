package staticlint

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/prog"
	"repro/internal/reuse"
)

// buildMatVec builds: for i in [0,rows) { for j in [0,cols) { x = m[i][j];
// y = v[j]; m[i][j] = x+y } } — a nest with self-reuse (v re-scanned every
// row), group reuse (load/store of the same m element), and enough rows to
// exercise the steady-state extrapolation.
func buildMatVec(t *testing.T, rows, cols int64) *prog.Program {
	t.Helper()
	b := prog.NewBuilder("matvec")
	gm := b.Global("m", rows*cols*8, -1)
	gv := b.Global("v", cols*8, -1)
	b.Func("main", "matvec.c")
	m, v, i, j, x, y, row := b.R(), b.R(), b.R(), b.R(), b.R(), b.R(), b.R()
	b.GAddr(m, gm)
	b.GAddr(v, gv)
	b.ForRange(i, 0, rows, 1, func() {
		b.MulI(row, i, cols*8)
		b.Add(row, row, m)
		b.ForRange(j, 0, cols, 1, func() {
			b.Load(x, row, j, 8, 0, 8)
			b.Load(y, v, j, 8, 0, 8)
			b.Add(x, x, y)
			b.Store(x, row, j, 8, 0, 8)
		})
	})
	b.Halt()
	p, err := b.Program()
	if err != nil {
		t.Fatalf("finalize: %v", err)
	}
	return p
}

// matVecTrace enumerates the nest's line trace directly from the loop
// structure — independent of the planner.
func matVecTrace(p *prog.Program, rows, cols int64, lineSize uint64) []uint64 {
	bases := GlobalBases(p)
	var trace []uint64
	for i := int64(0); i < rows; i++ {
		for j := int64(0); j < cols; j++ {
			me := bases[0] + uint64(i*cols*8+j*8)
			ve := bases[1] + uint64(j*8)
			trace = append(trace, me/lineSize, ve/lineSize, me/lineSize)
		}
	}
	return trace
}

// TestPlanFunctionMatVec plans the entry function's matvec nest: one
// top-level counted loop of rows trips enclosing exactly one loop of cols
// trips one level deeper, and 3 accesses per inner iteration.
func TestPlanFunctionMatVec(t *testing.T) {
	const rows, cols = 37, 50
	p := buildMatVec(t, rows, cols)
	a, err := AnalyzeProgram(p)
	if err != nil {
		t.Fatalf("AnalyzeProgram: %v", err)
	}
	forest := a.Loops.Forests[p.EntryFn]
	fa := newFuncAnalysis(p, p.Funcs[p.EntryFn], forest)
	if !fa.solve() {
		t.Fatalf("dataflow did not converge")
	}
	outerID := -1
	for lid, l := range forest.Loops {
		if l.Parent == -1 {
			if outerID != -1 {
				t.Fatalf("multiple top-level loops")
			}
			outerID = lid
		}
	}
	if outerID == -1 {
		t.Fatalf("no top-level loop")
	}
	pl := &planner{a: a, fa: fa, visited: make(map[int]bool)}
	outer, err := pl.planLoop(outerID)
	if err != nil {
		t.Fatalf("planLoop: %v", err)
	}
	if outer.Trips != rows || outer.Depth != 0 {
		t.Fatalf("outer loop = %+v, want %d trips at depth 0", outer, rows)
	}
	var inner *LoopPlan
	for i := range outer.Body {
		if outer.Body[i].Loop != nil {
			if inner != nil {
				t.Fatalf("multiple loops inside the row loop")
			}
			inner = outer.Body[i].Loop
		}
	}
	if inner == nil || inner.Trips != cols || inner.Depth != 1 {
		t.Fatalf("inner loop = %+v, want %d trips at depth 1", inner, cols)
	}
	rp := PredictReuse(a, cache.DefaultConfig())
	if len(rp.Nests) != 1 {
		t.Fatalf("nests = %d, want 1", len(rp.Nests))
	}
	if np := rp.Nests[0]; np.Trips != rows || np.Accesses != 3*rows*cols {
		t.Fatalf("planned nest: %d trips, %d accesses; want %d, %d",
			np.Trips, np.Accesses, rows, 3*rows*cols)
	}
}

// TestPredictReuseMatchesTrace is the unit-level differential: the
// predicted histogram (with steady-state extrapolation) must equal the
// exact Bennett–Kruskal analyzer run over the full enumerated trace.
func TestPredictReuseMatchesTrace(t *testing.T) {
	const rows, cols = 300, 40
	p := buildMatVec(t, rows, cols)
	a, err := AnalyzeProgram(p)
	if err != nil {
		t.Fatalf("AnalyzeProgram: %v", err)
	}
	cfg := cache.DefaultConfig()
	rp := PredictReuse(a, cfg)
	if a.Reuse != rp {
		t.Fatalf("prediction not attached to the analysis")
	}
	if len(rp.Skipped) != 0 {
		t.Fatalf("skipped nests: %+v", rp.Skipped)
	}
	if len(rp.Nests) != 1 {
		t.Fatalf("nests = %d, want 1", len(rp.Nests))
	}
	np := rp.Nests[0]
	if !np.Extrapolated {
		t.Errorf("expected steady-state extrapolation over %d rows (simulated %d)",
			rows, np.SimulatedIters)
	}
	if np.SimulatedIters >= rows {
		t.Errorf("extrapolation saved nothing: simulated %d of %d", np.SimulatedIters, rows)
	}

	trace := matVecTrace(p, rows, cols, uint64(cfg.LineSize))
	ref := reuse.FromTrace(trace)
	if np.Accesses != ref.N {
		t.Fatalf("accesses = %d, want %d", np.Accesses, ref.N)
	}
	if np.Total.Cold != ref.Cold {
		t.Fatalf("cold = %d, want %d", np.Total.Cold, ref.Cold)
	}
	if np.Total.Buckets != ref.Hist {
		t.Fatalf("histogram diverged from exact trace:\n got %v\nwant %v",
			np.Total.Buckets, ref.Hist)
	}
	if np.Total.Mass() != np.Total.N {
		t.Fatalf("mass not conserved: %d != %d", np.Total.Mass(), np.Total.N)
	}

	// Per-level misses match a naive recount from exact distances.
	caps := make([]uint64, len(cfg.Levels))
	for i, lv := range cfg.Levels {
		caps[i] = uint64(lv.Size) / uint64(cfg.LineSize)
	}
	wantMiss := make([]uint64, len(caps))
	an := reuse.NewAnalyzer(len(trace))
	for _, ln := range trace {
		d := an.Observe(ln)
		for l, c := range caps {
			if d == reuse.Infinite || d >= c {
				wantMiss[l]++
			}
		}
	}
	for l := range caps {
		if np.Misses[l] != wantMiss[l] {
			t.Errorf("level %d misses = %d, want %d", l, np.Misses[l], wantMiss[l])
		}
	}

	// Attribution: objects and loops partition the accesses.
	var objN, loopN uint64
	for _, o := range np.Objects {
		objN += o.Hist.N
		if o.Hist.Mass() != o.Hist.N {
			t.Errorf("object %s: mass not conserved", o.Name)
		}
	}
	for _, l := range np.Loops {
		loopN += l.Hist.N
	}
	if objN != np.Accesses || loopN != np.Accesses {
		t.Errorf("attribution mass: objects %d, loops %d, want %d", objN, loopN, np.Accesses)
	}
	if len(np.Objects) != 2 {
		t.Fatalf("objects = %d, want 2 (m, v)", len(np.Objects))
	}
	if np.Objects[0].Hist.N != 2*rows*cols || np.Objects[1].Hist.N != rows*cols {
		t.Errorf("per-object N = %d, %d; want %d, %d",
			np.Objects[0].Hist.N, np.Objects[1].Hist.N, 2*rows*cols, rows*cols)
	}
}

// TestPredictReuseTripOne: a single-iteration nest yields a cold-only
// histogram for its first-touch accesses and no division by zero.
func TestPredictReuseTripOne(t *testing.T) {
	b := prog.NewBuilder("once")
	g := b.Global("buf", 1024, -1)
	b.Func("main", "once.c")
	base, i, x := b.R(), b.R(), b.R()
	b.GAddr(base, g)
	b.ForRange(i, 0, 1, 1, func() {
		b.Load(x, base, i, 64, 0, 8)
		b.Store(x, base, i, 64, 8, 8)
	})
	b.Halt()
	p, err := b.Program()
	if err != nil {
		t.Fatalf("finalize: %v", err)
	}
	a, err := AnalyzeProgram(p)
	if err != nil {
		t.Fatalf("AnalyzeProgram: %v", err)
	}
	rp := PredictReuse(a, cache.DefaultConfig())
	if len(rp.Nests) != 1 {
		t.Fatalf("nests = %d (skipped %+v)", len(rp.Nests), rp.Skipped)
	}
	np := rp.Nests[0]
	if np.Trips != 1 || np.Accesses != 2 {
		t.Fatalf("trips=%d accesses=%d, want 1, 2", np.Trips, np.Accesses)
	}
	// Both accesses hit the same line: one cold, one distance-0.
	if np.Total.Cold != 1 || np.Total.Buckets[0] != 1 {
		t.Fatalf("trip-1 histogram: cold=%d buckets=%v", np.Total.Cold, np.Total.Buckets)
	}
	for l := range rp.Levels {
		if mr := np.MissRatio(l); mr != 0.5 {
			t.Errorf("level %d miss ratio = %v, want 0.5", l, mr)
		}
	}
	// Zero-trip loops predict an empty histogram without dividing by zero.
	if (&NestPrediction{}).MissRatio(0) != 0 {
		t.Fatalf("empty nest miss ratio not 0")
	}
}

// TestPredictReuseSkipsNonExact: a data-dependent branch inside a loop
// demotes the nest to the skipped list with a reason, not a misprediction.
func TestPredictReuseSkipsNonExact(t *testing.T) {
	b := prog.NewBuilder("skip")
	g := b.Global("buf", 4096, -1)
	b.Func("main", "skip.c")
	i, x, gaddr := b.R(), b.R(), b.R()
	b.GAddr(gaddr, g)
	b.ForRange(i, 0, 64, 1, func() {
		// Address depends on loaded data: buf[buf[i]] is not exact tier.
		b.Load(x, gaddr, i, 8, 0, 8)
		b.Load(x, gaddr, x, 8, 0, 8)
	})
	b.Halt()
	p, err := b.Program()
	if err != nil {
		t.Fatalf("finalize: %v", err)
	}
	a, err := AnalyzeProgram(p)
	if err != nil {
		t.Fatalf("AnalyzeProgram: %v", err)
	}
	rp := PredictReuse(a, cache.DefaultConfig())
	if len(rp.Nests) != 0 {
		t.Fatalf("non-exact nest was predicted: %+v", rp.Nests[0])
	}
	if len(rp.Skipped) != 1 || rp.Skipped[0].Reason == "" {
		t.Fatalf("skipped = %+v, want one entry with a reason", rp.Skipped)
	}
}
