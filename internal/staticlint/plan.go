package staticlint

import (
	"fmt"

	"repro/internal/cfg"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/prog"
)

// plan.go recovers the *execution schedule* of a loop nest from its
// binary alone: how many iterations each loop performs and the exact
// program-order sequence of memory accesses with closed-form effective
// addresses. It only succeeds on "exact tier" code — structured reducible
// loops whose bounds are compile-time constants and whose streams all
// resolve to global bases — which is precisely the class of loop nests
// the static reuse predictor (reuse.go in this package) can handle
// without simulation.
//
// The planner re-runs the affine dataflow of analyze.go and then walks
// the CFG structurally: a loop is entered at its header, whose single
// conditional branch `br.ge iv, bound -> exit` yields the trip count
// ceil((bound−start)/step) from the converged in-state; its body is
// walked block by block (each with exactly one successor, nested loops
// recursively) until the back edge. Any shape outside this grammar
// (irreducible loops, data-dependent branches, calls, heap allocation,
// unresolved addresses) makes the nest ineligible, with the reason
// recorded.

// AccessTpl is one memory instruction inside a plan, with its effective
// address in closed form: EA = GlobalBase(GlobalIx) + Disp + Σ Coeff[d]·k[d]
// over the iteration vector k of the enclosing loop path (outermost
// first).
type AccessTpl struct {
	IP    uint64
	Size  uint8
	Write bool

	// GlobalIx is the base global's index; Disp the constant byte offset
	// from its base (always the displacement of iteration vector zero).
	GlobalIx int
	Disp     int64
	// Coeff[d] is the address advance per iteration of the d-th loop on
	// the access's enclosing path, outermost first.
	Coeff []int64

	// LoopKey is the innermost enclosing loop (cfg.LoopKey), 0 outside
	// loops.
	LoopKey uint64
}

// PlanItem is one step of a plan in program order: either a memory
// access or a nested loop.
type PlanItem struct {
	Access *AccessTpl
	Loop   *LoopPlan
}

// LoopPlan is one structured counted loop.
type LoopPlan struct {
	Key   uint64 // cfg.LoopKey
	Info  *cfg.LoopInfo
	Trips int64
	Depth int // index into the iteration vector (outermost enclosing = 0)

	Body []PlanItem

	exit int // block executed after the loop
}

// planner carries the walk state for one function.
type planner struct {
	a  *Analysis
	fa *funcAnalysis

	visited map[int]bool
	path    []*LoopPlan // enclosing loop stack, outermost first
}

// walk traverses the body of loop lid from block b until its back edge is
// taken, returning the program-order items.
func (pl *planner) walk(b int, lid int) ([]PlanItem, error) {
	fa := pl.fa
	var items []PlanItem
	for {
		if hl := fa.headerLoop(b); hl >= 0 && hl != lid {
			lp, err := pl.planLoop(hl)
			if err != nil {
				return nil, err
			}
			items = append(items, PlanItem{Loop: lp})
			b = lp.exit
			if !fa.blockIn[lid][b] {
				return nil, fmt.Errorf("block %d: loop exit escapes the enclosing loop", b)
			}
			continue
		}
		if pl.visited[b] {
			return nil, fmt.Errorf("block %d revisited outside a recognized loop", b)
		}
		pl.visited[b] = true
		if !fa.blockIn[lid][b] {
			return nil, fmt.Errorf("block %d escapes loop body", b)
		}

		st := append([]expr(nil), fa.in[b]...)
		blk := fa.f.Blocks[b]
		for i := range blk.Instrs {
			in := &blk.Instrs[i]
			switch in.Op {
			case isa.Load, isa.Store:
				tpl, err := pl.accessTemplate(in, st)
				if err != nil {
					return nil, err
				}
				items = append(items, PlanItem{Access: tpl})
			case isa.Call, isa.Ret, isa.Alloc:
				return nil, fmt.Errorf("%s at %#x: not analyzable without simulation", in.Op, in.IP)
			case isa.Halt:
				return nil, fmt.Errorf("halt inside loop body at %#x", in.IP)
			case isa.Jmp:
				if in.Target == fa.forest.Loops[lid].Header {
					return items, nil // back edge: iteration complete
				}
				b = in.Target
			case isa.Br:
				return nil, fmt.Errorf("conditional branch at %#x outside a counted-loop header", in.IP)
			}
			fa.transfer(in, st)
			if in.Op == isa.Jmp {
				break
			}
		}
		last := &blk.Instrs[len(blk.Instrs)-1]
		if last.Op != isa.Jmp {
			// Fallthrough.
			b++
			if b == fa.forest.Loops[lid].Header {
				return items, nil // fallthrough back edge
			}
			if b >= len(fa.f.Blocks) {
				return nil, fmt.Errorf("fallthrough past the last block")
			}
		}
	}
}

// planLoop recognizes one counted loop: a header whose only branch is
// `br.ge iv, bound -> exit` with iv a pinned induction variable and bound
// a compile-time constant.
func (pl *planner) planLoop(lid int) (*LoopPlan, error) {
	fa := pl.fa
	l := fa.forest.Loops[lid]
	if l.Irreducible {
		return nil, fmt.Errorf("irreducible loop at block %d", l.Header)
	}
	hb := fa.f.Blocks[l.Header]
	br := &hb.Instrs[len(hb.Instrs)-1]
	if br.Op != isa.Br {
		return nil, fmt.Errorf("loop header block %d does not end in a branch", l.Header)
	}
	if fa.blockIn[lid][br.Target] {
		return nil, fmt.Errorf("loop at block %d: branch target is not the loop exit", l.Header)
	}
	if l.Header+1 >= len(fa.f.Blocks) || !fa.blockIn[lid][l.Header+1] {
		return nil, fmt.Errorf("loop at block %d: fallthrough does not enter the body", l.Header)
	}

	lp := &LoopPlan{
		Key:   cfg.LoopKey(fa.f.ID, l.Header),
		Depth: len(pl.path),
		exit:  br.Target,
	}
	lp.Info = pl.a.Loops.Info(lp.Key)

	// Header instructions run once per bound check (Trips+1 times); they
	// may not touch memory or branch before the final Br.
	st := append([]expr(nil), fa.in[l.Header]...)
	for i := range hb.Instrs[:len(hb.Instrs)-1] {
		in := &hb.Instrs[i]
		switch in.Op {
		case isa.Load, isa.Store, isa.Call, isa.Ret, isa.Alloc, isa.Jmp, isa.Br, isa.Halt:
			return nil, fmt.Errorf("loop header block %d contains %s", l.Header, in.Op)
		}
		fa.transfer(in, st)
	}

	trips, err := tripCount(fa, lid, br, st)
	if err != nil {
		return nil, err
	}
	lp.Trips = trips

	pl.path = append(pl.path, lp)
	body, err := pl.walk(l.Header+1, lid)
	pl.path = pl.path[:len(pl.path)-1]
	if err != nil {
		return nil, err
	}
	lp.Body = body
	return lp, nil
}

// tripCount derives the loop's iteration count from the converged header
// state: the exit test `br.ge iv, bound` with iv = start + step·κ (step
// > 0) and bound = stop runs the body ceil((stop−start)/step) times.
func tripCount(fa *funcAnalysis, lid int, br *isa.Instr, st []expr) (int64, error) {
	l := fa.forest.Loops[lid]
	if br.Cmp != isa.Ge {
		return 0, fmt.Errorf("loop at block %d: unsupported exit predicate %s", l.Header, br.Cmp)
	}
	val := func(r isa.Reg) expr {
		if r == isa.RZ {
			return constant(0)
		}
		return st[r]
	}
	ivE, boundE := val(br.Rs1), val(br.Rs2)
	if !boundE.isConst() {
		return 0, fmt.Errorf("loop at block %d: bound is not a compile-time constant", l.Header)
	}
	own := ivRef{Fn: fa.f.ID, Header: l.Header}
	step := ivE.coeff(own)
	if ivE.kind != exprLin || ivE.base.Kind != baseNone || len(ivE.terms) != 1 || step <= 0 {
		return 0, fmt.Errorf("loop at block %d: induction variable is not a constant-step counter", l.Header)
	}
	start, stop := ivE.c, boundE.c
	if stop <= start {
		return 0, nil
	}
	return (stop - start + step - 1) / step, nil
}

// accessTemplate resolves one Load/Store against the walker's loop path.
func (pl *planner) accessTemplate(in *isa.Instr, st []expr) (*AccessTpl, error) {
	ea := eaExpr(in, st)
	if ea.kind != exprLin {
		return nil, fmt.Errorf("access at %#x: address not statically resolved", in.IP)
	}
	if ea.base.Kind != baseGlobal {
		return nil, fmt.Errorf("access at %#x: base is not a program global", in.IP)
	}
	if sp := pl.a.StreamAt(in.IP); sp == nil || sp.Confidence != Exact {
		return nil, fmt.Errorf("access at %#x: stream is not exact tier", in.IP)
	}
	tpl := &AccessTpl{
		IP:       in.IP,
		Size:     in.Size,
		Write:    in.Op == isa.Store,
		GlobalIx: ea.base.Global,
		Disp:     ea.c,
		Coeff:    make([]int64, len(pl.path)),
	}
	if n := len(pl.path); n > 0 {
		tpl.LoopKey = pl.path[n-1].Key
	}
	for d, lp := range pl.path {
		tpl.Coeff[d] = ea.coeff(ivRef{Fn: pl.fa.f.ID, Header: headerOfKey(lp.Key)})
	}
	// Every κ term of the address must belong to an enclosing loop.
	for iv := range ea.terms {
		onPath := false
		for _, lp := range pl.path {
			if iv.Fn == pl.fa.f.ID && iv.Header == headerOfKey(lp.Key) {
				onPath = true
				break
			}
		}
		if !onPath {
			return nil, fmt.Errorf("access at %#x: address uses a loop-exit value", in.IP)
		}
	}
	return tpl, nil
}

// headerOfKey inverts cfg.LoopKey's header component.
func headerOfKey(key uint64) int { return int(key & 0xFFFF_FFFF) }

// GlobalBases computes the load addresses the VM's loader would assign to
// every program global — the same bump allocation mem.Space performs —
// so static predictions see the run's true addresses without
// instantiating a machine.
func GlobalBases(p *prog.Program) []uint64 {
	sp := mem.NewSpace()
	out := make([]uint64, len(p.Globals))
	for gi, g := range p.Globals {
		o := sp.AllocStatic(g.Name, uint64(g.Size), g.TypeID, gi)
		out[gi] = o.Base
	}
	return out
}
