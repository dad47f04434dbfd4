package symbolic

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// Program is a set of expressions lowered to a flat register machine for
// batched evaluation. Common subexpressions across all compiled expressions
// are evaluated once per frame. This is the execution form behind the
// paper's "batched value substitution" (§5.2.1): one symbolic simulation
// pass produces the expressions, and every candidate configuration after
// that costs only a linear pass over the instruction tape.
//
// The tape is staged: instructions are ordered by the highest-indexed
// variable they depend on (constants first), so a frame that differs
// from the previous one only in variables >= v re-runs just the tape's
// suffix from stage[v] (EvalFrameFrom). Ordering a program's variables
// from slowest- to fastest-changing turns a sweep over the fast ones
// into suffix re-runs.
type Program struct {
	vars    []string // symbol order; frame values are positional
	varIdx  map[string]int
	insts   []inst
	stage   []int // stage[v]: first instruction depending on a variable >= v; stage[len(vars)] == len(insts)
	outputs []int // register index per compiled expression
	numRegs int
}

type instOp uint8

const (
	iConst instOp = iota
	iLoad
	iAdd
	iMul
	iDiv
	iCeil
	iFloor
	iMax
	iMin
)

type inst struct {
	op   instOp
	rank int32 // 1 + highest variable index the value depends on; 0 for constants
	dst  int
	val  float64 // iConst payload
	src  int     // iLoad: var index; unary ops: operand register
	args []int   // n-ary operand registers
}

// Compile lowers exprs into a Program over the given symbol order. Every
// free variable of every expression must appear in vars.
func Compile(exprs []*Expr, vars []string) (*Program, error) {
	p := &Program{
		vars:   append([]string(nil), vars...),
		varIdx: make(map[string]int, len(vars)),
	}
	for i, v := range vars {
		if _, dup := p.varIdx[v]; dup {
			return nil, fmt.Errorf("symbolic: duplicate variable %q", v)
		}
		p.varIdx[v] = i
	}
	cache := map[*Expr]int{}       // node identity cache
	structural := map[string]int{} // structural CSE cache
	for _, e := range exprs {
		reg, err := p.lower(e, cache, structural)
		if err != nil {
			return nil, err
		}
		p.outputs = append(p.outputs, reg)
	}
	// Stage the tape. An instruction's rank is at least its operands', so
	// a stable partition by rank keeps every operand ahead of its use.
	slices.SortStableFunc(p.insts, func(a, b inst) int { return int(a.rank - b.rank) })
	p.stage = make([]int, len(vars)+1)
	for v := range p.stage {
		p.stage[v], _ = slices.BinarySearchFunc(p.insts, int32(v+1), func(in inst, rank int32) int { return int(in.rank - rank) })
	}
	return p, nil
}

// MustCompile is Compile that panics on error.
func MustCompile(exprs []*Expr, vars []string) *Program {
	p, err := Compile(exprs, vars)
	if err != nil {
		panic(err)
	}
	return p
}

func (p *Program) lower(e *Expr, cache map[*Expr]int, structural map[string]int) (int, error) {
	if reg, ok := cache[e]; ok {
		return reg, nil
	}
	key := e.String()
	if reg, ok := structural[key]; ok {
		cache[e] = reg
		return reg, nil
	}
	var in inst
	switch e.op {
	case OpConst:
		in = inst{op: iConst, val: e.val}
	case OpVar:
		idx, ok := p.varIdx[e.name]
		if !ok {
			return 0, fmt.Errorf("symbolic: compile: unbound symbol %q", e.name)
		}
		in = inst{op: iLoad, src: idx, rank: int32(idx) + 1}
	default:
		args := make([]int, len(e.args))
		var rank int32
		for i, a := range e.args {
			reg, err := p.lower(a, cache, structural)
			if err != nil {
				return 0, err
			}
			args[i] = reg
			// Until Compile stages the tape, register r is written by insts[r].
			rank = max(rank, p.insts[reg].rank)
		}
		switch e.op {
		case OpAdd:
			in = inst{op: iAdd, args: args}
		case OpMul:
			in = inst{op: iMul, args: args}
		case OpDiv:
			in = inst{op: iDiv, args: args}
		case OpCeil:
			in = inst{op: iCeil, src: args[0]}
		case OpFloor:
			in = inst{op: iFloor, src: args[0]}
		case OpMax:
			in = inst{op: iMax, args: args}
		case OpMin:
			in = inst{op: iMin, args: args}
		default:
			return 0, fmt.Errorf("symbolic: compile: unknown op %v", e.op)
		}
		in.rank = rank
	}
	in.dst = p.numRegs
	p.numRegs++
	p.insts = append(p.insts, in)
	cache[e] = in.dst
	structural[key] = in.dst
	return in.dst, nil
}

// NumOutputs returns the number of compiled expressions.
func (p *Program) NumOutputs() int { return len(p.outputs) }

// Vars returns the positional symbol order expected by EvalFrame/EvalBatch.
func (p *Program) Vars() []string { return append([]string(nil), p.vars...) }

// EvalFrame evaluates all compiled expressions for one configuration frame.
// frame must be positional per Vars(). out, if non-nil and large enough, is
// reused; the slice of output values is returned.
func (p *Program) EvalFrame(frame []float64, regs, out []float64) []float64 {
	if cap(regs) < p.numRegs {
		regs = make([]float64, p.numRegs)
	}
	return p.run(frame, regs, out, 0)
}

// EvalFrameFrom is EvalFrame for a frame that agrees with the previous
// one evaluated into regs on every variable below fromVar: only the
// instructions depending on variables >= fromVar re-run. regs must be
// the register file that previous EvalFrame/EvalFrameFrom call used,
// untouched since. The result equals a fresh EvalFrame bit for bit —
// every instruction is a pure function of its operands, and the skipped
// prefix's operands did not change.
func (p *Program) EvalFrameFrom(frame []float64, regs, out []float64, fromVar int) []float64 {
	if len(regs) < p.numRegs {
		panic(fmt.Sprintf("symbolic: EvalFrameFrom needs the previous %d-register file, got %d", p.numRegs, len(regs)))
	}
	return p.run(frame, regs, out, p.stage[fromVar])
}

// run executes the tape from instruction start over regs.
func (p *Program) run(frame []float64, regs, out []float64, start int) []float64 {
	if len(frame) != len(p.vars) {
		panic(fmt.Sprintf("symbolic: frame has %d values, want %d", len(frame), len(p.vars)))
	}
	regs = regs[:p.numRegs]
	for i := start; i < len(p.insts); i++ {
		in := &p.insts[i]
		switch in.op {
		case iConst:
			regs[in.dst] = in.val
		case iLoad:
			regs[in.dst] = frame[in.src]
		case iAdd:
			sum := 0.0
			for _, a := range in.args {
				sum += regs[a]
			}
			regs[in.dst] = sum
		case iMul:
			prod := 1.0
			for _, a := range in.args {
				prod *= regs[a]
			}
			regs[in.dst] = prod
		case iDiv:
			regs[in.dst] = regs[in.args[0]] / regs[in.args[1]]
		case iCeil:
			regs[in.dst] = math.Ceil(roundEps(regs[in.src]))
		case iFloor:
			regs[in.dst] = math.Floor(roundEps(regs[in.src]))
		case iMax:
			best := regs[in.args[0]]
			for _, a := range in.args[1:] {
				if v := regs[a]; v > best {
					best = v
				}
			}
			regs[in.dst] = best
		case iMin:
			best := regs[in.args[0]]
			for _, a := range in.args[1:] {
				if v := regs[a]; v < best {
					best = v
				}
			}
			regs[in.dst] = best
		}
	}
	if cap(out) < len(p.outputs) {
		out = make([]float64, len(p.outputs))
	}
	out = out[:len(p.outputs)]
	for i, reg := range p.outputs {
		out[i] = regs[reg]
	}
	return out
}

// EvalBatch evaluates all compiled expressions over a batch of frames,
// returning one row of outputs per frame.
func (p *Program) EvalBatch(frames [][]float64) [][]float64 {
	out := make([][]float64, len(frames))
	regs := make([]float64, p.numRegs)
	for i, f := range frames {
		out[i] = p.EvalFrame(f, regs, nil)
	}
	return out
}

// Scratch returns a register scratch buffer sized for this program, for
// callers that drive EvalFrame in a hot loop.
func (p *Program) Scratch() []float64 { return make([]float64, p.numRegs) }

// NumRegs reports the register count EvalFrame needs, for callers that
// manage a reusable scratch buffer across programs.
func (p *Program) NumRegs() int { return p.numRegs }

// MergeVars returns the sorted union of the free variables of exprs,
// a convenience for building a Compile var order.
func MergeVars(exprs ...*Expr) []string {
	set := map[string]struct{}{}
	for _, e := range exprs {
		e.collectVars(set)
	}
	out := make([]string, 0, len(set))
	for name := range set {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
