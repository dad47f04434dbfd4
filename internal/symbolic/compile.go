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
// pass produces the expressions, and the candidate configurations after
// that are frames substituted into the instruction tape — one at a time
// (EvalFrame), or a block of lanes at a time (EvalLanes), each
// instruction running over every lane before the next, so a block pays
// one instruction dispatch where single frames pay one per frame.
//
// The tape is staged: instructions are ordered by the highest-indexed
// variable they depend on (constants first), so frames that differ from
// the previous ones only in variables >= v re-run just the tape's suffix
// from stage[v] (EvalLanes' fromVar). Ordering a program's variables from
// slowest- to fastest-changing turns a sweep over the fast ones into
// suffix re-runs. The stage analyzer (internal/schedule) uses three
// levels: its frame is [shape coefficients | offload tuple | l, ckpt],
// so one program serves every stage shape of a structural variant — a
// shape's first block of offload tuples runs the whole tape, each further
// block the suffix from the tuple's first variable, and each further
// (l, ckpt) of the block's tuples only the last few instructions.
type Program struct {
	vars    []string  // symbol order; frame values are positional
	insts   []inst    // insts[i] writes register i
	args    []int32   // operand registers of the n-ary instructions, end to end
	consts  []float64 // iConst payloads
	stage   []int32   // stage[v]: first instruction depending on a variable >= v; stage[len(vars)] == len(insts)
	outputs []int32   // register index per compiled expression
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

// inst is 12 bytes, and the operand lists and constants live in the
// program's shared pools: a compiled program is kept for an analyzer's
// lifetime, so its footprint is part of what a long-lived analyzer costs.
type inst struct {
	op  instOp
	n   int32 // n-ary ops: operand count
	src int32 // iConst: index into consts; iLoad: var index; unary ops: operand register; n-ary ops: offset into args
}

// Compile lowers exprs into a Program over the given symbol order. Every
// free variable of every expression must appear in vars, which the
// program keeps: the caller must not modify it afterwards.
func Compile(exprs []*Expr, vars []string) (*Program, error) {
	p := &Program{vars: vars}
	lw := lowering{
		p:      p,
		varIdx: make(map[string]int32, len(vars)),
		byNode: make(map[*Expr]int32, lowerHint),
		slots:  make([]int32, 2*lowerHint),
	}
	for i, v := range vars {
		if _, dup := lw.varIdx[v]; dup {
			return nil, fmt.Errorf("symbolic: duplicate variable %q", v)
		}
		lw.varIdx[v] = int32(i)
	}
	for _, e := range exprs {
		reg, err := lw.lower(e)
		if err != nil {
			return nil, err
		}
		p.outputs = append(p.outputs, reg)
	}
	// Stage the tape: a stable counting sort by rank. An instruction's
	// rank is at least its operands', so every operand stays ahead of its
	// use. Until here instruction i is the one that writes register i;
	// then the registers are renumbered so that the staged tape's
	// instruction i writes register i again: run needs no destination
	// field. stage[v], the first instruction of rank > v, is where rank
	// v+1 starts.
	p.stage = make([]int32, len(vars)+2)
	for _, r := range lw.rank {
		p.stage[r+1]++
	}
	for v := 1; v < len(p.stage); v++ {
		p.stage[v] += p.stage[v-1]
	}
	// p.stage[r] is now where rank r starts.
	staged := make([]inst, len(p.insts))
	at := make([]int32, len(p.insts)) // register before staging -> after
	for j, r := range lw.rank {
		at[j] = p.stage[r]
		p.stage[r]++
		staged[at[j]] = p.insts[j]
	}
	// Each p.stage[r] has moved to where rank r+1 starts.
	p.stage = p.stage[:len(vars)+1]
	for i := range staged {
		if in := &staged[i]; in.op == iCeil || in.op == iFloor {
			in.src = at[in.src]
		}
	}
	for i, r := range p.args {
		p.args[i] = at[r]
	}
	for i, r := range p.outputs {
		p.outputs[i] = at[r]
	}
	p.insts = staged
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

// lowerHint sizes Compile's memo tables: room for a small program's
// nodes, and a larger program grows them.
const lowerHint = 64

// lowering is Compile's working state. It finds the register already
// holding an expression's value by node identity and, structurally, by
// hash-consing: operands are lowered before their parent, so a node's
// structural identity is its instruction (op, then the constant's bits,
// the variable's index, or the operand registers in order) — no
// rendering and no subtree walk.
type lowering struct {
	p      *Program
	varIdx map[string]int32
	rank   []int32 // per register: 1 + highest variable index its value depends on; 0 for constants
	byNode map[*Expr]int32
	hashes []uint64 // per register: its instruction's hash
	slots  []int32  // open-addressing table of registers by hash: register+1, 0 when empty
}

// mix is the splitmix64 finalizer.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// find returns the register of the instruction (op, payload, args)
// emitted so far, or -1 and the free slot to record it in, and the
// instruction's hash. payload is the constant's bits, the variable's
// index or a unary operand's register; args are an n-ary instruction's
// operand registers.
func (lw *lowering) find(op instOp, payload uint64, args []int32) (reg int32, slot int, h uint64) {
	h = mix(uint64(op)+1) ^ payload
	for _, a := range args {
		h = mix(h) ^ uint64(uint32(a))
	}
	h = mix(h)
	p := lw.p
	mask := len(lw.slots) - 1
	for i := int(h) & mask; ; i = (i + 1) & mask {
		r := lw.slots[i] - 1
		if r < 0 {
			return -1, i, h
		}
		if lw.hashes[r] != h {
			continue
		}
		in := &p.insts[r]
		if in.op != op {
			continue
		}
		switch op {
		case iConst:
			if math.Float64bits(p.consts[in.src]) == payload {
				return r, i, h
			}
		case iLoad, iCeil, iFloor:
			if uint64(in.src) == payload {
				return r, i, h
			}
		default:
			if slices.Equal(p.args[in.src:in.src+in.n], args) {
				return r, i, h
			}
		}
	}
}

// record enters register reg, just emitted with hash h, in slot, and
// doubles the table once it is half full.
func (lw *lowering) record(reg int32, slot int, h uint64) {
	lw.slots[slot] = reg + 1
	lw.hashes = append(lw.hashes, h)
	if 2*len(lw.hashes) <= len(lw.slots) {
		return
	}
	lw.slots = make([]int32, 2*len(lw.slots))
	mask := len(lw.slots) - 1
	for r, h := range lw.hashes {
		i := int(h) & mask
		for lw.slots[i] != 0 {
			i = (i + 1) & mask
		}
		lw.slots[i] = int32(r) + 1
	}
}

func (lw *lowering) lower(e *Expr) (int32, error) {
	// A constant is found by its bits as cheaply as by its node, so only
	// the other nodes are memoized by identity.
	memo := e.op != OpConst
	if memo {
		if reg, ok := lw.byNode[e]; ok {
			return reg, nil
		}
	}
	p := lw.p
	var in inst
	var rank int32
	var payload uint64
	var buf [8]int32
	args := buf[:0]
	switch e.op {
	case OpConst:
		in.op = iConst
		payload = math.Float64bits(e.val)
	case OpVar:
		idx, ok := lw.varIdx[e.name]
		if !ok {
			return 0, fmt.Errorf("symbolic: compile: unbound symbol %q", e.name)
		}
		in = inst{op: iLoad, src: idx}
		rank = idx + 1
		payload = uint64(idx)
	default:
		for _, a := range e.args {
			reg, err := lw.lower(a)
			if err != nil {
				return 0, err
			}
			args = append(args, reg)
			rank = max(rank, lw.rank[reg])
		}
		switch e.op {
		case OpAdd:
			in.op = iAdd
		case OpMul:
			in.op = iMul
		case OpDiv:
			in.op = iDiv
		case OpCeil:
			in.op = iCeil
		case OpFloor:
			in.op = iFloor
		case OpMax:
			in.op = iMax
		case OpMin:
			in.op = iMin
		default:
			return 0, fmt.Errorf("symbolic: compile: unknown op %v", e.op)
		}
		if in.op == iCeil || in.op == iFloor {
			payload, args = uint64(args[0]), nil
		}
	}
	reg, slot, h := lw.find(in.op, payload, args)
	if reg >= 0 {
		if memo {
			lw.byNode[e] = reg
		}
		return reg, nil
	}
	switch in.op {
	case iConst:
		in.src = int32(len(p.consts))
		p.consts = append(p.consts, e.val)
	case iLoad:
	case iCeil, iFloor:
		in.src = int32(payload)
	default:
		in.src, in.n = int32(len(p.args)), int32(len(args))
		p.args = append(p.args, args...)
	}
	reg = int32(len(p.insts))
	p.insts = append(p.insts, in)
	lw.rank = append(lw.rank, rank)
	lw.record(reg, slot, h)
	if memo {
		lw.byNode[e] = reg
	}
	return reg, nil
}

// NumOutputs returns the number of compiled expressions.
func (p *Program) NumOutputs() int { return len(p.outputs) }

// Vars returns the positional symbol order expected by EvalFrame.
func (p *Program) Vars() []string { return append([]string(nil), p.vars...) }

// EvalFrame evaluates all compiled expressions for one configuration frame.
// frame must be positional per Vars(). out, if non-nil and large enough, is
// reused; the slice of output values is returned.
func (p *Program) EvalFrame(frame []float64, regs, out []float64) []float64 {
	if cap(regs) < len(p.insts) {
		regs = make([]float64, len(p.insts))
	}
	regs = regs[:len(p.insts)]
	p.run(frame, regs, 0)
	if cap(out) < len(p.outputs) {
		out = make([]float64, len(p.outputs))
	}
	out = out[:len(p.outputs)]
	for i, reg := range p.outputs {
		out[i] = regs[reg]
	}
	return out
}

// EvalLanes evaluates lanes frames at once, instruction-major: each
// instruction runs over every lane before the next one starts, so a
// block of frames pays one dispatch per instruction instead of one per
// frame. Storage is lane-minor: variable v of lane j is frames[v*lanes+j]
// and register i of lane j is regs[i*lanes+j]; Output reads a result row.
// Every lane does exactly EvalFrame's float operations in the same order,
// so each lane's outputs equal a fresh EvalFrame of its frame bit for bit
// (but for NaN payloads, which Go leaves unspecified).
//
// The run starts at the first instruction depending on a variable >=
// fromVar: the registers it skips must hold, in every lane, a previous
// run over the same lane count whose frames agreed below fromVar — every
// instruction is a pure function of its operands, so the result equals a
// whole run bit for bit. fromVar 0 runs the whole tape, constants
// included, as EvalFrame does. One lane is the scalar layout, and runs
// the scalar interpreter.
func (p *Program) EvalLanes(frames, regs []float64, lanes, fromVar int) {
	if len(frames) < len(p.vars)*lanes || len(regs) < len(p.insts)*lanes {
		panic(fmt.Sprintf("symbolic: %d lanes need %d frame values and %d registers, got %d and %d",
			lanes, len(p.vars)*lanes, len(p.insts)*lanes, len(frames), len(regs)))
	}
	start := 0 // the constants too: regs may hold another program's run
	if fromVar > 0 {
		start = int(p.stage[fromVar])
	}
	if lanes == 1 {
		p.run(frames[:len(p.vars)], regs, start)
		return
	}
	insts, pool, consts := p.insts, p.args, p.consts
	// row is register r's lanes, sliced to len(dst) so that the loops
	// below index both without bounds checks.
	row := func(r int32, n int) []float64 { return regs[int(r)*lanes:][:n] }
	for i := start; i < len(insts); i++ {
		in := &insts[i]
		dst := regs[i*lanes:][:lanes]
		switch in.op {
		case iConst:
			c := consts[in.src]
			for j := range dst {
				dst[j] = c
			}
		case iLoad:
			copy(dst, frames[int(in.src)*lanes:][:len(dst)])
		case iAdd:
			// Two operands per pass: (s + a) + b rounds exactly as s += a;
			// s += b does, and dst is loaded and stored half as often.
			args := pool[in.src : in.src+in.n]
			first := row(args[0], len(dst))
			if len(args) == 1 {
				for j := range dst {
					dst[j] = 0.0 + first[j]
				}
				break
			}
			second := row(args[1], len(dst))
			for j := range dst {
				dst[j] = 0.0 + first[j] + second[j]
			}
			for args = args[2:]; len(args) >= 2; args = args[2:] {
				a, b := row(args[0], len(dst)), row(args[1], len(dst))
				for j := range dst {
					dst[j] = dst[j] + a[j] + b[j]
				}
			}
			if len(args) == 1 {
				src := row(args[0], len(dst))
				for j := range dst {
					dst[j] += src[j]
				}
			}
		case iMul:
			args := pool[in.src : in.src+in.n]
			first := row(args[0], len(dst))
			if len(args) == 1 {
				for j := range dst {
					dst[j] = 1.0 * first[j]
				}
				break
			}
			second := row(args[1], len(dst))
			for j := range dst {
				dst[j] = 1.0 * first[j] * second[j]
			}
			for args = args[2:]; len(args) >= 2; args = args[2:] {
				a, b := row(args[0], len(dst)), row(args[1], len(dst))
				for j := range dst {
					dst[j] = dst[j] * a[j] * b[j]
				}
			}
			if len(args) == 1 {
				src := row(args[0], len(dst))
				for j := range dst {
					dst[j] *= src[j]
				}
			}
		case iDiv:
			num, den := row(pool[in.src], len(dst)), row(pool[in.src+1], len(dst))
			for j := range dst {
				dst[j] = num[j] / den[j]
			}
		case iCeil:
			src := row(in.src, len(dst))
			for j := range dst {
				dst[j] = math.Ceil(roundEps(src[j]))
			}
		case iFloor:
			src := row(in.src, len(dst))
			for j := range dst {
				dst[j] = math.Floor(roundEps(src[j]))
			}
		case iMax:
			args := pool[in.src : in.src+in.n]
			copy(dst, row(args[0], len(dst)))
			for _, a := range args[1:] {
				src := row(a, len(dst))
				for j := range dst {
					if v := src[j]; v > dst[j] {
						dst[j] = v
					}
				}
			}
		case iMin:
			args := pool[in.src : in.src+in.n]
			copy(dst, row(args[0], len(dst)))
			for _, a := range args[1:] {
				src := row(a, len(dst))
				for j := range dst {
					if v := src[j]; v < dst[j] {
						dst[j] = v
					}
				}
			}
		}
	}
}

// Output returns compiled expression o's row of a lane-minor register
// file that EvalLanes filled over lanes lanes: lane j's value is at [j].
// The row aliases regs, so it reads every later run into the same file.
func (p *Program) Output(regs []float64, lanes, o int) []float64 {
	return regs[int(p.outputs[o])*lanes:][:lanes]
}

// run is the scalar interpreter: it executes the tape from instruction
// start over one frame's regs.
func (p *Program) run(frame []float64, regs []float64, start int) {
	if len(frame) != len(p.vars) {
		panic(fmt.Sprintf("symbolic: frame has %d values, want %d", len(frame), len(p.vars)))
	}
	insts, pool, consts := p.insts, p.args, p.consts
	regs = regs[:len(insts)]
	for i := start; i < len(insts); i++ {
		in := &insts[i]
		switch in.op {
		case iConst:
			regs[i] = consts[in.src]
		case iLoad:
			regs[i] = frame[in.src]
		case iAdd:
			sum := 0.0
			for _, a := range pool[in.src : in.src+in.n] {
				sum += regs[a]
			}
			regs[i] = sum
		case iMul:
			prod := 1.0
			for _, a := range pool[in.src : in.src+in.n] {
				prod *= regs[a]
			}
			regs[i] = prod
		case iDiv:
			regs[i] = regs[pool[in.src]] / regs[pool[in.src+1]]
		case iCeil:
			regs[i] = math.Ceil(roundEps(regs[in.src]))
		case iFloor:
			regs[i] = math.Floor(roundEps(regs[in.src]))
		case iMax:
			args := pool[in.src : in.src+in.n]
			best := regs[args[0]]
			for _, a := range args[1:] {
				if v := regs[a]; v > best {
					best = v
				}
			}
			regs[i] = best
		case iMin:
			args := pool[in.src : in.src+in.n]
			best := regs[args[0]]
			for _, a := range args[1:] {
				if v := regs[a]; v < best {
					best = v
				}
			}
			regs[i] = best
		}
	}
}

// Scratch returns a register scratch buffer sized for this program, for
// callers that drive EvalFrame in a hot loop.
func (p *Program) Scratch() []float64 { return make([]float64, len(p.insts)) }

// NumRegs reports the register count EvalFrame needs (EvalLanes needs
// that many per lane), for callers that manage a reusable scratch buffer
// across programs.
func (p *Program) NumRegs() int { return len(p.insts) }

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
