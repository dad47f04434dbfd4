// Package symbolic implements the symbolic scalar expression engine used by
// Mist's performance analyzer (paper §5.2). Workload characteristics such as
// runtime and peak memory are derived once as expressions over optimization
// symbols (microbatch size, TP degree, ZeRO level, offloading ratios, ...)
// and then evaluated for thousands of candidate configurations by cheap
// value substitution instead of re-simulation.
//
// Expressions are immutable trees built by constructor functions that apply
// light algebraic simplification (constant folding, flattening of
// associative operators, collection of like terms, and absorption rules for
// Max/Min). For bulk evaluation, Compile lowers a set of expressions into a
// register program that is executed column-wise over configuration batches
// (the paper's "batched value substitution").
package symbolic

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
)

// Op identifies the operator at the root of an expression node.
type Op uint8

// Expression node operators.
const (
	OpConst Op = iota // numeric literal
	OpVar             // free symbol
	OpAdd             // n-ary sum
	OpMul             // n-ary product
	OpDiv             // binary quotient
	OpCeil            // ceiling
	OpFloor           // floor
	OpMax             // n-ary maximum
	OpMin             // n-ary minimum
)

func (op Op) String() string {
	switch op {
	case OpConst:
		return "const"
	case OpVar:
		return "var"
	case OpAdd:
		return "add"
	case OpMul:
		return "mul"
	case OpDiv:
		return "div"
	case OpCeil:
		return "ceil"
	case OpFloor:
		return "floor"
	case OpMax:
		return "max"
	case OpMin:
		return "min"
	default:
		return fmt.Sprintf("op(%d)", uint8(op))
	}
}

// Expr is an immutable symbolic expression. The zero value is not valid;
// use the package constructors.
type Expr struct {
	op   Op
	val  float64 // payload for OpConst
	name string  // payload for OpVar
	args []*Expr // operands for composite nodes
}

// Op reports the root operator of e.
func (e *Expr) Op() Op { return e.op }

// Args returns the operand list of a composite node. Callers must not
// mutate the returned slice.
func (e *Expr) Args() []*Expr { return e.args }

// IsConst reports whether e is a numeric literal, returning its value.
func (e *Expr) IsConst() (float64, bool) {
	if e.op == OpConst {
		return e.val, true
	}
	return 0, false
}

// Const returns a literal expression.
func Const(v float64) *Expr {
	return &Expr{op: OpConst, val: v}
}

// Zero and One are shared literals for the two most common constants.
var (
	zero = Const(0)
	one  = Const(1)
)

// Var returns a free symbol named name.
func Var(name string) *Expr {
	if name == "" {
		panic("symbolic: empty symbol name")
	}
	return &Expr{op: OpVar, name: name}
}

// Add returns the simplified sum of the operands. Add() is 0.
func Add(xs ...*Expr) *Expr {
	var buf [16]*Expr // the flattened terms; the sum's operands are a fresh slice
	terms := buf[:0]
	constSum := 0.0
	for _, x := range xs {
		x = mustExpr(x)
		if x.op == OpAdd {
			for _, a := range x.args {
				if c, ok := a.IsConst(); ok {
					constSum += c
				} else {
					terms = append(terms, a)
				}
			}
			continue
		}
		if c, ok := x.IsConst(); ok {
			constSum += c
			continue
		}
		terms = append(terms, x)
	}
	switch {
	case len(terms) == 0 && constSum == 0:
		return zero
	case len(terms) == 0:
		return Const(constSum)
	case len(terms) == 1 && constSum == 0:
		return terms[0]
	}
	var argBuf [16]*Expr
	args := collectLikeTerms(argBuf[:0], terms)
	if constSum != 0 {
		args = append(args, Const(constSum))
	}
	switch len(args) {
	case 0:
		return zero
	case 1:
		return args[0]
	}
	return composite(OpAdd, args)
}

// composite returns a node of op over a copy of args: node and operand
// list in one allocation when the list is short.
func composite(op Op, args []*Expr) *Expr {
	if len(args) <= 4 {
		n := &struct {
			e Expr
			a [4]*Expr
		}{}
		n.e = Expr{op: op, args: n.a[:copy(n.a[:], args):len(args)]}
		return &n.e
	}
	return &Expr{op: op, args: slices.Clone(args)}
}

// Sub returns a - b.
func Sub(a, b *Expr) *Expr { return Add(a, Mul(Const(-1), b)) }

// Mul returns the simplified product of the operands. Mul() is 1.
func Mul(xs ...*Expr) *Expr {
	var buf [8]*Expr
	factors := buf[:1] // factors[0]: the constant's slot
	constProd := 1.0
	var only *Expr // the constant operand, while there is one
	consts := 0
	for _, x := range xs {
		x = mustExpr(x)
		if x.op == OpMul {
			for _, a := range x.args {
				if c, ok := a.IsConst(); ok {
					constProd *= c
					only = a
					consts++
				} else {
					factors = append(factors, a)
				}
			}
			continue
		}
		if c, ok := x.IsConst(); ok {
			constProd *= c
			only = x
			consts++
			continue
		}
		factors = append(factors, x)
	}
	if constProd == 0 {
		return zero
	}
	if constProd != 1 {
		if consts != 1 || only.val != constProd {
			only = Const(constProd)
		}
		factors[0] = only
	} else {
		factors = factors[1:]
	}
	switch len(factors) {
	case 0:
		return one
	case 1:
		return factors[0]
	}
	return composite(OpMul, factors)
}

// Div returns a / b, folding constants and cancelling the trivial cases
// a/1 = a and 0/b = 0.
func Div(a, b *Expr) *Expr {
	a, b = mustExpr(a), mustExpr(b)
	if ca, okA := a.IsConst(); okA {
		if cb, okB := b.IsConst(); okB {
			return Const(ca / cb)
		}
		if ca == 0 {
			return zero
		}
	}
	if cb, ok := b.IsConst(); ok {
		if cb == 1 {
			return a
		}
		// Fold the constant into a product so like-term collection sees it.
		return Mul(Const(1/cb), a)
	}
	if a.equal(b) {
		return one
	}
	return &Expr{op: OpDiv, args: []*Expr{a, b}}
}

// Ceil returns ceil(x). A constant folds as Eval and the compiled tape
// would round it (roundEps), so Subs and Eval agree.
func Ceil(x *Expr) *Expr {
	x = mustExpr(x)
	if c, ok := x.IsConst(); ok {
		return Const(math.Ceil(roundEps(c)))
	}
	if x.op == OpCeil || x.op == OpFloor {
		return x // already integral
	}
	return &Expr{op: OpCeil, args: []*Expr{x}}
}

// Floor returns floor(x), folding a constant as Ceil does.
func Floor(x *Expr) *Expr {
	x = mustExpr(x)
	if c, ok := x.IsConst(); ok {
		return Const(math.Floor(roundEps(c)))
	}
	if x.op == OpCeil || x.op == OpFloor {
		return x
	}
	return &Expr{op: OpFloor, args: []*Expr{x}}
}

// Max returns the simplified maximum of the operands. Constant operands are
// folded together; duplicate operands are removed. Max of a single operand
// is that operand. Max() panics.
func Max(xs ...*Expr) *Expr { return extremum(OpMax, xs) }

// Min is the dual of Max.
func Min(xs ...*Expr) *Expr { return extremum(OpMin, xs) }

func extremum(op Op, xs []*Expr) *Expr {
	if len(xs) == 0 {
		panic("symbolic: extremum of zero operands")
	}
	args := make([]*Expr, 0, len(xs))
	haveConst := false
	acc := 0.0
	for _, x := range xs {
		x = mustExpr(x)
		if x.op == op {
			for _, a := range x.args {
				if c, ok := a.IsConst(); ok {
					acc = foldExtremum(op, haveConst, acc, c)
					haveConst = true
				} else {
					args = appendUnique(args, a)
				}
			}
			continue
		}
		if c, ok := x.IsConst(); ok {
			acc = foldExtremum(op, haveConst, acc, c)
			haveConst = true
			continue
		}
		args = appendUnique(args, x)
	}
	if haveConst {
		args = append(args, Const(acc))
	}
	if len(args) == 1 {
		return args[0]
	}
	return &Expr{op: op, args: args}
}

func foldExtremum(op Op, have bool, acc, c float64) float64 {
	if !have {
		return c
	}
	if op == OpMax {
		return math.Max(acc, c)
	}
	return math.Min(acc, c)
}

func appendUnique(args []*Expr, x *Expr) []*Expr {
	for _, a := range args {
		if a.equal(x) {
			return args
		}
	}
	return append(args, x)
}

func mustExpr(e *Expr) *Expr {
	if e == nil {
		panic("symbolic: nil expression operand")
	}
	return e
}

// collectLikeTerms merges structurally equal non-constant terms of a sum
// into coefficient*term factors, x + 2x -> 3x, and appends them to dst.
func collectLikeTerms(dst, terms []*Expr) []*Expr {
	type entry struct {
		base, term *Expr // term: the first term with this base
		coeff      float64
		merged     bool
	}
	var buf [8]entry
	entries := buf[:0]
	for _, t := range terms {
		coeff, base := splitCoeff(t)
		merged := false
		for i := range entries {
			if entries[i].base.equal(base) {
				entries[i].coeff += coeff
				entries[i].merged = true
				merged = true
				break
			}
		}
		if !merged {
			entries = append(entries, entry{base: base, term: t, coeff: coeff})
		}
	}
	out := dst
	for _, en := range entries {
		switch {
		case en.coeff == 0:
			// dropped
		case !en.merged:
			out = append(out, en.term) // what coeff*base would rebuild
		case en.coeff == 1:
			out = append(out, en.base)
		default:
			out = append(out, rawMulCoeff(en.coeff, en.base))
		}
	}
	return out
}

// splitCoeff splits c*rest products into (c, rest) without re-simplifying.
func splitCoeff(t *Expr) (float64, *Expr) {
	if t.op != OpMul || len(t.args) == 0 {
		return 1, t
	}
	c, ok := t.args[0].IsConst()
	if !ok {
		return 1, t
	}
	rest := t.args[1:]
	if len(rest) == 1 {
		return c, rest[0]
	}
	return c, &Expr{op: OpMul, args: rest}
}

// rawMulCoeff builds coeff*base without invoking Mul's flattening (base is
// already simplified and known non-constant).
func rawMulCoeff(coeff float64, base *Expr) *Expr {
	if base.op == OpMul {
		args := make([]*Expr, 0, len(base.args)+1)
		args = append(args, Const(coeff))
		args = append(args, base.args...)
		return &Expr{op: OpMul, args: args}
	}
	// One allocation for the product, its operand list and the constant.
	n := &struct {
		mul, c Expr
		args   [2]*Expr
	}{c: Expr{op: OpConst, val: coeff}}
	n.args = [2]*Expr{&n.c, base}
	n.mul = Expr{op: OpMul, args: n.args[:]}
	return &n.mul
}

// equal reports structural equality.
func (e *Expr) equal(o *Expr) bool {
	if e == o {
		return true
	}
	if e.op != o.op || len(e.args) != len(o.args) {
		return false
	}
	switch e.op {
	case OpConst:
		return e.val == o.val
	case OpVar:
		return e.name == o.name
	}
	for i := range e.args {
		if !e.args[i].equal(o.args[i]) {
			return false
		}
	}
	return true
}

// Env maps symbol names to values for evaluation and substitution.
type Env map[string]float64

// Eval evaluates e under env, reporting an error naming the first unbound
// symbol encountered.
func (e *Expr) Eval(env Env) (float64, error) {
	switch e.op {
	case OpConst:
		return e.val, nil
	case OpVar:
		v, ok := env[e.name]
		if !ok {
			return 0, fmt.Errorf("symbolic: unbound symbol %q", e.name)
		}
		return v, nil
	case OpAdd:
		sum := 0.0
		for _, a := range e.args {
			v, err := a.Eval(env)
			if err != nil {
				return 0, err
			}
			sum += v
		}
		return sum, nil
	case OpMul:
		prod := 1.0
		for _, a := range e.args {
			v, err := a.Eval(env)
			if err != nil {
				return 0, err
			}
			prod *= v
		}
		return prod, nil
	case OpDiv:
		num, err := e.args[0].Eval(env)
		if err != nil {
			return 0, err
		}
		den, err := e.args[1].Eval(env)
		if err != nil {
			return 0, err
		}
		return num / den, nil
	case OpCeil:
		v, err := e.args[0].Eval(env)
		if err != nil {
			return 0, err
		}
		return math.Ceil(roundEps(v)), nil
	case OpFloor:
		v, err := e.args[0].Eval(env)
		if err != nil {
			return 0, err
		}
		return math.Floor(roundEps(v)), nil
	case OpMax, OpMin:
		best, err := e.args[0].Eval(env)
		if err != nil {
			return 0, err
		}
		for _, a := range e.args[1:] {
			v, err := a.Eval(env)
			if err != nil {
				return 0, err
			}
			if (e.op == OpMax && v > best) || (e.op == OpMin && v < best) {
				best = v
			}
		}
		return best, nil
	default:
		return 0, fmt.Errorf("symbolic: unknown op %v", e.op)
	}
}

// MustEval is Eval that panics on unbound symbols; for expressions whose
// symbol set is known closed.
func (e *Expr) MustEval(env Env) float64 {
	v, err := e.Eval(env)
	if err != nil {
		panic(err)
	}
	return v
}

// roundEps snaps values within 1e-9 of an integer onto it, so that exact
// integer ratios computed through float division do not straddle ceil/floor
// boundaries.
func roundEps(v float64) float64 {
	r := math.Round(v)
	if math.Abs(v-r) < 1e-9 {
		return r
	}
	return v
}

// Subs substitutes bound symbols with constants and re-simplifies. Symbols
// absent from env remain free.
func (e *Expr) Subs(env Env) *Expr {
	switch e.op {
	case OpConst:
		return e
	case OpVar:
		if v, ok := env[e.name]; ok {
			return Const(v)
		}
		return e
	}
	args := make([]*Expr, len(e.args))
	changed := false
	for i, a := range e.args {
		args[i] = a.Subs(env)
		if args[i] != a {
			changed = true
		}
	}
	if !changed {
		return e
	}
	switch e.op {
	case OpAdd:
		return Add(args...)
	case OpMul:
		return Mul(args...)
	case OpDiv:
		return Div(args[0], args[1])
	case OpCeil:
		return Ceil(args[0])
	case OpFloor:
		return Floor(args[0])
	case OpMax:
		return Max(args...)
	case OpMin:
		return Min(args...)
	default:
		panic("symbolic: unknown op in Subs")
	}
}

// FreeVars returns the sorted set of unbound symbol names in e.
func (e *Expr) FreeVars() []string {
	set := map[string]struct{}{}
	e.collectVars(set)
	out := make([]string, 0, len(set))
	for name := range set {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func (e *Expr) collectVars(set map[string]struct{}) {
	if e.op == OpVar {
		set[e.name] = struct{}{}
		return
	}
	for _, a := range e.args {
		a.collectVars(set)
	}
}

// String renders the expression in conventional infix notation.
func (e *Expr) String() string {
	var sb strings.Builder
	e.render(&sb, 0)
	return sb.String()
}

// precedence levels for rendering: 0 add, 1 mul/div, 2 atom/call.
func (e *Expr) render(sb *strings.Builder, parentPrec int) {
	switch e.op {
	case OpConst:
		if e.val == math.Trunc(e.val) && math.Abs(e.val) < 1e15 {
			fmt.Fprintf(sb, "%d", int64(e.val))
		} else {
			fmt.Fprintf(sb, "%g", e.val)
		}
	case OpVar:
		sb.WriteString(e.name)
	case OpAdd:
		if parentPrec > 0 {
			sb.WriteByte('(')
		}
		for i, a := range e.args {
			if i > 0 {
				sb.WriteString(" + ")
			}
			a.render(sb, 1)
		}
		if parentPrec > 0 {
			sb.WriteByte(')')
		}
	case OpMul:
		if parentPrec > 1 {
			sb.WriteByte('(')
		}
		for i, a := range e.args {
			if i > 0 {
				sb.WriteByte('*')
			}
			a.render(sb, 2)
		}
		if parentPrec > 1 {
			sb.WriteByte(')')
		}
	case OpDiv:
		if parentPrec > 1 {
			sb.WriteByte('(')
		}
		e.args[0].render(sb, 2)
		sb.WriteByte('/')
		e.args[1].render(sb, 2)
		if parentPrec > 1 {
			sb.WriteByte(')')
		}
	case OpCeil, OpFloor, OpMax, OpMin:
		sb.WriteString(e.op.String())
		sb.WriteByte('(')
		for i, a := range e.args {
			if i > 0 {
				sb.WriteString(", ")
			}
			a.render(sb, 0)
		}
		sb.WriteByte(')')
	}
}
