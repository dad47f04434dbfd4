// Package milp provides a small linear-programming and mixed-integer
// linear-programming solver built from scratch on the standard two-phase
// dense simplex method with branch-and-bound, sufficient for Mist's
// inter-stage tuning problem (§5.3, Eq. 2): a few hundred binary selection
// variables with assignment-style constraints plus linearized max terms.
// The paper uses CBC; this package is the stdlib-only substitute.
package milp

import (
	"errors"
	"fmt"
	"math"
)

// Relation is a constraint sense.
type Relation uint8

// Constraint senses.
const (
	LE Relation = iota // a·x <= rhs
	GE                 // a·x >= rhs
	EQ                 // a·x == rhs
)

func (r Relation) String() string {
	switch r {
	case LE:
		return "<="
	case GE:
		return ">="
	default:
		return "=="
	}
}

// Constraint is one linear constraint with a sparse coefficient row.
type Constraint struct {
	Coeffs map[int]float64
	Rel    Relation
	RHS    float64
}

// Problem is a minimization MILP: minimize Objective·x subject to the
// constraints, variable bounds, and integrality restrictions.
type Problem struct {
	numVars   int
	objective []float64
	lower     []float64
	upper     []float64
	integer   []bool
	cons      []Constraint
}

// NewProblem creates a problem with n variables, all continuous with
// bounds [0, +inf) and zero objective coefficients.
func NewProblem(n int) *Problem {
	p := &Problem{
		numVars:   n,
		objective: make([]float64, n),
		lower:     make([]float64, n),
		upper:     make([]float64, n),
		integer:   make([]bool, n),
	}
	for i := range p.upper {
		p.upper[i] = math.Inf(1)
	}
	return p
}

// SetObjective sets the objective coefficient of variable i.
func (p *Problem) SetObjective(i int, c float64) { p.objective[i] = c }

// SetBounds sets the bounds of variable i.
func (p *Problem) SetBounds(i int, lo, hi float64) { p.lower[i], p.upper[i] = lo, hi }

// SetInteger marks variable i integral.
func (p *Problem) SetInteger(i int) { p.integer[i] = true }

// SetBinary marks variable i as a 0/1 integer.
func (p *Problem) SetBinary(i int) {
	p.SetInteger(i)
	p.SetBounds(i, 0, 1)
}

// AddConstraint appends a constraint; coeffs is copied.
func (p *Problem) AddConstraint(coeffs map[int]float64, rel Relation, rhs float64) {
	cp := make(map[int]float64, len(coeffs))
	for k, v := range coeffs {
		if k < 0 || k >= p.numVars {
			panic(fmt.Sprintf("milp: constraint references variable %d of %d", k, p.numVars))
		}
		cp[k] = v
	}
	p.cons = append(p.cons, Constraint{Coeffs: cp, Rel: rel, RHS: rhs})
}

// Solution is an optimal assignment.
type Solution struct {
	X         []float64
	Objective float64
}

// Solver errors.
var (
	ErrInfeasible = errors.New("milp: infeasible")
	ErrUnbounded  = errors.New("milp: unbounded")
	ErrIterLimit  = errors.New("milp: iteration limit exceeded")
)

const (
	eps       = 1e-9
	pivotEps  = 1e-9
	iterLimit = 200000
)

// SolveLP solves the continuous relaxation with the two-phase simplex.
func (p *Problem) SolveLP() (*Solution, error) {
	t, err := p.newTableau(nil)
	if err != nil {
		return nil, err
	}
	return t.solve(p)
}

// solveLPWith applies extra variable bound overrides (used by
// branch-and-bound) before solving.
func (p *Problem) solveLPWith(bounds map[int][2]float64) (*Solution, error) {
	t, err := p.newTableau(bounds)
	if err != nil {
		return nil, err
	}
	return t.solve(p)
}

// tableau is a dense standard-form simplex tableau. Variables are shifted
// by their lower bounds so every structural variable is >= 0; finite upper
// bounds become explicit <= rows.
type tableau struct {
	m, n    int         // rows, structural+slack+artificial columns
	a       [][]float64 // m x (n+1), last column is rhs
	cost    []float64   // phase-2 objective over all columns
	basis   []int
	shift   []float64 // lower-bound shift per structural variable
	nArt    int
	artBase int
}

func (p *Problem) newTableau(overrides map[int][2]float64) (*tableau, error) {
	lower := append([]float64(nil), p.lower...)
	upper := append([]float64(nil), p.upper...)
	if overrides != nil {
		for i, b := range overrides {
			if b[0] > lower[i] {
				lower[i] = b[0]
			}
			if b[1] < upper[i] {
				upper[i] = b[1]
			}
		}
	}
	for i := range lower {
		if lower[i] > upper[i]+eps {
			return nil, ErrInfeasible
		}
	}

	// Count rows: every problem constraint plus one row per finite upper
	// bound (in shifted space: x' <= upper-lower).
	type row struct {
		coeffs map[int]float64
		rel    Relation
		rhs    float64
	}
	var rows []row
	for _, c := range p.cons {
		rhs := c.RHS
		for k, v := range c.Coeffs {
			rhs -= v * lower[k] // shift x = x' + lower
		}
		rows = append(rows, row{coeffs: c.Coeffs, rel: c.Rel, rhs: rhs})
	}
	for i := 0; i < p.numVars; i++ {
		if !math.IsInf(upper[i], 1) {
			rows = append(rows, row{coeffs: map[int]float64{i: 1}, rel: LE, rhs: upper[i] - lower[i]})
		}
	}

	m := len(rows)
	// Columns: structural + one slack/surplus per inequality + artificials.
	nSlack := 0
	for _, r := range rows {
		if r.rel != EQ {
			nSlack++
		}
	}
	nCols := p.numVars + nSlack + m // reserve artificial per row (not all used)
	t := &tableau{
		m: m, n: nCols,
		a:       make([][]float64, m),
		cost:    make([]float64, nCols),
		basis:   make([]int, m),
		shift:   lower,
		artBase: p.numVars + nSlack,
	}
	for i := range t.a {
		t.a[i] = make([]float64, nCols+1)
	}
	slack := p.numVars
	for ri, r := range rows {
		rhs := r.rhs
		sign := 1.0
		if rhs < 0 {
			sign = -1
			rhs = -rhs
		}
		for k, v := range r.coeffs {
			t.a[ri][k] = sign * v
		}
		t.a[ri][nCols] = rhs
		rel := r.rel
		if sign < 0 {
			switch rel {
			case LE:
				rel = GE
			case GE:
				rel = LE
			}
		}
		switch rel {
		case LE:
			t.a[ri][slack] = 1
			t.basis[ri] = slack
			slack++
		case GE:
			t.a[ri][slack] = -1
			slack++
			art := t.artBase + t.nArt
			t.nArt++
			t.a[ri][art] = 1
			t.basis[ri] = art
		case EQ:
			art := t.artBase + t.nArt
			t.nArt++
			t.a[ri][art] = 1
			t.basis[ri] = art
		}
	}
	for i := 0; i < p.numVars; i++ {
		t.cost[i] = p.objective[i]
	}
	return t, nil
}

// solve runs phase 1 (drive artificials out) then phase 2.
func (t *tableau) solve(p *Problem) (*Solution, error) {
	if t.nArt > 0 {
		phase1 := make([]float64, t.n)
		for i := 0; i < t.nArt; i++ {
			phase1[t.artBase+i] = 1
		}
		if err := t.optimize(phase1, t.n); err != nil {
			if errors.Is(err, ErrUnbounded) {
				return nil, ErrInfeasible // phase 1 is never unbounded; defensive
			}
			return nil, err
		}
		// Feasible iff all artificials are zero.
		for ri, b := range t.basis {
			if b >= t.artBase && t.a[ri][t.n] > 1e-7 {
				return nil, ErrInfeasible
			}
		}
		// Drive degenerate artificials out of the basis: an artificial
		// left basic at zero would otherwise drift positive during
		// phase-2 pivots and silently violate its equality constraint.
		// Rows with no non-artificial coefficient are redundant
		// (linearly dependent) and inert: every future pivot multiplier
		// against them is zero, so they can keep their artificial.
		for ri, b := range t.basis {
			if b < t.artBase {
				continue
			}
			for j := 0; j < t.artBase; j++ {
				if math.Abs(t.a[ri][j]) > pivotEps {
					t.pivot(ri, j)
					break
				}
			}
		}
	}
	if err := t.optimize(t.cost, t.artBase); err != nil {
		return nil, err
	}
	x := make([]float64, p.numVars)
	for ri, b := range t.basis {
		if b < p.numVars {
			x[b] = t.a[ri][t.n]
		}
	}
	obj := 0.0
	for i := range x {
		x[i] += t.shift[i]
		obj += p.objective[i] * x[i]
	}
	return &Solution{X: x, Objective: obj}, nil
}

// optimize runs the simplex on the given objective, allowing pivots only
// on columns < colLimit (phase 2 excludes artificial columns). Uses
// Dantzig's rule with Bland's rule fallback after a stall budget, which
// prevents cycling while staying fast on typical instances.
func (t *tableau) optimize(cost []float64, colLimit int) error {
	// Reduced costs maintained implicitly: z[j] = cost[j] - cb·B^-1·A_j.
	// With the explicit tableau, reduced cost = cost[j] - sum_i cb[i]*a[i][j].
	stall := 0
	for iter := 0; iter < iterLimit; iter++ {
		cb := make([]float64, t.m)
		for ri, b := range t.basis {
			cb[ri] = cost[b]
		}
		// Entering column.
		enter := -1
		best := -eps
		useBland := stall > 2*t.m+50
		for j := 0; j < colLimit; j++ {
			rc := cost[j]
			for ri := 0; ri < t.m; ri++ {
				if cb[ri] != 0 {
					rc -= cb[ri] * t.a[ri][j]
				}
			}
			if rc < -eps {
				if useBland {
					enter = j
					break
				}
				if rc < best {
					best = rc
					enter = j
				}
			}
		}
		if enter < 0 {
			return nil // optimal
		}
		// Ratio test.
		leave := -1
		minRatio := math.Inf(1)
		for ri := 0; ri < t.m; ri++ {
			aij := t.a[ri][enter]
			if aij > pivotEps {
				ratio := t.a[ri][t.n] / aij
				if ratio < minRatio-eps || (ratio < minRatio+eps && (leave < 0 || t.basis[ri] < t.basis[leave])) {
					minRatio = ratio
					leave = ri
				}
			}
		}
		if leave < 0 {
			return ErrUnbounded
		}
		if minRatio < eps {
			stall++
		} else {
			stall = 0
		}
		t.pivot(leave, enter)
	}
	return ErrIterLimit
}

func (t *tableau) pivot(row, col int) {
	piv := t.a[row][col]
	inv := 1 / piv
	for j := 0; j <= t.n; j++ {
		t.a[row][j] *= inv
	}
	for ri := 0; ri < t.m; ri++ {
		if ri == row {
			continue
		}
		f := t.a[ri][col]
		if f == 0 {
			continue
		}
		rowData := t.a[row]
		dst := t.a[ri]
		for j := 0; j <= t.n; j++ {
			dst[j] -= f * rowData[j]
		}
		dst[col] = 0
	}
	t.basis[row] = col
}
