package lp

import (
	"fmt"
	"sort"
)

// Sense selects the optimization direction of a Model.
type Sense int

const (
	Minimize Sense = iota
	Maximize
)

// Op is a constraint comparison operator.
type Op int

const (
	LE Op = iota // Σ terms <= rhs
	GE           // Σ terms >= rhs
	EQ           // Σ terms == rhs
)

func (o Op) String() string {
	switch o {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "=="
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// VarID identifies a model variable.
type VarID int

// Term is one coefficient*variable summand of a constraint.
type Term[T any] struct {
	Var   VarID
	Coeff T
}

type constraint[T any] struct {
	name  string
	terms []Term[T]
	op    Op
	rhs   T
}

// Model is a builder for linear programs over nonnegative variables.
// All variables carry the implicit bound x >= 0, which is the only bound
// the fractional-cover programs of the paper need.
type Model[T any] struct {
	ar     Arith[T]
	sense  Sense
	names  []string
	obj    map[VarID]T
	constr []constraint[T]
}

// NewModel returns an empty model optimizing in the given sense.
func NewModel[T any](ar Arith[T], sense Sense) *Model[T] {
	return &Model[T]{ar: ar, sense: sense, obj: make(map[VarID]T)}
}

// AddVar declares a nonnegative variable and returns its identifier.
func (m *Model[T]) AddVar(name string) VarID {
	m.names = append(m.names, name)
	return VarID(len(m.names) - 1)
}

// SetObjective sets the objective coefficient of v (default zero).
func (m *Model[T]) SetObjective(v VarID, coeff T) { m.obj[v] = coeff }

// AddConstraint appends the constraint Σ terms op rhs.
func (m *Model[T]) AddConstraint(name string, terms []Term[T], op Op, rhs T) error {
	for _, t := range terms {
		if int(t.Var) < 0 || int(t.Var) >= len(m.names) {
			return fmt.Errorf("lp: constraint %q references unknown variable %d", name, t.Var)
		}
	}
	m.constr = append(m.constr, constraint[T]{name: name, terms: append([]Term[T](nil), terms...), op: op, rhs: rhs})
	return nil
}

// Result is a solved model: variable values by VarID and the objective in
// the model's own sense.
type Result[T any] struct {
	Status    Status
	Objective T
	Values    []T
}

// Value returns the optimal value of v.
func (r *Result[T]) Value(v VarID) T { return r.Values[v] }

// Solve converts the model to standard form (slack and surplus variables
// for inequalities, objective negation for maximization) and runs the
// two-phase simplex.
func (m *Model[T]) Solve() (*Result[T], error) {
	ar := m.ar
	nStruct := len(m.names)
	nSlack := 0
	for _, c := range m.constr {
		if c.op != EQ {
			nSlack++
		}
	}
	n := nStruct + nSlack
	rows := len(m.constr)
	A := make([][]T, rows)
	b := make([]T, rows)
	slack := nStruct
	for i, c := range m.constr {
		row := make([]T, n)
		for j := range row {
			row[j] = ar.Zero()
		}
		for _, t := range c.terms {
			row[t.Var] = ar.Add(row[t.Var], t.Coeff)
		}
		switch c.op {
		case LE:
			row[slack] = ar.One()
			slack++
		case GE:
			row[slack] = ar.Neg(ar.One())
			slack++
		}
		A[i] = row
		b[i] = c.rhs
	}

	cvec := make([]T, n)
	for j := range cvec {
		cvec[j] = ar.Zero()
	}
	for v, coeff := range m.obj {
		if m.sense == Maximize {
			cvec[v] = ar.Neg(coeff)
		} else {
			cvec[v] = coeff
		}
	}

	sol, err := SolveStandard(ar, A, b, cvec)
	if err != nil {
		return nil, err
	}
	res := &Result[T]{Status: sol.Status}
	if sol.Status != Optimal {
		return res, nil
	}
	res.Values = sol.X[:nStruct]
	if m.sense == Maximize {
		res.Objective = ar.Neg(sol.Objective)
	} else {
		res.Objective = sol.Objective
	}
	return res, nil
}

// String renders the model for diagnostics, with variables in declaration
// order and constraints in insertion order.
func (m *Model[T]) String() string {
	ar := m.ar
	dir := "min"
	if m.sense == Maximize {
		dir = "max"
	}
	s := dir + " "
	ids := make([]int, 0, len(m.obj))
	for v := range m.obj {
		ids = append(ids, int(v))
	}
	sort.Ints(ids)
	for k, id := range ids {
		if k > 0 {
			s += " + "
		}
		s += ar.String(m.obj[VarID(id)]) + "*" + m.names[id]
	}
	for _, c := range m.constr {
		s += "\n  "
		for k, t := range c.terms {
			if k > 0 {
				s += " + "
			}
			s += ar.String(t.Coeff) + "*" + m.names[t.Var]
		}
		s += " " + c.op.String() + " " + ar.String(c.rhs)
		if c.name != "" {
			s += "   [" + c.name + "]"
		}
	}
	return s
}
