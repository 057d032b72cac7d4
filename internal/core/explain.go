package core

import (
	"fmt"
	"strings"

	"repro/internal/cachehook"
	"repro/internal/wcoj"
)

// Explain renders the plan XJoin would execute for q under opts: the plan
// tree (per-subplan strategy with estimated bounds — binary hash-join
// chains for materialized subplans, the generic join for the rest), the
// atom set (physical tables and virtual XML relations with their
// cardinalities), the chosen attribute priority PA, the per-stage
// worst-case bounds of Lemma 3.5, and the query's exponents. It runs the
// planner and the bound LPs but neither the join nor any materialization;
// the sizes and the plan build under the run's build control, unadmitted
// as in Prepare.
func Explain(q *Query, opts Options) (string, error) {
	ctl := q.buildControl(opts)
	ctl.Admit = nil
	atoms := q.atoms(opts.AD)
	sizes, err := atomSizes(atoms, ctl)
	if err != nil {
		return "", err
	}
	order, err := q.planOrder(opts)
	if err != nil {
		return "", err
	}
	bounds, err := ComputeBounds(q)
	if err != nil {
		return "", err
	}
	stage, err := StageBounds(q, order)
	if err != nil {
		return "", err
	}

	var sb strings.Builder
	algo := opts.algoLabel()
	if label := q.adModeLabel(opts); label != "" {
		algo += " (A-D: " + label + ")"
	}
	fmt.Fprintf(&sb, "plan: %s\n", algo)
	if err := explainPlanTree(&sb, q, opts, ctl, atoms, bounds); err != nil {
		return "", err
	}
	fmt.Fprintf(&sb, "atoms (%d):\n", len(atoms))
	for _, a := range atoms {
		fmt.Fprintf(&sb, "  %-24s (%s)  |%d|\n", a.Name(), strings.Join(a.Attrs(), ", "), sizes[a.Name()])
	}
	fmt.Fprintf(&sb, "attribute priority PA: %s\n", strings.Join(order, " -> "))
	sb.WriteString("per-stage worst-case bounds (Lemma 3.5):\n")
	for i, a := range order {
		fmt.Fprintf(&sb, "  after %-12s <= %.6g\n", a, stage[i])
	}
	fmt.Fprintf(&sb, "exponents: full rho* = %s", bounds.Exponent.RatString())
	if bounds.RelationalExponent != nil {
		fmt.Fprintf(&sb, ", Q1 = %s", bounds.RelationalExponent.RatString())
	}
	if bounds.TwigExponent != nil {
		fmt.Fprintf(&sb, ", Q2 = %s", bounds.TwigExponent.RatString())
	}
	fmt.Fprintf(&sb, "\nweighted output bound: %.6g\n", bounds.WeightedBound)
	return sb.String(), nil
}

// explainPlanTree renders the hybrid planner's decomposition: the
// top-level generic join, then one line per subplan with its strategy,
// members, inputs, cost estimate and worst-case bound. Pure-WCOJ runs get
// the same tree shape with every atom under the single generic-join node,
// so EXPLAIN's structure is stable across plan modes.
func explainPlanTree(sb *strings.Builder, q *Query, opts Options, ctl cachehook.BuildControl, atoms []wcoj.Atom, bounds *Bounds) error {
	sb.WriteString("plan tree:\n")
	if opts.Plan == PlanWCOJ {
		fmt.Fprintf(sb, "  generic join: %d atoms, bound <= %.6g\n", len(atoms), bounds.ExecBound)
		fmt.Fprintf(sb, "    - wcoj [full query]: %s\n", atomNameList(atoms))
		return nil
	}
	plan, err := q.hybridPlan(opts.AD, opts.Plan, ctl)
	if err != nil {
		return err
	}
	nbin := plan.BinaryCount()
	top := len(atoms)
	for i := range plan.Subplans {
		if plan.Subplans[i].Strategy == "binary" {
			top -= len(plan.Subplans[i].indices)
		}
	}
	fmt.Fprintf(sb, "  generic join: %d atoms + %d materialized subplans, bound <= %.6g\n",
		top, nbin, bounds.ExecBound)
	for i := range plan.Subplans {
		sp := &plan.Subplans[i]
		switch sp.Strategy {
		case "binary":
			fmt.Fprintf(sb, "    - binary [%s] %s: %s  inputs %d, est intermediates %.6g, bound <= %.6g\n",
				sp.Reason, sp.Name, strings.Join(sp.Atoms, " -> "), sp.Inputs, sp.Est, sp.Bound)
		default:
			fmt.Fprintf(sb, "    - wcoj [%s]: %s  bound <= %.6g\n",
				sp.Reason, strings.Join(sp.Atoms, " "), sp.Bound)
		}
	}
	return nil
}

func atomNameList(atoms []wcoj.Atom) string {
	names := make([]string, len(atoms))
	for i, a := range atoms {
		names[i] = a.Name()
	}
	return strings.Join(names, " ")
}
