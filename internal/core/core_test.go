package core

import (
	"math"
	"math/big"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/datagen"
	"repro/internal/relational"
	"repro/internal/twig"
	"repro/internal/wcoj"
	"repro/internal/xmldb"
)

func mustQuery(t *testing.T, inst *datagen.Instance) *Query {
	t.Helper()
	q, err := NewQuery(inst.Doc, inst.Pattern, inst.Tables)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestNewQueryValidation(t *testing.T) {
	if _, err := NewQuery(nil, twig.MustParse("//a"), nil); err == nil {
		t.Error("twig without document accepted")
	}
	if _, err := NewQuery(nil, nil, nil); err == nil {
		t.Error("empty query accepted")
	}
	tb := relational.NewTable("R", relational.MustSchema("x"))
	if _, err := NewQuery(nil, nil, []*relational.Table{tb, tb}); err == nil {
		t.Error("duplicate table names accepted")
	}
	q, err := NewQuery(nil, nil, []*relational.Table{tb})
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Attrs()) != 1 || q.SharedAttrs() != nil {
		t.Error("pure relational query attrs wrong")
	}
}

// TestFigure1XJoin reproduces the paper's Figure 1 query result.
func TestFigure1XJoin(t *testing.T) {
	inst, err := datagen.Figure1()
	if err != nil {
		t.Fatal(err)
	}
	q := mustQuery(t, inst)
	res, err := XJoin(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	proj, err := res.Project([]string{"userID", "ISBN", "price"})
	if err != nil {
		t.Fatal(err)
	}
	SortResultTuples(proj)
	if len(proj.Tuples) != 2 {
		t.Fatalf("Figure 1 result has %d tuples want 2", len(proj.Tuples))
	}
	want := map[string]bool{
		"jack|978-3-16-1|30": true,
		"tom|634-3-12-2|20":  true,
	}
	for _, tu := range proj.Tuples {
		k := inst.Dict.String(tu[0]) + "|" + inst.Dict.String(tu[1]) + "|" + inst.Dict.String(tu[2])
		if !want[k] {
			t.Errorf("unexpected tuple %s", k)
		}
		delete(want, k)
	}
	if len(want) != 0 {
		t.Errorf("missing tuples: %v", want)
	}
}

func TestFigure1BaselineAgrees(t *testing.T) {
	inst, err := datagen.Figure1()
	if err != nil {
		t.Fatal(err)
	}
	q := mustQuery(t, inst)
	xr, err := XJoin(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	br, err := Baseline(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !EqualResults(xr, br) {
		t.Fatalf("XJoin %d tuples, baseline %d", len(xr.Tuples), len(br.Tuples))
	}
	if br.Stats.Q1Size != 3 || br.Stats.Q2Size != 2 {
		t.Errorf("baseline Q1=%d Q2=%d want 3, 2", br.Stats.Q1Size, br.Stats.Q2Size)
	}
}

// testOrders returns the attribute orders an order-independence check runs:
// the default (which is also document order, q.Attrs()), the reversed
// default, and two permutations of q.Attrs() drawn from rng.
func testOrders(q *Query, rng *rand.Rand) [][]string {
	rev := DefaultOrder(q)
	slices.Reverse(rev)
	orders := [][]string{DefaultOrder(q), rev}
	for range 2 {
		p := q.Attrs()
		rng.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
		orders = append(orders, p)
	}
	return orders
}

// TestXJoinEqualsBaselineRandom is the central correctness property: on
// random multi-model instances XJoin (in several attribute orders, under
// every A-D mode) and the baseline produce the same answers.
func TestXJoinEqualsBaselineRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(202))
	for trial := 0; trial < 120; trial++ {
		inst, err := datagen.RandomMultiModel(rng, datagen.RandomConfig{
			NodeBudget: 30 + rng.Intn(50),
			Tables:     rng.Intn(3),
		})
		if err != nil {
			t.Fatal(err)
		}
		q := mustQuery(t, inst)
		base, err := Baseline(q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		opts := []Options{{AD: ADPostHoc}, {AD: ADMaterialized}}
		for _, order := range testOrders(q, rng) {
			opts = append(opts, Options{Order: order})
		}
		for _, opt := range opts {
			xr, err := XJoin(q, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !EqualResults(xr, base) {
				t.Fatalf("trial %d twig %s opts %+v: XJoin %d tuples, baseline %d",
					trial, inst.Pattern, opt, len(xr.Tuples), len(base.Tuples))
			}
		}
	}
}

// TestValidationNecessary crafts a document where value-level pairwise
// consistency admits a tuple with no global witness: two a-nodes share a
// value, one has only the b child and the other only the c child.
func TestValidationNecessary(t *testing.T) {
	dict := relational.NewDict()
	doc, err := xmldb.NewBuilder(dict).
		Open("root").
		Open("a").Text("A").Leaf("b", "B1").Close().
		Open("a").Text("A").Leaf("c", "C1").Close().
		Close().
		Done()
	if err != nil {
		t.Fatal(err)
	}
	q, err := NewQuery(doc, twig.MustParse("//a[b][c]"), nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := XJoin(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) != 0 {
		t.Fatalf("got %d tuples, want 0 (no single a has both children)", len(res.Tuples))
	}
	if res.Stats.ValidationRemoved != 1 {
		t.Errorf("ValidationRemoved = %d want 1", res.Stats.ValidationRemoved)
	}
	// Without validation the spurious tuple survives — this is exactly why
	// Algorithm 1 ends with the structural filter: the join alone over the
	// query's atoms yields it as a candidate.
	order, err := q.planOrder(Options{})
	if err != nil {
		t.Fatal(err)
	}
	candidates := 0
	if _, err := wcoj.GenericJoinStream(q.atoms(ADLazy), order, func(relational.Tuple) bool {
		candidates++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if candidates != 1 {
		t.Fatalf("unvalidated join has %d tuples, want the 1 spurious", candidates)
	}
	// The baseline (node-level matching) never forms it.
	base, err := Baseline(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Tuples) != 0 {
		t.Fatalf("baseline found %d tuples", len(base.Tuples))
	}
}

// TestValidationAdversarial scales the spurious-tuple scenario: n² value
// combinations survive pairwise filtering, only the n diagonal ones have
// witnesses. XJoin must remove exactly n²-n and agree with the baseline.
func TestValidationAdversarial(t *testing.T) {
	const n = 12
	inst, err := datagen.ValidationAdversarial(n)
	if err != nil {
		t.Fatal(err)
	}
	q := mustQuery(t, inst)
	res, err := XJoin(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) != n {
		t.Fatalf("validated output = %d want %d", len(res.Tuples), n)
	}
	if res.Stats.ValidationRemoved != n*n-n {
		t.Fatalf("ValidationRemoved = %d want %d", res.Stats.ValidationRemoved, n*n-n)
	}
	base, err := Baseline(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !EqualResults(res, base) {
		t.Fatal("adversarial instance: algorithms disagree")
	}
}

// TestExample33Bounds checks the paper's Example 3.3 exactly: twig-only
// exponent 5, full-query exponent 7/2, and the weighted bound n^{7/2}.
func TestExample33Bounds(t *testing.T) {
	inst, err := datagen.Example33(4)
	if err != nil {
		t.Fatal(err)
	}
	q := mustQuery(t, inst)
	b, err := ComputeBounds(q)
	if err != nil {
		t.Fatal(err)
	}
	if b.Exponent.Cmp(big.NewRat(7, 2)) != 0 {
		t.Errorf("full exponent = %s want 7/2", b.Exponent.RatString())
	}
	if b.TwigExponent.Cmp(big.NewRat(5, 1)) != 0 {
		t.Errorf("twig exponent = %s want 5", b.TwigExponent.RatString())
	}
	if b.RelationalExponent.Cmp(big.NewRat(2, 1)) != 0 {
		t.Errorf("relational exponent = %s want 2 (cartesian of R1,R2)", b.RelationalExponent.RatString())
	}
	want := math.Pow(4, 3.5)
	if math.Abs(b.WeightedBound-want)/want > 1e-6 {
		t.Errorf("weighted bound = %v want %v", b.WeightedBound, want)
	}
}

// TestExample34Bounds checks the Figure 3 plan bounds: Q and Q1 exponent 2,
// Q2 exponent 5.
func TestExample34Bounds(t *testing.T) {
	inst, err := datagen.Example34(3)
	if err != nil {
		t.Fatal(err)
	}
	q := mustQuery(t, inst)
	b, err := ComputeBounds(q)
	if err != nil {
		t.Fatal(err)
	}
	if b.Exponent.Cmp(big.NewRat(2, 1)) != 0 {
		t.Errorf("Q exponent = %s want 2", b.Exponent.RatString())
	}
	if b.RelationalExponent.Cmp(big.NewRat(2, 1)) != 0 {
		t.Errorf("Q1 exponent = %s want 2", b.RelationalExponent.RatString())
	}
	if b.TwigExponent.Cmp(big.NewRat(5, 1)) != 0 {
		t.Errorf("Q2 exponent = %s want 5", b.TwigExponent.RatString())
	}
}

// TestLemma32Tightness runs the twig-only query on the worst-case document:
// the output must reach the n⁵ bound exactly.
func TestLemma32Tightness(t *testing.T) {
	const n = 3
	inst, err := datagen.Example34(n)
	if err != nil {
		t.Fatal(err)
	}
	q, err := NewQuery(inst.Doc, inst.Pattern, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := XJoin(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := n * n * n * n * n
	if len(res.Tuples) != want {
		t.Fatalf("twig-only output = %d want n^5 = %d", len(res.Tuples), want)
	}
	base, err := Baseline(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Tuples) != want {
		t.Fatalf("baseline twig-only output = %d want %d", len(base.Tuples), want)
	}
}

// TestExample34Workload verifies the Figure 3 separation at small scales
// n: the baseline materializes Q2 with n⁵ tuples while XJoin's peak
// intermediate stays at n, and both produce the same n answers.
func TestExample34Workload(t *testing.T) {
	for _, n := range []int{2, 4} {
		inst, err := datagen.Example34(n)
		if err != nil {
			t.Fatal(err)
		}
		q := mustQuery(t, inst)

		base, err := Baseline(q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if base.Stats.Q2Size != n*n*n*n*n {
			t.Errorf("n=%d: baseline Q2 = %d want n^5 = %d", n, base.Stats.Q2Size, n*n*n*n*n)
		}
		if base.Stats.Q1Size != n*n {
			t.Errorf("n=%d: baseline Q1 = %d want n^2 = %d", n, base.Stats.Q1Size, n*n)
		}
		if base.Stats.Output != n {
			t.Errorf("n=%d: baseline output = %d want %d", n, base.Stats.Output, n)
		}

		xr, err := XJoin(q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !EqualResults(xr, base) {
			t.Fatalf("n=%d: XJoin %d tuples, baseline %d", n, len(xr.Tuples), len(base.Tuples))
		}
		if xr.Stats.PeakIntermediate > n*n {
			t.Errorf("n=%d: XJoin peak = %d exceeds the n^2 = %d bound", n, xr.Stats.PeakIntermediate, n*n)
		}
		if base.Stats.PeakIntermediate < xr.Stats.PeakIntermediate*10 {
			t.Errorf("n=%d: expected a large separation; baseline peak %d vs XJoin %d",
				n, base.Stats.PeakIntermediate, xr.Stats.PeakIntermediate)
		}
	}
}

// TestLemma31Property: the output never exceeds the weighted AGM bound of
// the transformed hypergraph.
func TestLemma31Property(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 60; trial++ {
		inst, err := datagen.RandomMultiModel(rng, datagen.RandomConfig{Tables: rng.Intn(3)})
		if err != nil {
			t.Fatal(err)
		}
		q := mustQuery(t, inst)
		b, err := ComputeBounds(q)
		if err != nil {
			t.Fatal(err)
		}
		res, err := XJoin(q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if float64(len(res.Tuples)) > b.WeightedBound*(1+1e-9)+1e-9 {
			t.Fatalf("trial %d twig %s: output %d exceeds bound %v",
				trial, inst.Pattern, len(res.Tuples), b.WeightedBound)
		}
	}
}

// TestLemma35Property: every XJoin stage stays within the executor
// hypergraph's weighted AGM bound.
func TestLemma35Property(t *testing.T) {
	rng := rand.New(rand.NewSource(88))
	for trial := 0; trial < 60; trial++ {
		inst, err := datagen.RandomMultiModel(rng, datagen.RandomConfig{Tables: rng.Intn(3)})
		if err != nil {
			t.Fatal(err)
		}
		q := mustQuery(t, inst)
		res, err := XJoin(q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		sb, err := StageBounds(q, res.Stats.Order)
		if err != nil {
			t.Fatal(err)
		}
		for i, s := range res.Stats.StageSizes {
			if float64(s) > sb[i]*(1+1e-9)+1e-9 {
				t.Fatalf("trial %d twig %s stage %d: size %d exceeds stage bound %v",
					trial, inst.Pattern, i, s, sb[i])
			}
		}
	}
}

func TestOrderStrategiesAgree(t *testing.T) {
	inst, err := datagen.Example34(3)
	if err != nil {
		t.Fatal(err)
	}
	q := mustQuery(t, inst)
	ref, err := XJoin(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, order := range testOrders(q, rand.New(rand.NewSource(3))) {
		r, err := XJoin(q, Options{Order: order})
		if err != nil {
			t.Fatal(err)
		}
		if !EqualResults(ref, r) {
			t.Errorf("order %v disagrees", order)
		}
	}
	// Explicit order must cover all attributes.
	if _, err := XJoin(q, Options{Order: []string{"A", "B"}}); err == nil {
		t.Error("short explicit order accepted")
	}
	if _, err := XJoin(q, Options{Order: []string{"A", "B", "C", "D", "E", "F", "G", "Z"}}); err == nil {
		t.Error("wrong explicit order accepted")
	}
}

func TestResultProjectAndTable(t *testing.T) {
	inst, err := datagen.Figure1()
	if err != nil {
		t.Fatal(err)
	}
	q := mustQuery(t, inst)
	res, err := XJoin(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.Project([]string{"nope"}); err == nil {
		t.Error("projection onto unknown attribute accepted")
	}
	tb, err := res.Table("out")
	if err != nil {
		t.Fatal(err)
	}
	if tb.Len() != len(res.Tuples) {
		t.Errorf("table rows %d vs tuples %d", tb.Len(), len(res.Tuples))
	}
	// Projection dedups: userID alone has 2 distinct values.
	pr, err := res.Project([]string{"userID"})
	if err != nil {
		t.Fatal(err)
	}
	if len(pr.Tuples) != 2 {
		t.Errorf("distinct userIDs = %d want 2", len(pr.Tuples))
	}
}

func TestPureRelationalXJoin(t *testing.T) {
	// Triangle query through the multi-model API, no XML involved.
	mk := func(name, x, y string) *relational.Table {
		tb := relational.NewTable(name, relational.MustSchema(x, y))
		tb.MustAppend(1, 2)
		tb.MustAppend(1, 3)
		return tb
	}
	r := mk("R", "a", "b")
	s := mk("S", "b", "c")
	u := mk("T", "a", "c")
	q, err := NewQuery(nil, nil, []*relational.Table{r, s, u})
	if err != nil {
		t.Fatal(err)
	}
	res, err := XJoin(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	base, err := Baseline(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !EqualResults(res, base) {
		t.Fatalf("pure relational: XJoin %d vs baseline %d", len(res.Tuples), len(base.Tuples))
	}
}

func TestXJoinPlusReducesIntermediates(t *testing.T) {
	// On the worst-case twig document, a twig-only query with partial A-D
	// validation (lazy or materialized) must not increase any stage size
	// over the paper's plain Algorithm 1, and all three modes must agree on
	// the answers.
	inst, err := datagen.Example34(4)
	if err != nil {
		t.Fatal(err)
	}
	q, err := NewQuery(inst.Doc, inst.Pattern, nil)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := XJoin(q, Options{AD: ADPostHoc})
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []ADMode{ADLazy, ADMaterialized} {
		plus, err := XJoin(q, Options{AD: mode})
		if err != nil {
			t.Fatal(err)
		}
		if !EqualResults(plain, plus) {
			t.Fatalf("AD mode %v changed the answers", mode)
		}
		if plus.Stats.PeakIntermediate > plain.Stats.PeakIntermediate {
			t.Errorf("AD mode %v peak %d > post-hoc peak %d",
				mode, plus.Stats.PeakIntermediate, plain.Stats.PeakIntermediate)
		}
	}
	// Label semantics: every A-D mode is labelled "xjoin", and ADMode names
	// the mode.
	def, err := XJoin(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if def.Stats.Algorithm != "xjoin" || def.Stats.ADMode != "lazy" {
		t.Errorf("default run labeled %q/%q, want xjoin/lazy", def.Stats.Algorithm, def.Stats.ADMode)
	}
	if def.Stats.StructIndexes == 0 || def.Stats.StructIndexBytes == 0 {
		t.Error("default run reports no structural index state")
	}
	mat, err := XJoin(q, Options{AD: ADMaterialized})
	if err != nil {
		t.Fatal(err)
	}
	if mat.Stats.Algorithm != "xjoin" || mat.Stats.ADMode != "materialized" {
		t.Errorf("materialized run labeled %q/%q", mat.Stats.Algorithm, mat.Stats.ADMode)
	}
	if mat.Stats.StructIndexes != 0 {
		t.Error("materialized run should hold no structural index")
	}
	if plain.Stats.Algorithm != "xjoin" || plain.Stats.ADMode != "posthoc" {
		t.Errorf("post-hoc run labeled %q/%q", plain.Stats.Algorithm, plain.Stats.ADMode)
	}
}

// TestValueFilterQueries: value predicates ("selection pushdown") must
// restrict both engines identically, across models.
func TestValueFilterQueries(t *testing.T) {
	inst, err := datagen.Figure1()
	if err != nil {
		t.Fatal(err)
	}
	pattern := twig.MustParse(`/invoices/orderLine[orderID="10963"][ISBN]/price`)
	q, err := NewQuery(inst.Doc, pattern, inst.Tables)
	if err != nil {
		t.Fatal(err)
	}
	xr, err := XJoin(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(xr.Tuples) != 1 {
		t.Fatalf("filtered XJoin rows = %d want 1", len(xr.Tuples))
	}
	br, err := Baseline(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !EqualResults(xr, br) {
		t.Fatal("filtered query: algorithms disagree")
	}
	// The filter value must appear in the joined row (userID jack).
	proj, err := xr.Project([]string{"userID"})
	if err != nil {
		t.Fatal(err)
	}
	if len(proj.Tuples) != 1 || inst.Dict.String(proj.Tuples[0][0]) != "jack" {
		t.Fatalf("filtered user = %v", proj.Tuples)
	}
	// Absent filter value: empty result from both engines.
	p2 := twig.MustParse(`/invoices/orderLine[orderID="0"]/price`)
	q2, err := NewQuery(inst.Doc, p2, inst.Tables)
	if err != nil {
		t.Fatal(err)
	}
	xr2, err := XJoin(q2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	br2, err := Baseline(q2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(xr2.Tuples) != 0 || len(br2.Tuples) != 0 {
		t.Fatalf("absent filter matched %d/%d rows", len(xr2.Tuples), len(br2.Tuples))
	}
}

// TestValueFilterTightensBounds: a filtered tag atom has cardinality <= 1,
// which the weighted executor bound must exploit.
func TestValueFilterTightensBounds(t *testing.T) {
	inst, err := datagen.Example34(6)
	if err != nil {
		t.Fatal(err)
	}
	free, err := NewQuery(inst.Doc, twig.MustParse(datagen.PaperTwig), nil)
	if err != nil {
		t.Fatal(err)
	}
	filtered, err := NewQuery(inst.Doc,
		twig.MustParse(`//A[B="b0"][D][.//C[E][.//F[H][.//G]]]`), nil)
	if err != nil {
		t.Fatal(err)
	}
	bf, err := ComputeBounds(free)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := ComputeBounds(filtered)
	if err != nil {
		t.Fatal(err)
	}
	if bb.ExecBound >= bf.ExecBound {
		t.Errorf("filtered exec bound %v not below free bound %v", bb.ExecBound, bf.ExecBound)
	}
	rf, err := XJoin(filtered, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rf.Tuples) != 6*6*6*6 {
		t.Errorf("filtered twig output = %d want n^4 = %d", len(rf.Tuples), 6*6*6*6)
	}
}
