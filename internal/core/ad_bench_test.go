package core

// The A-D access-path benchmarks: lazy region-interval A-D atoms (structix) against
// the materialized value-level oracle and the paper's post-hoc validation,
// on the two adversarial document shapes:
//
//   - DeepChain(2000): a depth-2000 a/b chain whose //a//b value relation
//     has Θ(depth²) pairs — materializing it is quadratic in time and
//     memory, the lazy index stays O(depth);
//   - Bushy(2000): 2000 independent shallow subtrees with exactly one
//     //a//b pair each — the no-regression control where both modes are
//     linear.
//
// Each benchmark measures XJoin build+run end to end (the A-D access
// path is built inside the measured call for the materialized mode; the
// lazy index lives on the query and amortizes, which is exactly its
// deployment story). The *Limit1 variants isolate build cost: a run that
// stops at the first validated answer pays almost nothing but the index.

import (
	"testing"

	"repro/internal/datagen"
)

func benchAD(b *testing.B, inst *datagen.Instance, opts Options) {
	q, err := NewQuery(inst.Doc, inst.Pattern, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := XJoin(q, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func deepChain(b *testing.B) *datagen.Instance {
	b.Helper()
	inst, err := datagen.DeepChain(2000)
	if err != nil {
		b.Fatal(err)
	}
	return inst
}

func bushy(b *testing.B) *datagen.Instance {
	b.Helper()
	inst, err := datagen.Bushy(2000)
	if err != nil {
		b.Fatal(err)
	}
	return inst
}

func BenchmarkADDeepChainLazy(b *testing.B) { benchAD(b, deepChain(b), Options{AD: ADLazy}) }

func BenchmarkADDeepChainMaterialized(b *testing.B) {
	benchAD(b, deepChain(b), Options{AD: ADMaterialized})
}

func BenchmarkADDeepChainPostHoc(b *testing.B) { benchAD(b, deepChain(b), Options{AD: ADPostHoc}) }

func BenchmarkADDeepChainLazyLimit1(b *testing.B) {
	benchAD(b, deepChain(b), Options{AD: ADLazy, Limit: 1})
}

func BenchmarkADDeepChainMaterializedLimit1(b *testing.B) {
	benchAD(b, deepChain(b), Options{AD: ADMaterialized, Limit: 1})
}

func BenchmarkADBushyLazy(b *testing.B) { benchAD(b, bushy(b), Options{AD: ADLazy}) }

func BenchmarkADBushyMaterialized(b *testing.B) { benchAD(b, bushy(b), Options{AD: ADMaterialized}) }

func BenchmarkADBushyPostHoc(b *testing.B) { benchAD(b, bushy(b), Options{AD: ADPostHoc}) }

// BenchmarkStructixBuildDeepChain isolates the cold index build the lazy
// path pays once per document: both tag runs plus both A-D projections.
func BenchmarkStructixBuildDeepChain(b *testing.B) {
	inst := deepChain(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q, err := NewQuery(inst.Doc, inst.Pattern, nil)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := XJoin(q, Options{AD: ADLazy, Limit: 1}); err != nil {
			b.Fatal(err)
		}
	}
}
