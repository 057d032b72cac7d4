package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/cachehook"
	"repro/internal/relational"
	"repro/internal/wcoj"
	"repro/internal/xmldb"
	"repro/internal/xmldb/structix"
)

// enumeratePairs drives a binary atom through an executor and returns its
// tuple set as sorted strings, projected onto (attrs order as given).
func enumeratePairs(t *testing.T, a wcoj.Atom, order []string, workers int) []string {
	t.Helper()
	var tuples []relational.Tuple
	if workers == 0 {
		if _, err := wcoj.GenericJoinStream([]wcoj.Atom{a}, order, func(tu relational.Tuple) bool {
			tuples = append(tuples, tu.Clone())
			return true
		}); err != nil {
			t.Fatal(err)
		}
	} else {
		res, err := wcoj.GenericJoinParallelOpts([]wcoj.Atom{a}, order, wcoj.ParallelOpts{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		tuples = res.Tuples
	}
	out := make([]string, len(tuples))
	for i, tu := range tuples {
		out[i] = fmt.Sprint(tu)
	}
	sort.Strings(out)
	return out
}

// bruteForceAD computes the value-level A-D relation straight from the
// region encoding — the post-hoc ground truth the final validation encodes.
func bruteForceAD(doc *xmldb.Document, ancTag, descTag string, order []string) []string {
	set := make(map[string]bool)
	for _, a := range doc.NodesByTag(ancTag) {
		for _, d := range doc.NodesByTag(descTag) {
			if !doc.IsAncestor(a, d) {
				continue
			}
			av, dv := doc.Value(a), doc.Value(d)
			if order[0] == ancTag {
				set[fmt.Sprint(relational.Tuple{av, dv})] = true
			} else {
				set[fmt.Sprint(relational.Tuple{dv, av})] = true
			}
		}
	}
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestRegionADAtomMatchesOracle is the lazy-index correctness property: on
// random documents, for every tag pair, the lazy RegionADAtom — unbound,
// binding on every Open, and bound once as a run binds it — enumerates
// exactly the pairs of the materialized ADAtom oracle and of the brute-
// force (post-hoc) ancestor check, in both binding orders (ancestor
// expanded first, descendant expanded first), under the serial streaming
// executor and the morsel-parallel executor at workers 1 and 8.
func TestRegionADAtomMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	pairs := [][2]string{{"a", "b"}, {"b", "a"}, {"a", "d"}, {"c", "d"}, {"d", "c"}}
	for trial := 0; trial < 25; trial++ {
		doc, err := xmldb.RandomDocument(rng, 60+rng.Intn(60), relational.NewDict())
		if err != nil {
			t.Fatal(err)
		}
		six := structix.New(doc)
		for _, p := range pairs {
			ancTag, descTag := p[0], p[1]
			lazy := structix.NewRegionADAtom(six, ancTag, descTag)
			bound, err := lazy.Bind(cachehook.BuildControl{})
			if err != nil {
				t.Fatal(err)
			}
			oracle := NewADAtom(six, ancTag, descTag)
			for _, order := range [][]string{{ancTag, descTag}, {descTag, ancTag}} {
				want := bruteForceAD(doc, ancTag, descTag, order)
				if got := enumeratePairs(t, oracle, order, 0); !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d %s//%s order %v: oracle %d pairs, brute force %d",
						trial, ancTag, descTag, order, len(got), len(want))
				}
				for _, workers := range []int{0, 1, 8} {
					for _, a := range []*structix.RegionADAtom{lazy, &bound} {
						got := enumeratePairs(t, a, order, workers)
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("trial %d %s//%s order %v workers %d bound %v: lazy %d pairs, want %d\nlazy: %v\nwant: %v",
								trial, ancTag, descTag, order, workers, a == &bound, len(got), len(want), got, want)
						}
					}
				}
			}
		}
	}
}
