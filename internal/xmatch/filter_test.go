package xmatch

import (
	"math/rand"
	"testing"

	"repro/internal/twig"
)

// filteredTwigs exercises value predicates; values 0..5 are what randomDoc
// assigns.
var filteredTwigs = []string{
	`//a="1"`,
	`//a[b="2"]`,
	`//a="0"/b`,
	`//a[b="1"][c="2"]`,
	`//a[.//b="3"]/c`,
	`//a="1"//b="1"`,
	`//a[b="9"]`, // value absent from the domain
}

func TestMatchersAgreeOnFilteredTwigs(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 25; trial++ {
		doc := randomDoc(t, rng, 60+rng.Intn(60))
		for _, src := range filteredTwigs {
			p := twig.MustParse(src)
			want := NaiveMatch(doc, p)
			ts, _ := TwigStackMatch(doc, p)
			if !EqualMatchSets(ts, want) {
				t.Fatalf("trial %d %s: twigstack %d vs oracle %d", trial, src, len(ts), len(want))
			}
		}
	}
}

func TestFilterSelectsExactly(t *testing.T) {
	doc := fig1Doc(t)
	ms := NaiveMatch(doc, twig.MustParse(`//orderLine[orderID="10963"]/price`))
	if len(ms) != 1 {
		t.Fatalf("filtered matches = %d want 1", len(ms))
	}
	price := ms[0][2]
	if got := doc.Dict().String(doc.Value(price)); got != "30" {
		t.Errorf("price = %q want 30", got)
	}
	// A filter naming an unseen value matches nothing.
	if got := NaiveMatch(doc, twig.MustParse(`//orderLine[orderID="99999"]/price`)); len(got) != 0 {
		t.Errorf("absent value matched %d", len(got))
	}
}
