package wcoj

import (
	"testing"

	"repro/internal/cachehook"
	"repro/internal/relational"
)

// dropObserver is a cache manager that accounts nothing and remembers the
// drop callbacks it was handed, so a test can evict on demand.
type dropObserver struct{ drops []func() }

type nopTicket struct{}

func (nopTicket) Touch() {}

func (o *dropObserver) Built(_ string, _ int64, drop func()) cachehook.Ticket {
	o.drops = append(o.drops, drop)
	return nopTicket{}
}

// TestTableAtomIndexLifecycle exercises the observability surface for the
// lazily built sorted-column indexes: the first Open builds a shape,
// IndexInfo reports it, a repeated Open reuses it, an eviction releases it,
// and the atom keeps answering correctly after the drop.
func TestTableAtomIndexLifecycle(t *testing.T) {
	tb := table(t, "R", []string{"a", "b"},
		[]int64{1, 10}, []int64{1, 20}, []int64{2, 10}, []int64{3, 30})
	a := NewTableAtom(tb)
	obs := &dropObserver{}
	a.SetCacheObserver(obs)

	if info := a.IndexInfo(); info.Indexes != 0 || info.ApproxBytes != 0 {
		t.Fatalf("fresh atom has indexes: %+v", info)
	}

	read := func() []relational.Value {
		t.Helper()
		it, err := a.Open("b", bindingOf(t, map[string]relational.Value{"a": 1}))
		if err != nil {
			t.Fatal(err)
		}
		defer it.Close()
		var got []relational.Value
		for !it.AtEnd() {
			got = append(got, it.Key())
			it.Next()
		}
		return got
	}
	if got := read(); len(got) != 2 || got[0] != 10 || got[1] != 20 {
		t.Fatalf("b|a=1 = %v", got)
	}
	info := a.IndexInfo()
	if info.Indexes != 1 {
		t.Fatalf("after first open: %+v", info)
	}
	if info.Groups != 3 { // one group per distinct a-value
		t.Errorf("groups = %d want 3", info.Groups)
	}
	if info.ApproxBytes <= 0 {
		t.Errorf("approx bytes = %d", info.ApproxBytes)
	}

	// A second query on the same shape reuses it (count stays 1).
	if got := read(); len(got) != 2 || got[0] != 10 || got[1] != 20 {
		t.Fatalf("b|a=1 = %v", got)
	}
	if got := a.IndexInfo().Indexes; got != 1 || len(obs.drops) != 1 {
		t.Errorf("open built a redundant index: %d indexes, %d builds", got, len(obs.drops))
	}

	obs.drops[0]()
	if info := a.IndexInfo(); info.Indexes != 0 || info.ApproxBytes != 0 {
		t.Fatalf("after drop: %+v", info)
	}
	if got := read(); len(got) != 2 || got[0] != 10 || got[1] != 20 {
		t.Fatalf("post-drop rebuild = %v", got)
	}
	if got := a.IndexInfo().Indexes; got != 1 {
		t.Errorf("post-drop query did not rebuild: %d", got)
	}
}

// bindingOf adapts a map to the Binding interface for tests.
type mapBinding map[string]relational.Value

func (m mapBinding) Get(attr string) (relational.Value, bool) {
	v, ok := m[attr]
	return v, ok
}

func bindingOf(t *testing.T, m map[string]relational.Value) Binding {
	t.Helper()
	return mapBinding(m)
}
