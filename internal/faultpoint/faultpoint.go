// Package faultpoint is the engine's fault-injection registry: named
// points on error-handling paths (lazy index builds, Atom.Open, morsel
// dequeue/split, the Rows channel send) call Inject, and a test-installed
// plan decides whether that call panics, returns an error, or sleeps —
// the driver behind the chaos suite that proves panic isolation,
// cancellable builds and leak-free teardown under -race.
//
// The registry is build-tag-free and disabled by default: with no plan
// installed, Inject is a single atomic pointer load returning nil, cheap
// enough to leave on every production path. Plans are installed by tests
// only (Install/Reset); the package keeps no other global state.
//
// Rules address points by name. A rule can skip its first hits (to fire
// mid-run rather than on first touch) and retire after a number of
// firings (so a test can panic exactly once and then observe recovery).
// Hit counts are recorded per point whether or not a rule fires, so tests
// can assert a point was actually reached.
package faultpoint

import (
	"sync"
	"sync/atomic"
	"time"
)

// Rule is one injection directive for a named fault point. Exactly one of
// Panic and Err should be set (Sleep may accompany either, or stand
// alone); a rule with neither only delays.
type Rule struct {
	// Name is the fault point this rule fires at.
	Name string
	// Skip is how many hits pass through unharmed before the rule fires.
	Skip int
	// Times bounds how often the rule fires; 0 means every hit after Skip.
	Times int
	// Panic, when non-nil, makes Inject panic with this value.
	Panic any
	// Err, when non-nil, is returned by Inject.
	Err error
	// Sleep delays Inject before it acts (or returns), for widening race
	// windows in concurrency tests.
	Sleep time.Duration
}

// state is the installed plan: rules by point name plus cumulative hit
// counts. A nil pointer (the default) disables everything.
type state struct {
	mu    sync.Mutex
	rules map[string][]*ruleState
	hits  map[string]int
}

type ruleState struct {
	rule  Rule
	seen  int // hits observed by this rule
	fired int // times it acted
}

var plan atomic.Pointer[state]

// Install replaces the active plan with the given rules. Tests must pair
// it with Reset (typically via defer or t.Cleanup).
func Install(rules ...Rule) {
	s := &state{rules: make(map[string][]*ruleState), hits: make(map[string]int)}
	for _, r := range rules {
		s.rules[r.Name] = append(s.rules[r.Name], &ruleState{rule: r})
	}
	plan.Store(s)
}

// Reset removes the active plan; every Inject returns to the nil fast
// path.
func Reset() { plan.Store(nil) }

// Hits reports how many times the named point was reached since the
// current plan was installed (0 with no plan installed).
func Hits(name string) int {
	s := plan.Load()
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hits[name]
}

// Inject is the hook engine code places on a fault path. With no plan
// installed it returns nil after one atomic load. With a plan, the
// point's hit count advances and the first matching live rule acts:
// sleeping, then panicking with Rule.Panic or returning Rule.Err. Callers
// on paths without an error return convert a non-nil error themselves
// (typically by panicking, so the surrounding recovery is exercised).
func Inject(name string) error {
	s := plan.Load()
	if s == nil {
		return nil
	}
	var act *Rule
	s.mu.Lock()
	s.hits[name]++
	for _, rs := range s.rules[name] {
		rs.seen++
		if rs.seen <= rs.rule.Skip {
			continue
		}
		if rs.rule.Times > 0 && rs.fired >= rs.rule.Times {
			continue
		}
		rs.fired++
		r := rs.rule
		act = &r
		break
	}
	s.mu.Unlock()
	if act == nil {
		return nil
	}
	if act.Sleep > 0 {
		time.Sleep(act.Sleep)
	}
	if act.Panic != nil {
		panic(act.Panic)
	}
	return act.Err
}
