package cachehook

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// fakeManager is an Observer and Admitter that accounts nothing, remembers
// every registration, and can run a hook from inside Built — where a real
// manager evicts.
type fakeManager struct {
	mu      sync.Mutex
	built   []*fakeTicket
	refuse  bool
	onBuilt func(label string)
}

type fakeTicket struct {
	label   string
	bytes   int64
	drop    func()
	touches atomic.Int64
}

func (t *fakeTicket) Touch() { t.touches.Add(1) }

func (m *fakeManager) Built(label string, bytes int64, drop func()) Ticket {
	t := &fakeTicket{label: label, bytes: bytes, drop: drop}
	m.mu.Lock()
	m.built = append(m.built, t)
	hook := m.onBuilt
	m.mu.Unlock()
	if hook != nil {
		hook(label)
	}
	return t
}

func (m *fakeManager) Admit(label string, bytes int64) error {
	if m.refuse {
		return fmt.Errorf("%s (~%dB): %w", label, bytes, ErrBudgetExceeded)
	}
	return nil
}

func (m *fakeManager) tickets() []*fakeTicket {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]*fakeTicket(nil), m.built...)
}

// counted is a Spec whose build returns a fresh *int holding v and counts
// its runs; fail, when non-nil, is consulted first.
func counted(builds *atomic.Int64, v int, fail func(check func() bool) error) Spec[*int] {
	return Spec[*int]{
		Label:    func() string { return fmt.Sprintf("slot[%d]", v) },
		Estimate: func() int64 { return 64 },
		Build: func(check func() bool) (*int, error) {
			builds.Add(1)
			if fail != nil {
				if err := fail(check); err != nil {
					return nil, err
				}
			}
			out := v
			return &out, nil
		},
		Bytes: func(*int) int64 { return 8 },
	}
}

// TestSlotsOneBuildPerKey: goroutines racing one key run one build and all
// see its value; a different key builds separately.
func TestSlotsOneBuildPerKey(t *testing.T) {
	mgr := &fakeManager{}
	s := &Slots[string, *int]{Observer: mgr}
	var builds atomic.Int64
	const n = 16
	got := make([]*int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := s.Get("k", BuildControl{}, counted(&builds, 7, nil))
			if err != nil {
				t.Error(err)
			}
			got[i] = v
		}()
	}
	wg.Wait()
	if builds.Load() != 1 || len(mgr.tickets()) != 1 {
		t.Fatalf("%d builds, %d registrations for one key, want 1 and 1", builds.Load(), len(mgr.tickets()))
	}
	for i, v := range got {
		if v != got[0] || *v != 7 {
			t.Fatalf("caller %d saw a different value", i)
		}
	}
	if _, err := s.Get("other", BuildControl{}, counted(&builds, 8, nil)); err != nil || builds.Load() != 2 {
		t.Fatalf("second key: err %v, %d builds", err, builds.Load())
	}
	var visited int
	var total int64
	s.Each(func(_ string, _ *int, bytes int64) { visited++; total += bytes })
	if visited != 2 || total != 16 {
		t.Fatalf("Each visited %d built values holding %d bytes, want 2 and 16", visited, total)
	}
}

// TestSlotsFailedBuildIsRetryable: a build that errors, observes
// cancellation, is refused admission, or panics registers nothing, is
// invisible to Peek and Each, and the next Get builds.
func TestSlotsFailedBuildIsRetryable(t *testing.T) {
	boom := errors.New("boom")
	cancelled := BuildControl{Check: func() bool { return true }}
	cases := []struct {
		name   string
		ctl    BuildControl
		refuse bool
		fail   func(check func() bool) error
		want   error
		builds int64 // build attempts the failing Get runs
	}{
		{name: "error", fail: func(func() bool) error { return boom }, want: boom, builds: 1},
		{name: "cancelled", ctl: cancelled, fail: func(check func() bool) error {
			if check() {
				return ErrBuildCancelled
			}
			return nil
		}, want: ErrBuildCancelled, builds: 1},
		{name: "refused", refuse: true, want: ErrBudgetExceeded, builds: 0},
		{name: "panic", fail: func(func() bool) error { panic(boom) }, want: boom, builds: 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mgr := &fakeManager{refuse: tc.refuse}
			s := &Slots[string, *int]{Observer: mgr}
			ctl := tc.ctl
			ctl.Admit = mgr
			var builds atomic.Int64
			err := func() (err error) {
				defer func() {
					if v := recover(); v != nil {
						err = v.(error)
					}
				}()
				_, err = s.Get("k", ctl, counted(&builds, 1, tc.fail))
				return err
			}()
			if !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
			if builds.Load() != tc.builds || len(mgr.tickets()) != 0 {
				t.Fatalf("failed Get: %d builds, %d registrations", builds.Load(), len(mgr.tickets()))
			}
			if _, ok := s.Peek("k"); ok {
				t.Fatal("failed build is resident")
			}
			s.Each(func(string, *int, int64) { t.Fatal("Each visited a failed build") })

			mgr.refuse = false
			v, err := s.Get("k", BuildControl{Admit: mgr}, counted(&builds, 2, nil))
			if err != nil || *v != 2 {
				t.Fatalf("retry: %v, %v", v, err)
			}
			if builds.Load() != tc.builds+1 || len(mgr.tickets()) != 1 {
				t.Fatalf("retry: %d builds, %d registrations", builds.Load(), len(mgr.tickets()))
			}
		})
	}
}

// TestSlotsDropOnlyOwnEntry: an eviction removes the entry it was issued
// for, so the next Get rebuilds; replayed against a rebuilt successor under
// the same key it removes nothing.
func TestSlotsDropOnlyOwnEntry(t *testing.T) {
	mgr := &fakeManager{}
	s := &Slots[string, *int]{Observer: mgr}
	var builds atomic.Int64
	get := func() *int {
		t.Helper()
		v, err := s.Get("k", BuildControl{}, counted(&builds, int(builds.Load()), nil))
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	if _, ok := s.Peek("k"); ok {
		t.Fatal("an unbuilt key is resident")
	}
	first := get()
	if v, ok := s.Peek("k"); !ok || v != first || builds.Load() != 1 {
		t.Fatal("Peek did not return the resident value")
	}
	stale := mgr.tickets()[0].drop
	stale()
	if _, ok := s.Peek("k"); ok {
		t.Fatal("dropped entry still resident")
	}
	if *first != 0 {
		t.Fatal("a reader's value changed under it")
	}
	second := get()
	if second == first || builds.Load() != 2 {
		t.Fatalf("evicted key was not rebuilt (%d builds)", builds.Load())
	}
	stale()
	if v, ok := s.Peek("k"); !ok || v != second {
		t.Fatal("a stale drop removed the rebuilt successor")
	}
	if get() != second || builds.Load() != 2 {
		t.Fatal("successor was rebuilt after a stale drop")
	}
}

// TestSlotsBuiltRunsUnlocked: the manager may use the same Slots from
// inside Built — here it builds a second key and evicts it again, both of
// which take the Slots mutex.
func TestSlotsBuiltRunsUnlocked(t *testing.T) {
	mgr := &fakeManager{}
	s := &Slots[string, *int]{Observer: mgr}
	var builds atomic.Int64
	mgr.onBuilt = func(label string) {
		if label != "slot[1]" {
			return
		}
		if _, err := s.Get("inner", BuildControl{}, counted(&builds, 2, nil)); err != nil {
			t.Error(err)
		}
		for _, tk := range mgr.tickets() {
			if tk.label == "slot[2]" {
				tk.drop()
			}
		}
	}
	if _, err := s.Get("outer", BuildControl{}, counted(&builds, 1, nil)); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Peek("outer"); !ok {
		t.Fatal("outer entry not resident")
	}
	if _, ok := s.Peek("inner"); ok {
		t.Fatal("inner entry survived its eviction")
	}
}

// TestSlotsTouchSampling pins the reuse rule that replaced the sampled
// stamps: the build itself is no reuse, every warm Get stamps the ticket (a
// sampled rule stamped only a few of these 300), and Peek never does.
func TestSlotsTouchSampling(t *testing.T) {
	mgr := &fakeManager{}
	s := &Slots[string, *int]{Observer: mgr}
	var builds atomic.Int64
	spec := counted(&builds, 1, nil)
	if _, err := s.Get("k", BuildControl{}, spec); err != nil {
		t.Fatal(err)
	}
	tk := mgr.tickets()[0]
	if builds.Load() != 1 || tk.touches.Load() != 0 {
		t.Fatalf("cold Get: %d builds, %d touches, want 1 and 0", builds.Load(), tk.touches.Load())
	}
	for i := 0; i < 300; i++ {
		if _, err := s.Get("k", BuildControl{}, spec); err != nil {
			t.Fatal(err)
		}
	}
	if got := tk.touches.Load(); got != 300 || builds.Load() != 1 {
		t.Fatalf("300 warm Gets: %d touches, %d builds, want 300 and 1", got, builds.Load())
	}
	if _, ok := s.Peek("k"); !ok || tk.touches.Load() != 300 {
		t.Fatalf("Peek: resident %v, %d touches, want true and 300", ok, tk.touches.Load())
	}
}

// TestSlotsHoldTouchesEveryCall pins the every-call stamp that Hold had and
// Get now has, on the path where a Get meets a build in flight: callers that
// arrive while another caller builds the key run no build of their own and
// stamp once each, whether they waited on the build or found it done; the
// builder does not stamp.
func TestSlotsHoldTouchesEveryCall(t *testing.T) {
	const callers = 4
	mgr := &fakeManager{}
	s := &Slots[string, *int]{Observer: mgr}
	var builds atomic.Int64
	spec := counted(&builds, 1, nil)
	var wg sync.WaitGroup
	got := make([]*int, callers)
	mgr.onBuilt = func(string) {
		// Inside the build: these Gets find the slot installed and its
		// once held by the builder.
		for i := range got {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				v, err := s.Get("k", BuildControl{}, spec)
				if err != nil {
					t.Error(err)
				}
				got[i] = v
			}(i)
		}
	}
	first, err := s.Get("k", BuildControl{}, spec)
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	tk := mgr.tickets()[0]
	if n := tk.touches.Load(); n != callers || builds.Load() != 1 {
		t.Fatalf("%d Gets during a build: %d touches, %d builds, want %d and 1", callers, n, builds.Load(), callers)
	}
	for i, v := range got {
		if v != first {
			t.Fatalf("caller %d saw a different value", i)
		}
	}
}
