package xmjoin

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/testutil"
)

// TestSentinelErrors pins the typed error contract: every assembly error
// is matched by errors.Is on its sentinel, with the offending name still
// in the message.
func TestSentinelErrors(t *testing.T) {
	db := figure1DB(t)

	if _, err := db.Query("", "nope"); !errors.Is(err, ErrUnknownTable) {
		t.Fatalf("unknown table err = %v, want ErrUnknownTable", err)
	} else if !strings.Contains(err.Error(), "nope") {
		t.Fatalf("unknown table err %q lost the table name", err)
	}

	if _, err := db.QueryOn([]TwigOn{{Doc: "ghost", Twig: "//a"}}); !errors.Is(err, ErrUnknownDocument) {
		t.Fatalf("unknown document err = %v, want ErrUnknownDocument", err)
	}

	empty := NewDatabase()
	if err := empty.AddTableRows("R", []string{"x"}, [][]string{{"1"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := empty.Query("//a", "R"); !errors.Is(err, ErrNoDocument) {
		t.Fatalf("no-document err = %v, want ErrNoDocument", err)
	}
	if _, err := empty.QueryOn([]TwigOn{{Twig: "//a"}}); !errors.Is(err, ErrNoDocument) {
		t.Fatalf("QueryOn no-document err = %v, want ErrNoDocument", err)
	}

	q, err := db.Query("/invoices/orderLine[orderID][ISBN]/price", "R")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := q.ExecXJoinCtx(ctx); !errors.Is(err, ErrCancelled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled err = %v, want ErrCancelled wrapping context.Canceled", err)
	}
}

// deepChainXML builds the DeepChain adversary through the public loader:
// one alternating a/b chain with distinct values, whose //a//b result is
// Θ(depth²/4) answers — big enough that cancellation visibly short-cuts.
func deepChainXML(depth int) string {
	var sb strings.Builder
	sb.WriteString("<root>")
	tags := make([]string, 0, depth)
	for i := 0; i < depth; i++ {
		tag := "a"
		if i%2 == 1 {
			tag = "b"
		}
		sb.WriteString("<" + tag + ">" + tag + itoa(i))
		tags = append(tags, tag)
	}
	for i := len(tags) - 1; i >= 0; i-- {
		sb.WriteString("</" + tags[i] + ">")
	}
	sb.WriteString("</root>")
	return sb.String()
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b [8]byte
	p := len(b)
	for i > 0 {
		p--
		b[p] = byte('0' + i%10)
		i /= 10
	}
	return string(b[p:])
}

func deepChainDB(t testing.TB, depth int) *Database {
	t.Helper()
	db := NewDatabase()
	if err := db.LoadXMLString(deepChainXML(depth)); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestExecCtxVariants runs the public Ctx surface end to end: unbounded
// contexts change nothing, a deadline mid-run returns partial results
// with the Cancelled marker, and the prepared surface honours the ctx
// argument through the shared options path.
func TestExecCtxVariants(t *testing.T) {
	testutil.CheckGoroutines(t)
	db := figure1DB(t)
	q, err := db.Query("/invoices/orderLine[orderID][ISBN]/price", "R")
	if err != nil {
		t.Fatal(err)
	}
	res, err := q.ExecXJoinCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 || res.Stats().Cancelled {
		t.Fatalf("Background ctx changed the run: len=%d cancelled=%v", res.Len(), res.Stats().Cancelled)
	}
	if ok, err := q.ExistsCtx(context.Background()); err != nil || !ok {
		t.Fatalf("ExistsCtx = %v, %v", ok, err)
	}
	if res, err := q.ExecBaselineCtx(context.Background()); err != nil || res.Len() != 2 {
		t.Fatalf("ExecBaselineCtx: len=%d err=%v", res.Len(), err)
	}

	p, err := q.Prepare()
	if err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.ExecuteCtx(cancelled); !errors.Is(err, ErrCancelled) {
		t.Fatalf("ExecuteCtx err = %v, want ErrCancelled", err)
	}
	if _, err := p.ExecuteStreamCtx(cancelled, func([]string) bool { return true }); !errors.Is(err, ErrCancelled) {
		t.Fatalf("ExecuteStreamCtx err = %v, want ErrCancelled", err)
	}
	if _, err := p.ExistsCtx(cancelled); !errors.Is(err, ErrCancelled) {
		t.Fatalf("ExistsCtx err = %v, want ErrCancelled", err)
	}
}

// TestCancelMidRunPublic cancels a deep-chain enumeration through the
// public streaming API and checks the partial-stats contract.
func TestCancelMidRunPublic(t *testing.T) {
	testutil.CheckGoroutines(t)
	db := deepChainDB(t, 400)
	q, err := db.Query("//a//b")
	if err != nil {
		t.Fatal(err)
	}
	full, err := q.ExecXJoin()
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	emitted := 0
	stats, err := q.ExecXJoinStreamCtx(ctx, func([]string) bool {
		emitted++
		if emitted == 1 {
			cancel()
		}
		time.Sleep(100 * time.Microsecond)
		return true
	})
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
	if !stats.Cancelled {
		t.Fatalf("stats = %+v, want Cancelled", stats)
	}
	if emitted >= full.Len()/10 {
		t.Fatalf("emitted %d of %d answers after cancellation", emitted, full.Len())
	}

	// The same query still runs to completion afterwards (no poisoned
	// shared state), and a materializing cancelled run returns partials.
	again, err := q.ExecXJoin()
	if err != nil {
		t.Fatal(err)
	}
	if again.Len() != full.Len() {
		t.Fatalf("post-cancel rerun = %d answers, want %d", again.Len(), full.Len())
	}
}
