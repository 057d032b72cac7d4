package main

// The three library workloads: the paper's cold join, the warm prepared
// twig query and the warm cyclic relational join.

import (
	"bytes"
	"context"
	"fmt"
	"time"

	xmjoin "repro"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/relational"
	"repro/internal/twig"
	"repro/internal/xmldb"
)

// probed is what the workloads share: the lazily built engine probe behind
// substitute, and no counters, post-run check or resources by default.
type probed struct{ probe *engineProbe }

func (p *probed) layers() map[string]float64 {
	if p.probe == nil {
		return nil
	}
	return p.probe.layers()
}
func (*probed) counters() map[string]float64         { return nil }
func (*probed) verify(map[string]float64, int) error { return nil }
func (*probed) close() error                         { return nil }

// fig3Cold is paper_fig3_cold: every op assembles a fresh standalone query
// over the Figure 3 instance and joins it, paying every index build.
type fig3Cold struct {
	probed
	inst   *datagen.Instance
	oracle *core.Query // Example34(6), where the baseline is affordable
}

func setupFig3Cold(seed int64) (instance, error) {
	inst, err := fig3Instance(fig3N, seed)
	if err != nil {
		return nil, err
	}
	small, err := fig3Instance(oracleN, seed)
	if err != nil {
		return nil, err
	}
	w := &fig3Cold{inst: inst}
	if w.oracle, err = core.NewQuery(small.Doc, small.Pattern, small.Tables); err != nil {
		return nil, err
	}
	got, err := core.XJoin(w.oracle, core.Options{})
	if err != nil {
		return nil, err
	}
	want, err := core.Baseline(w.oracle, core.Options{})
	if err != nil {
		return nil, err
	}
	if len(got.Tuples) != oracleN || !core.EqualResults(got, want) {
		return nil, fmt.Errorf("XJoin (%d tuples) differs from Baseline (%d tuples) on Example34(%d)", len(got.Tuples), len(want.Tuples), oracleN)
	}
	return w, nil
}

func (w *fig3Cold) op(tr *tracer, i int) error {
	root := tr.begin(i, 0, "op")
	defer tr.end(root)
	var q *core.Query
	if _, err := tr.do(i, root, "core.new_query", func() (err error) {
		q, err = core.NewQuery(w.inst.Doc, w.inst.Pattern, w.inst.Tables)
		return err
	}); err != nil {
		return err
	}
	_, err := tr.do(i, root, "core.xjoin", func() error {
		res, err := core.XJoin(q, core.Options{})
		if err == nil && len(res.Tuples) != fig3N {
			err = fmt.Errorf("%d answers, want %d", len(res.Tuples), fig3N)
		}
		return err
	})
	return err
}

func (w *fig3Cold) firstRow(int) (time.Duration, error) {
	start := time.Now()
	q, err := core.NewQuery(w.inst.Doc, w.inst.Pattern, w.inst.Tables)
	if err != nil {
		return 0, err
	}
	return firstTuple(q, start)
}

// firstTuple streams q until its first answer and returns how long after
// start that answer arrived.
func firstTuple(q *core.Query, start time.Time) (time.Duration, error) {
	var first time.Duration
	_, err := core.XJoinStream(q, core.Options{}, func(relational.Tuple) bool {
		first = time.Since(start)
		return false
	})
	if err == nil && first == 0 {
		err = fmt.Errorf("stream ended without an answer")
	}
	return first, err
}

func (w *fig3Cold) substitute(tr *tracer, i int) (err error) {
	if w.probe == nil {
		if w.probe, err = newEngineProbe(nil, w.inst.Doc, w.inst.Pattern, w.inst.Tables, core.Options{}); err != nil {
			return err
		}
		w.probe.load = func() error { _, err := datagen.Example34(fig3N); return err }
		// The hybrid planner hash-joins this twig's fringe into a blow-up:
		// 4.5 s and 1.2 GB per run here, against 40 ms for the op.
		w.probe.hybrid = false
	}
	x := tr.find(i, "core.xjoin")
	if err := w.probe.cold(tr, i, x); err != nil {
		return err
	}
	if err := w.probe.warm(tr, i, 0, x); err != nil {
		return err
	}
	if err := w.probe.alternatives(tr, i); err != nil {
		return err
	}
	return runSteps(tr, i, []step{
		{"twig.parse", func() error { _, err := twig.Parse(datagen.PaperTwig); return err }},
		{"core.baseline", func() error { _, err := core.Baseline(w.oracle, core.Options{}); return err }},
	})
}

// twigWarm is twig_ad_warm: one PreparedQuery over the nested shop catalog,
// executed serially on a warm catalog.
type twigWarm struct {
	probed
	db *xmjoin.Database
	p  *xmjoin.PreparedQuery
}

func setupTwigWarm(seed int64) (instance, error) {
	db, err := shopDatabase(seed, false)
	if err != nil {
		return nil, err
	}
	q, err := db.Query(shopTwig, "R", "S")
	if err != nil {
		return nil, err
	}
	p, err := q.Prepare()
	if err != nil {
		return nil, err
	}
	got, err := p.Execute()
	if err != nil {
		return nil, err
	}
	want, err := q.ExecBaseline()
	if err != nil {
		return nil, err
	}
	if got.Len() != shopRows || !got.Equal(want) {
		return nil, fmt.Errorf("prepared XJoin (%d rows) differs from ExecBaseline (%d rows)", got.Len(), want.Len())
	}
	return &twigWarm{db: db, p: p}, nil
}

func (w *twigWarm) op(tr *tracer, i int) error {
	_, err := tr.do(i, 0, "xmjoin.execute", func() error {
		res, err := w.p.Execute()
		if err == nil && res.Len() != shopRows {
			err = fmt.Errorf("%d rows, want %d", res.Len(), shopRows)
		}
		return err
	})
	return err
}

func (w *twigWarm) firstRow(int) (time.Duration, error) {
	start := time.Now()
	rows, err := w.p.Rows(context.Background())
	if err != nil {
		return 0, err
	}
	ok := rows.Next()
	first := time.Since(start)
	if err := rows.Close(); err != nil {
		return 0, err
	}
	if !ok {
		return 0, fmt.Errorf("cursor yielded no row: %v", rows.Err())
	}
	return first, nil
}

func (w *twigWarm) substitute(tr *tracer, i int) (err error) {
	if w.probe == nil {
		if w.probe, err = shopProbe(w.db, core.Options{}); err != nil {
			return err
		}
	}
	if err := w.probe.warm(tr, i, tr.find(i, "xmjoin.execute"), 0); err != nil {
		return err
	}
	if err := w.probe.cold(tr, i, 0); err != nil {
		return err
	}
	if err := w.probe.alternatives(tr, i); err != nil {
		return err
	}
	return xmjoinAlternatives(tr, i, w.db, w.p, xmjoin.ExecOptions{}, w.probe)
}

// shopProbe is the engine probe for the shop twig query over db's catalog.
func shopProbe(db *xmjoin.Database, opts core.Options) (*engineProbe, error) {
	var tables []*relational.Table
	for _, name := range []string{"R", "S"} {
		t, _ := db.Table(name)
		tables = append(tables, t)
	}
	p, err := newEngineProbe(db.Catalog(), db.Doc(), twig.MustParse(shopTwig), tables, opts)
	if err != nil {
		return nil, err
	}
	var xml bytes.Buffer
	if err := xmldb.Write(&xml, db.Doc()); err != nil {
		return nil, err
	}
	p.load = func() error { _, err := xmldb.Parse(bytes.NewReader(xml.Bytes()), relational.NewDict()); return err }
	return p, nil
}

// xmjoinAlternatives records the public API's other entry points over the
// same prepared query: the decoding stream, the pull cursor, and — cold
// paths a warm execution skips — twig parsing, query assembly and Prepare.
func xmjoinAlternatives(tr *tracer, i int, db *xmjoin.Database, p *xmjoin.PreparedQuery, exec xmjoin.ExecOptions, e *engineProbe) error {
	noRow := func([]string) bool { return true }
	var q *xmjoin.Query
	return runSteps(tr, i, []step{
		{"xmjoin.stream", func() error { _, err := p.ExecuteStream(noRow, exec); return err }},
		{"xmjoin.rows_cursor", func() error {
			rows, err := p.Rows(context.Background(), exec)
			if err != nil {
				return err
			}
			n := 0
			for b := rows.NextBatch(); b != nil; b = rows.NextBatch() {
				n += len(b)
			}
			e.vals["xmjoin.rows_per_op"] = float64(n)
			return rows.Close()
		}},
		{"twig.parse", func() error { _, err := twig.Parse(shopTwig); return err }},
		{"xmjoin.query_assemble", func() (err error) { q, err = db.Query(shopTwig, "R", "S"); return err }},
		{"xmjoin.prepare", func() error { _, err := q.Prepare(); return err }},
	})
}

func (w *twigWarm) counters() map[string]float64 { return catalogCounters(w.db) }

func catalogCounters(db *xmjoin.Database) map[string]float64 {
	s := db.Catalog().Stats()
	return map[string]float64{
		"catalog.hits": float64(s.Hits), "catalog.misses": float64(s.Misses), "catalog.evictions": float64(s.Evictions),
		"catalog.resident_bytes": float64(s.ResidentBytes), "catalog.entries": float64(s.Entries),
	}
}

func (w *twigWarm) verify(delta map[string]float64, _ int) error {
	if m := delta["catalog.misses"]; m != 0 {
		return fmt.Errorf("warm executions built %v indexes (catalog.misses delta)", m)
	}
	return nil
}

// cyclicWarm is rel_cyclic_warm: one standalone relational query (hub
// triangle plus bijective tail) joined repeatedly under the default plan.
type cyclicWarm struct {
	probed
	tables []*relational.Table
	q      *core.Query
}

func setupCyclicWarm(seed int64) (instance, error) {
	tables, err := cyclicTables(cyclicN, cyclicLen, seed)
	if err != nil {
		return nil, err
	}
	q, err := core.NewQuery(nil, nil, tables)
	if err != nil {
		return nil, err
	}
	w := &cyclicWarm{tables: tables, q: q}
	return w, w.op(nil, 0)
}

func (w *cyclicWarm) op(tr *tracer, i int) error {
	_, err := tr.do(i, 0, "core.xjoin", func() error {
		res, err := core.XJoin(w.q, core.Options{})
		if err == nil && len(res.Tuples) != cyclicOut {
			err = fmt.Errorf("%d answers, want %d", len(res.Tuples), cyclicOut)
		}
		return err
	})
	return err
}

func (w *cyclicWarm) firstRow(int) (time.Duration, error) { return firstTuple(w.q, time.Now()) }

func (w *cyclicWarm) substitute(tr *tracer, i int) (err error) {
	if w.probe == nil {
		if w.probe, err = newEngineProbe(nil, nil, nil, w.tables, core.Options{}); err != nil {
			return err
		}
		w.probe.tail = w.tables[3:] // C1..C4; R, S, T are the cyclic core
	}
	if err := w.probe.warm(tr, i, 0, tr.find(i, "core.xjoin")); err != nil {
		return err
	}
	if err := w.probe.cold(tr, i, 0); err != nil {
		return err
	}
	return w.probe.alternatives(tr, i)
}
