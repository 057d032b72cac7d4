// Package shell implements the interactive multi-model shell behind
// cmd/xmsh: dot-commands manage the database (load XML/CSV, save, open,
// inspect) and everything else is parsed as an mmql query.
package shell

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	xmjoin "repro"
	"repro/internal/mmql"
)

// ErrQuit is returned by Execute when the user asks to leave.
var ErrQuit = errors.New("shell: quit")

// Shell is one interactive session over a database.
type Shell struct {
	db  *xmjoin.Database
	out io.Writer
	// stats controls the per-query statistics line (.stats on/off).
	stats bool
}

// New returns a shell over a fresh database, writing results to out.
func New(out io.Writer) *Shell {
	return &Shell{db: xmjoin.NewDatabase(), out: out}
}

// DB exposes the shell's database (tests and embedding callers).
func (s *Shell) DB() *xmjoin.Database { return s.db }

// Run reads lines from r until EOF or .quit, executing each and printing
// errors without aborting the session.
func (s *Shell) Run(r io.Reader) error { return s.RunWithInterrupt(r, nil) }

// RunWithInterrupt is Run with per-query cancellation: each line executes
// under a context that is cancelled when interrupt delivers — cmd/xmsh
// feeds it SIGINT, so Ctrl-C abandons the in-flight query (within one
// morsel's work, reported as "query cancelled") instead of killing the
// session. A signal arriving at the prompt is dropped: with a worst-case
// optimal join engine the session is the valuable state, the query is
// not. A nil interrupt channel degrades to plain Run.
func (s *Shell) RunWithInterrupt(r io.Reader, interrupt <-chan os.Signal) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	fmt.Fprint(s.out, "xmsh> ")
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line != "" {
			if err := s.executeInterruptible(line, interrupt); err != nil {
				if errors.Is(err, ErrQuit) {
					return nil
				}
				if errors.Is(err, xmjoin.ErrCancelled) {
					fmt.Fprintln(s.out, "query cancelled")
				} else {
					fmt.Fprintln(s.out, "error:", err)
				}
			}
		}
		fmt.Fprint(s.out, "xmsh> ")
	}
	fmt.Fprintln(s.out)
	return sc.Err()
}

// executeInterruptible runs one line under a context cancelled by the
// interrupt channel for the duration of the call.
func (s *Shell) executeInterruptible(line string, interrupt <-chan os.Signal) error {
	if interrupt == nil {
		return s.Execute(line)
	}
	// Drop any interrupt that arrived while idle at the prompt, so a
	// stale Ctrl-C cannot cancel the next query the moment it starts.
	select {
	case <-interrupt:
	default:
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	watchDone := make(chan struct{})
	defer close(watchDone)
	go func() {
		select {
		case <-interrupt:
			cancel()
		case <-watchDone:
		}
	}()
	return s.ExecuteCtx(ctx, line)
}

// Execute runs one command or query.
func (s *Shell) Execute(line string) error { return s.ExecuteCtx(nil, line) }

// ExecuteCtx runs one command or query under ctx: queries are cancelled
// within one morsel's work when the context ends (the error matches
// xmjoin.ErrCancelled; the session stays usable), dot-commands ignore it.
func (s *Shell) ExecuteCtx(ctx context.Context, line string) error {
	if !strings.HasPrefix(line, ".") {
		res, err := mmql.RunStringCtx(ctx, s.db, line)
		if err != nil {
			return err
		}
		fmt.Fprint(s.out, res)
		if s.stats && res.Stats != nil {
			st := res.Stats
			fmt.Fprintf(s.out, "-- %s: output=%d peak_stage=%d validation_removed=%d",
				st.Algorithm, st.Output, st.PeakIntermediate, st.ValidationRemoved)
			if st.LeafBatches > 0 {
				fmt.Fprintf(s.out, " leaf_batches=%d", st.LeafBatches)
			}
			if st.MorselSplits > 0 || st.MorselSteals > 0 {
				fmt.Fprintf(s.out, " splits=%d steals=%d", st.MorselSplits, st.MorselSteals)
			}
			if st.DeadlineStops > 0 {
				fmt.Fprintf(s.out, " deadline_stops=%d", st.DeadlineStops)
			}
			// Abnormal-run markers: without these the stats line silently
			// presents a degraded or partial run as a clean one.
			if st.Degraded != "" {
				fmt.Fprintf(s.out, " degraded=%q", st.Degraded)
			}
			if st.Internal {
				fmt.Fprint(s.out, " internal=true")
			}
			if st.Cancelled {
				fmt.Fprint(s.out, " cancelled=true")
			}
			fmt.Fprintln(s.out)
		}
		return nil
	}
	fields := strings.Fields(line)
	switch fields[0] {
	case ".help":
		fmt.Fprint(s.out, helpText)
		return nil
	case ".quit", ".exit":
		return ErrQuit
	case ".load":
		return s.load(fields[1:])
	case ".tables":
		for _, n := range s.db.TableNames() {
			t, _ := s.db.Table(n)
			fmt.Fprintf(s.out, "%s%s  %d rows\n", n, t.Schema(), t.Len())
		}
		if doc := s.db.Doc(); doc != nil {
			fmt.Fprintf(s.out, "xml document: %d nodes, tags %s\n",
				doc.Len(), strings.Join(doc.Tags(), " "))
		}
		return nil
	case ".explain":
		rest := strings.TrimSpace(strings.TrimPrefix(line, ".explain"))
		st, err := mmql.Parse(rest)
		if err != nil {
			return err
		}
		plan, err := mmql.Explain(s.db, st)
		if err != nil {
			return err
		}
		fmt.Fprint(s.out, plan)
		return nil
	case ".analyze":
		// .analyze QUERY == EXPLAIN ANALYZE QUERY: execute for real under
		// a trace and print the span tree.
		rest := strings.TrimSpace(strings.TrimPrefix(line, ".analyze"))
		out, err := mmql.RunStringCtx(ctx, s.db, "EXPLAIN ANALYZE "+rest)
		if err != nil {
			return err
		}
		fmt.Fprint(s.out, out)
		return nil
	case ".slowlog":
		return s.slowlog(fields[1:])
	case ".stats":
		switch {
		case len(fields) == 1:
			s.stats = !s.stats
		case len(fields) == 2 && fields[1] == "on":
			s.stats = true
		case len(fields) == 2 && fields[1] == "off":
			s.stats = false
		default:
			return errors.New("shell: usage: .stats [on|off]")
		}
		fmt.Fprintf(s.out, "stats %s\n", map[bool]string{true: "on", false: "off"}[s.stats])
		return nil
	case ".catalog":
		return s.catalog(fields[1:])
	case ".save":
		if len(fields) != 2 {
			return errors.New("shell: usage: .save DIR")
		}
		if err := s.db.Save(fields[1]); err != nil {
			return err
		}
		fmt.Fprintf(s.out, "saved to %s\n", fields[1])
		return nil
	case ".open":
		if len(fields) != 2 {
			return errors.New("shell: usage: .open DIR")
		}
		db, err := xmjoin.Open(fields[1])
		if err != nil {
			return err
		}
		s.db = db
		fmt.Fprintf(s.out, "opened %s\n", fields[1])
		return nil
	default:
		return fmt.Errorf("shell: unknown command %s (try .help)", fields[0])
	}
}

// catalog shows or tunes the session's shared index catalog. Every query
// of the session borrows its indexes from this one catalog (it lives on
// the shell's database), so the counters reflect how warm the session is:
// misses are index builds, hits are reuses, and a budget bounds resident
// bytes with LRU eviction.
func (s *Shell) catalog(args []string) error {
	switch {
	case len(args) == 0:
		fmt.Fprintln(s.out, s.db.Catalog().Stats())
		return nil
	case len(args) == 2 && args[0] == "budget":
		n, err := strconv.ParseInt(args[1], 10, 64)
		if err != nil {
			return fmt.Errorf("shell: bad budget %q: %w", args[1], err)
		}
		s.db.Catalog().SetBudget(n)
		fmt.Fprintln(s.out, s.db.Catalog().Stats())
		return nil
	case len(args) == 1 && args[0] == "reset":
		s.db.ResetCatalog()
		fmt.Fprintln(s.out, s.db.Catalog().Stats())
		return nil
	default:
		return errors.New("shell: usage: .catalog [budget BYTES | reset]")
	}
}

// slowlog shows or tunes the database's slow-query log: every query of
// the session slower than the threshold is kept in a bounded ring.
func (s *Shell) slowlog(args []string) error {
	switch {
	case len(args) == 0:
		fmt.Fprint(s.out, s.db.SlowLog().Render())
		return nil
	case len(args) == 2 && args[0] == "threshold":
		d, err := time.ParseDuration(args[1])
		if err != nil {
			return fmt.Errorf("shell: bad threshold %q: %w", args[1], err)
		}
		s.db.SlowLog().SetThreshold(d)
		fmt.Fprintf(s.out, "slow-query threshold %s\n", d)
		return nil
	default:
		return errors.New("shell: usage: .slowlog [threshold DURATION]")
	}
}

func (s *Shell) load(args []string) error {
	switch {
	case len(args) == 2 && args[0] == "xml":
		if err := s.db.LoadXMLFile(args[1]); err != nil {
			return err
		}
		fmt.Fprintf(s.out, "loaded XML: %d nodes\n", s.db.Doc().Len())
		return nil
	case len(args) == 3 && args[0] == "xml":
		f, err := os.Open(args[2])
		if err != nil {
			return err
		}
		defer f.Close()
		if err := s.db.LoadXMLNamed(args[1], f); err != nil {
			return err
		}
		fmt.Fprintf(s.out, "loaded XML document %q\n", args[1])
		return nil
	case len(args) == 3 && args[0] == "table":
		if err := s.db.AddTableCSVFile(args[1], args[2]); err != nil {
			return err
		}
		t, _ := s.db.Table(args[1])
		fmt.Fprintf(s.out, "loaded table %s: %d rows\n", args[1], t.Len())
		return nil
	default:
		return errors.New("shell: usage: .load xml [NAME] PATH | .load table NAME PATH.csv")
	}
}

const helpText = `commands:
  .load xml [NAME] PATH     load the default (or a named) XML document
  .load table NAME PATH     load a CSV table
  .tables                   list loaded tables and document tags
  .explain QUERY            show the XJoin plan and bounds for a query
  .analyze QUERY            execute the query under a trace and show the
                            span tree (same as EXPLAIN ANALYZE QUERY):
                            parse/plan/execute wall times, lazy index
                            builds, per-level join counters
  .slowlog [threshold D]    show the slow-query log (newest first), or set
                            its threshold (e.g. 100ms; 0 disables)
  .catalog [budget N|reset] show the session's shared index catalog
                            (hits/misses/evictions/resident bytes), cap its
                            resident bytes, or drop every shared index
  .stats [on|off]           print a statistics line after each query:
                            output size, peak stage, validation removals,
                            leaf batches, (parallel runs under skew)
                            morsel splits/steals, and degraded/internal/
                            cancelled markers for abnormal runs
  .save DIR / .open DIR     persist / reopen the database
  .help / .quit
queries (everything else):
  [EXISTS] SELECT items|* FROM src[, src...] [WHERE a = 'v' [AND ...]]
           [GROUP BY a[, b...]] [VIA algo] [LIMIT n]
  items:   attributes and aggregates COUNT(*|a), SUM(a), MIN(a), MAX(a)
  sources: table names and TWIG '<pattern>' [IN 'docname']
  algos:   xjoin (default; lazy A-D filtering), xjoinposthoc (A-D edges
           checked by validation only), xjoinmat (materialized A-D
           oracle), hybrid (hash joins for the
           acyclic fringe, generic join for the cyclic core; EXPLAIN shows
           the per-subplan plan tree), binary (forced hash joins), baseline
  LIMIT n  stops after n answers (SELECT * terminates the join early)
  EXISTS   reports true/false, stopping at the first answer
Ctrl-C cancels the in-flight query (the session survives); .quit exits.
`
