// Command xjoin evaluates a multi-model join from the command line: an XML
// document, CSV tables, and a twig pattern in the XPath subset.
//
// Usage:
//
//	xjoin -xml doc.xml -table R=orders.csv -twig '/invoices/orderLine[orderID]/price' \
//	      [-algo xjoin|baseline] [-ad lazy|posthoc|materialized] \
//	      [-project userID,ISBN] [-bounds] [-stats] [-analyze] \
//	      [-parallel N] [-limit N] [-exists] [-timeout D] [-metrics addr]
//
// Each -table flag (repeatable) loads NAME=FILE.csv; the CSV header names
// the columns. Attributes with equal names across tables and twig tags
// join. With -bounds the worst-case size bounds are printed; with -stats
// the per-stage intermediate sizes.
//
// -analyze executes the query under a trace and prints the span tree —
// plan selection, every lazy index build the run admitted, and execution
// with per-level join counters. -metrics addr serves the process metrics
// registry in Prometheus text format at /metrics (plus /debug/pprof and
// /debug/vars) for the life of the process; the bound address is printed
// to stderr, so -metrics 127.0.0.1:0 picks a free port.
//
// -timeout bounds the run with a context deadline (any time.Duration,
// e.g. -timeout 500ms): when it expires the join stops within one
// morsel's work, the answers found so far are printed, a "cancelled"
// line reports the partial statistics, and the exit status is 1.
//
// Exit status distinguishes the failure class: 1 for cancellation, bad
// input and ordinary errors; 2 for internal engine errors (a recovered
// executor panic, reported with its stack cause). A run degraded by
// catalog budget pressure exits 0 and reports the reason on a
// "degraded:" line — the answers are complete, only the execution
// strategy changed.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"strings"

	xmjoin "repro"
	"repro/internal/cli"
	"repro/internal/obs"
)

type tableFlags []string

func (t *tableFlags) String() string { return strings.Join(*t, ",") }
func (t *tableFlags) Set(s string) error {
	*t = append(*t, s)
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "xjoin:", err)
		if errors.Is(err, xmjoin.ErrInternal) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

func run() error {
	var tables tableFlags
	xmlPath := flag.String("xml", "", "XML document to load")
	twigExpr := flag.String("twig", "", "twig pattern (XPath subset); empty for pure relational queries")
	algo := flag.String("algo", "xjoin", "algorithm: xjoin or baseline")
	adMode := flag.String("ad", "",
		"A-D edge handling for xjoin: lazy (default; region-interval index), posthoc, materialized")
	parallel := flag.Int("parallel", 0, "XJoin morsel-parallel workers (0/1 serial, -1 GOMAXPROCS)")
	planMode := flag.String("plan", "",
		"plan mode: wcoj (default; pure generic join), hybrid (hash joins for the acyclic fringe, generic join for the cyclic core), binary (forced hash joins); -explain shows the per-subplan plan tree")
	timeout := flag.Duration("timeout", 0, "context deadline for the run (0 = none); expiry reports partial stats and exits 1")
	limitFlag := flag.String("limit", "", "stop after N validated answers (early termination, composes with -parallel)")
	exists := flag.Bool("exists", false, "print true/false for answer existence and exit (stops at the first answer)")
	stream := flag.Bool("stream", false, "stream answers instead of materializing (xjoin only)")
	explain := flag.Bool("explain", false, "print the plan before executing")
	analyze := flag.Bool("analyze", false, "execute under a trace and print the span tree (plan, lazy index builds, per-level counters)")
	metricsAddr := flag.String("metrics", "", "serve /metrics (Prometheus text format), /debug/pprof and /debug/vars on this address (e.g. :9090 or 127.0.0.1:0)")
	projectList := flag.String("project", "", "comma-separated output attributes (default: all)")
	showBounds := flag.Bool("bounds", false, "print worst-case size bounds")
	showStats := flag.Bool("stats", false, "print execution statistics")
	flag.Var(&tables, "table", "NAME=FILE.csv (repeatable)")
	flag.Parse()

	if *metricsAddr != "" {
		bound, errc, err := obs.Serve(*metricsAddr, nil)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "metrics on http://%s/metrics\n", bound)
		go func() {
			// The listener is supposed to outlive the process; a terminal
			// serve error means the advertised endpoint went dark.
			if serr := <-errc; serr != nil && !errors.Is(serr, http.ErrServerClosed) {
				fmt.Fprintf(os.Stderr, "xjoin: metrics listener failed: %v\n", serr)
			}
		}()
	}

	db := xmjoin.NewDatabase()
	if *xmlPath != "" {
		if err := db.LoadXMLFile(*xmlPath); err != nil {
			return err
		}
	}
	var names []string
	for _, spec := range tables {
		name, path, err := cli.ParseTableSpec(spec)
		if err != nil {
			return err
		}
		if err := db.AddTableCSVFile(name, path); err != nil {
			return err
		}
		names = append(names, name)
	}

	q, err := db.Query(*twigExpr, names...)
	if err != nil {
		return err
	}
	switch *adMode {
	case "":
	case "lazy":
		q.WithAD(xmjoin.ADLazy)
	case "posthoc":
		q.WithAD(xmjoin.ADPostHoc)
	case "materialized":
		q.WithAD(xmjoin.ADMaterialized)
	default:
		return fmt.Errorf("unknown -ad %q (want lazy, posthoc or materialized)", *adMode)
	}
	switch *planMode {
	case "", "wcoj":
	case "hybrid":
		q.WithPlan(xmjoin.PlanHybrid)
	case "binary":
		q.WithPlan(xmjoin.PlanBinary)
	default:
		return fmt.Errorf("unknown -plan %q (want wcoj, hybrid or binary)", *planMode)
	}
	q.WithParallelism(*parallel)
	limit, err := cli.ParseLimit(*limitFlag)
	if err != nil {
		return err
	}
	q.WithLimit(limit)

	var tr *xmjoin.Trace
	if *analyze {
		tr = xmjoin.NewTrace(*twigExpr + " " + strings.Join(names, " "))
		q.WithTrace(tr)
	}
	printTrace := func() {
		if tr != nil {
			tr.Finish()
			fmt.Print(tr.Render())
		}
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *exists {
		switch *algo {
		case "xjoin":
		case "baseline":
			return fmt.Errorf("-exists requires -algo xjoin")
		default:
			return fmt.Errorf("unknown -algo %q", *algo)
		}
		ok, err := q.ExistsCtx(ctx)
		printTrace()
		if err != nil {
			return err
		}
		fmt.Println(ok)
		return nil
	}

	if *explain {
		plan, err := q.Explain()
		if err != nil {
			return err
		}
		fmt.Print(plan)
	}

	if *showBounds {
		b, err := q.Bounds()
		if err != nil {
			return err
		}
		fmt.Println("transformed hypergraph:")
		fmt.Print(b.Hypergraph())
		fmt.Println(b)
	}

	if *stream {
		if *algo != "xjoin" {
			return fmt.Errorf("-stream only supports -algo xjoin")
		}
		stats, err := q.ExecXJoinStreamCtx(ctx, func(row []string) bool {
			fmt.Println(strings.Join(row, ","))
			return true
		})
		printTrace()
		// Report the partial-statistics block for every failure class, not
		// just cancellation — a budget-refused or internally failed run
		// otherwise exits with no record of how far it got.
		if *showStats || err != nil {
			if stats.Cancelled {
				fmt.Println("cancelled=true (partial stats)")
			}
			if stats.Internal {
				fmt.Println("internal=true (partial stats)")
			}
			if stats.Degraded != "" {
				fmt.Printf("degraded: %s\n", stats.Degraded)
			}
			fmt.Printf("streamed=%d validation_removed=%d peak_stage=%d\n",
				stats.Output, stats.ValidationRemoved, stats.PeakIntermediate)
			if stats.LeafBatches > 0 {
				fmt.Printf("scheduler: leaf_batches=%d splits=%d steals=%d deadline_stops=%d\n",
					stats.LeafBatches, stats.MorselSplits, stats.MorselSteals, stats.DeadlineStops)
			}
			if stats.CatalogMisses > 0 || stats.CatalogHits > 0 {
				fmt.Printf("catalog: entries=%d resident=%dB hits=%d misses=%d evictions=%d\n",
					stats.CatalogEntries, stats.CatalogResidentBytes,
					stats.CatalogHits, stats.CatalogMisses, stats.CatalogEvictions)
			}
		}
		return err // nil, or the failure after the partial report
	}

	var res *xmjoin.Result
	var cancelledErr error
	switch *algo {
	case "xjoin":
		res, err = q.ExecXJoinCtx(ctx)
	case "baseline":
		res, err = q.ExecBaselineCtx(ctx)
	default:
		return fmt.Errorf("unknown -algo %q", *algo)
	}
	printTrace()
	if err != nil {
		// Any failed run that still carries a result — cancellation,
		// internal error, budget pressure — reports its answers and the
		// partial-statistics block before exiting non-zero below (1 for
		// cancellation and ordinary errors, 2 for internal errors).
		if res == nil {
			return err
		}
		cancelledErr = err
	}
	if limit > 0 && res.Len() > limit {
		// The baseline cannot terminate early (Options.Limit only reaches
		// the streaming executors), so honor -limit by truncation.
		kept := 0
		res = res.Filter(func([]string) bool {
			kept++
			return kept <= limit
		})
	}

	if *projectList != "" {
		res, err = res.Project(strings.Split(*projectList, ",")...)
		if err != nil {
			return err
		}
	}
	fmt.Print(res.Sort())

	if *showStats || cancelledErr != nil {
		s := res.Stats()
		if s.Cancelled {
			fmt.Printf("cancelled=true (partial stats; %d answers before cancellation)\n", res.Len())
		}
		if s.Internal {
			fmt.Printf("internal=true (partial stats; %d answers before the failure)\n", res.Len())
		}
		if s.Degraded != "" {
			fmt.Printf("degraded: %s\n", s.Degraded)
		}
		fmt.Printf("algorithm=%s peak_intermediate=%d total_intermediate=%d validation_removed=%d\n",
			s.Algorithm, s.PeakIntermediate, s.TotalIntermediate, s.ValidationRemoved)
		if s.ADMode != "" {
			fmt.Printf("ad mode: %s\n", s.ADMode)
		}
		if len(s.StageSizes) > 0 {
			fmt.Printf("stage sizes: %v\n", s.StageSizes)
		}
		if s.LeafBatches > 0 {
			fmt.Printf("scheduler: leaf_batches=%d splits=%d steals=%d deadline_stops=%d\n",
				s.LeafBatches, s.MorselSplits, s.MorselSteals, s.DeadlineStops)
		}
		if s.TableIndexes > 0 {
			fmt.Printf("table indexes: %d (~%d bytes)\n", s.TableIndexes, s.TableIndexBytes)
		}
		if s.StructIndexes > 0 {
			fmt.Printf("struct indexes: %d (~%d bytes)\n", s.StructIndexes, s.StructIndexBytes)
		}
		if s.CatalogMisses > 0 || s.CatalogHits > 0 {
			fmt.Printf("catalog: entries=%d resident=%dB hits=%d misses=%d evictions=%d\n",
				s.CatalogEntries, s.CatalogResidentBytes, s.CatalogHits, s.CatalogMisses, s.CatalogEvictions)
		}
		if s.Algorithm == "baseline" {
			fmt.Printf("q1=%d q2=%d\n", s.Q1Size, s.Q2Size)
		}
	}
	return cancelledErr
}
