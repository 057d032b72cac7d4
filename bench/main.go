// Command bench is the repository's one fixed benchmark suite: six
// workloads from the paper's cold join to a deadline-bound HTTP request,
// each run untraced for its end-to-end metrics and traced for its per-layer
// ones. See README.md.
//
//	bash bench/run.sh                       every workload, both runs, fixed op counts
//	bash bench/run.sh -smoke                the same at 1/50 of the op counts
//	bash bench/run.sh -compare a.json b.json
//	bash bench/run.sh --workload W --seed N --seconds S --trace 0|1   (BENCHMARK.json's command)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

const suiteVersion = 1

// untracedDefs is what an untraced run measures: the bounded end-to-end
// metrics and the demoted ones.
var untracedDefs = append(append([]metricDef(nil), endToEnd...), demoted...)

// header identifies the run that produced a result file.
type header struct {
	SuiteVersion int            `json:"suite_version"`
	Seed         int64          `json:"seed"`
	GitCommit    string         `json:"git_commit"`
	GoVersion    string         `json:"go_version"`
	GOMAXPROCS   int            `json:"gomaxprocs"`
	NumCPU       int            `json:"num_cpu"`
	Smoke        bool           `json:"smoke"`
	OpCounts     map[string]int `json:"op_counts"` // measured ops per workload, untraced run
}

type resultFile struct {
	Header header       `json:"header"`
	Runs   []*runResult `json:"runs"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run one workload once and print a one-line JSON result (default: all, untraced then traced)")
	seed := fs.Int64("seed", 1, "permutes value ids and statement order, never cardinalities")
	seconds := fs.Float64("seconds", 0, "measure for this long instead of a fixed op count")
	traced := fs.Int("trace", 0, "with -workload: 0 = end-to-end metrics, 1 = traced run, per-layer metrics")
	out := fs.String("out", "bench/out/result.json", "result file; traced spans are written beside it")
	smoke := fs.Bool("smoke", false, "1/50 of the op counts, all checks on, no bounds")
	repeat := fs.Int("repeat", 1, "untraced runs per workload; -compare then uses their median and spread")
	compare := fs.Bool("compare", false, "compare two result files: bench -compare a.json b.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two result files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}

	// The suite is sized for two cores: the server's default admission is
	// GOMAXPROCS / workers-per-query slots, and no workload has more than
	// two client goroutines.
	runtime.GOMAXPROCS(2)
	outDir := filepath.Dir(*out)
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	o := runOpts{seed: *seed, dur: time.Duration(*seconds * float64(time.Second)), smoke: *smoke, outDir: outDir}

	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		if *traced == 1 {
			res := runTraced(w, o)
			printRun(stdout, w, res, perLayer)
			return printLine(stdout, res, perLayer)
		}
		res := runUntraced(w, o)
		printRun(stdout, w, res, untracedDefs)
		return printLine(stdout, res, endToEnd)
	}

	file := resultFile{Header: header{SuiteVersion: suiteVersion, Seed: *seed, GitCommit: gitCommit(), GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), Smoke: *smoke, OpCounts: map[string]int{}}}
	fmt.Fprintf(stdout, "bench suite v%d seed=%d commit=%s %s GOMAXPROCS=%d NumCPU=%d\n", suiteVersion, *seed,
		file.Header.GitCommit, file.Header.GoVersion, file.Header.GOMAXPROCS, file.Header.NumCPU)
	code := 0
	for _, w := range workloads {
		for r := 0; r < *repeat; r++ {
			res := runUntraced(w, o)
			printRun(stdout, w, res, untracedDefs)
			file.Runs = append(file.Runs, res)
			file.Header.OpCounts[w.name] = res.Ops
		}
		res := runTraced(w, o)
		printRun(stdout, w, res, perLayer)
		file.Runs = append(file.Runs, res)
	}
	for _, res := range file.Runs {
		if !res.Correct {
			code = 1
		}
	}
	data, err := json.MarshalIndent(file, "", "  ")
	if err == nil {
		err = os.WriteFile(*out, append(data, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "wrote %s\n", *out)
	return code
}

// gitCommit asks git for HEAD; a checkout that is not a repository reports
// "unknown".
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// printRun prints every metric of one run by name, with unit and sample
// count, then — for a traced run — the layer budget.
func printRun(w io.Writer, wl workload, res *runResult, defs []metricDef) {
	kind, verdict := "untraced", "correct"
	if res.Traced {
		kind = "traced"
	}
	if !res.Correct {
		verdict = "INCORRECT"
	}
	fmt.Fprintf(w, "\n== %s  %s, %d ops, %d client(s), %d attempted, %d failed: %s\n", wl.name, kind, res.Ops, wl.clients, res.Attempted, res.Failed, verdict)
	for _, e := range res.Errors {
		fmt.Fprintf(w, "   error: %s\n", e)
	}
	for _, m := range defs {
		if v, ok := res.Metrics[m.Name]; ok {
			fmt.Fprintf(w, "   %-34s %14.4f %-6s n=%d\n", m.Name, v, m.Unit, res.Samples[m.Name])
		} else {
			fmt.Fprintf(w, "   %-34s %14s %-6s n=%d (too few samples)\n", m.Name, "-", m.Unit, res.Samples[m.Name])
		}
	}
	if len(res.SelfNS) == 0 {
		return
	}
	names := make([]string, 0, len(res.SelfNS))
	for n := range res.SelfNS {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return res.SelfNS[names[i]] > res.SelfNS[names[j]] })
	fmt.Fprintln(w, "   layer budget, median self time per span (span minus its children):")
	for _, n := range names {
		fmt.Fprintf(w, "     %-32s %12.4f ms\n", n, res.SelfNS[n]/1e6)
	}
}

// printLine prints the one-line JSON result BENCHMARK.json's driver reads
// and returns the exit code: non-zero on a correctness failure.
func printLine(w io.Writer, res *runResult, defs []metricDef) int {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]value{}}
	for _, m := range defs {
		v, ok := res.Metrics[m.Name]
		if !ok {
			line.Correct = false
		}
		line.Metrics[m.Name] = value{v, m.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return 1
	}
	fmt.Fprintf(w, "%s\n", data)
	if !line.Correct || res.Attempted == 0 {
		return 1
	}
	return 0
}
