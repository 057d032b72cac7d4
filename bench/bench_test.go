package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestSmoke runs every workload, untraced and traced, at 1/50 of its op
// count with every correctness check on.
func TestSmoke(t *testing.T) {
	out := filepath.Join(t.TempDir(), "result.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-smoke", "-out", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("smoke run exited %d\n%s%s", code, stdout.String(), stderr.String())
	}
	var file resultFile
	data, err := os.ReadFile(out)
	if err == nil {
		err = json.Unmarshal(data, &file)
	}
	if err != nil {
		t.Fatal(err)
	}
	if len(file.Runs) != 2*len(workloads) || file.Header.SuiteVersion != suiteVersion || file.Header.GOMAXPROCS != 2 {
		t.Errorf("%d runs, header %+v", len(file.Runs), file.Header)
	}
	for _, r := range file.Runs {
		if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
			t.Errorf("%s traced=%v: correct %v, %d of %d failed: %v", r.Workload, r.Traced, r.Correct, r.Failed, r.Attempted, r.Errors)
		}
		if r.Traced {
			if _, err := os.Stat(filepath.Join(filepath.Dir(out), "trace-"+r.Workload+".json")); err != nil {
				t.Error(err)
			}
		}
	}
	// A file compared with itself passes or, where the smoke run is too
	// short for a percentile, is unresolved — never worse.
	if code := run([]string{"-compare", out, out}, &stdout, &stderr); code != 0 {
		t.Errorf("comparing a result file with itself exited %d\n%s", code, stderr.String())
	}
}

// TestTraceBudget checks the substitution method on twig_ad_warm: within an
// op, the self times of the chain below the op add up to the op. They do so
// exactly unless a substitute ran slower than the call it stands in for, so
// the median op has to come within 10%.
func TestTraceBudget(t *testing.T) {
	w, _ := findWorkload("twig_ad_warm")
	w.ops = 32 // eight reference ops, eight traced ops, eight substitutions
	dir := t.TempDir()
	if res := runTraced(w, runOpts{seed: 1, outDir: dir}); !res.Correct {
		t.Fatal(res.Errors)
	}
	var file struct{ Spans []span }
	data, err := os.ReadFile(filepath.Join(dir, "trace-twig_ad_warm.json"))
	if err == nil {
		err = json.Unmarshal(data, &file)
	}
	if err != nil {
		t.Fatal(err)
	}
	chain := map[string]bool{"xmjoin.execute": true, "core.xjoin": true, "core.stream": true, "wcoj.join": true,
		"structix.ad_open": true, "wcoj.table_open": true, "xmldb.value_open": true}
	self := selfTimes(file.Spans)
	sum, op := map[int]float64{}, map[int]float64{}
	for _, s := range file.Spans {
		if chain[s.Name] {
			sum[s.Op] += float64(self[s.ID])
		}
		if s.Name == "xmjoin.execute" {
			op[s.Op] = float64(s.dur())
		}
	}
	var ratios []float64
	for i, d := range op {
		ratios = append(ratios, sum[i]/d)
	}
	if len(ratios) != 8 {
		t.Fatalf("%d traced ops, want 8", len(ratios))
	}
	r := median(sortedCopy(ratios))
	t.Logf("self times ÷ op, per op: %.3f", ratios)
	if r < 0.9 || r > 1.1 {
		t.Errorf("layer self times sum to %.2f of their op (median over ops): %v", r, ratios)
	}
}

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the catalogue")

// TestBenchmarkJSON keeps BENCHMARK.json in step with the workload table
// and the metric catalogue.
func TestBenchmarkJSON(t *testing.T) {
	type named struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type perLayerDef struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	type decl struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []named       `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []perLayerDef `json:"per_layer"`
	}
	want := decl{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: 18, EndToEnd: endToEnd}
	for _, w := range workloads {
		want.Workloads = append(want.Workloads, named{w.name, w.why})
	}
	for _, m := range perLayer {
		want.PerLayer = append(want.PerLayer, perLayerDef{m.Name, m.Unit, m.Better})
	}
	const path = "../BENCHMARK.json"
	if *update {
		data, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got decl
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s is out of step with the catalogue; go test -run TestBenchmarkJSON -update rewrites it", path)
	}
}
