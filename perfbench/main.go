// Command perfbench is the repository benchmark. It drives the public
// surfaces of the spcg module from outside — the solver functions, the spcgd
// service handler over loopback HTTP, the spcggw gateway handler in front of
// in-process backends, and the spmd runtime through the facade — checks every
// solution it gets back, and prints one JSON result line.
//
//	bash perfbench/run.sh --workload solve-large --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1 a
// separate traced run reports the per-layer breakdown. README.md lists the
// workloads, the metrics and what each metric is predicted to move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metric is one named value with its unit, as printed in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one run's command line.
type config struct {
	seed    int64
	seconds time.Duration
	trace   bool
}

// workloadFuncs maps each workload name to its runner.
var workloadFuncs = map[string]func(config) (*report, error){
	"solve-large":  runSolveLarge,
	"serve-warm":   runServeWarm,
	"gateway-cold": runGatewayCold,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: solve-large, serve-warm or gateway-cold")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 10, "measured wall seconds")
	trace := fs.Int("trace", 0, "0 = end-to-end metrics, 1 = traced per-layer run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runFn, ok := workloadFuncs[*workload]
	if !ok || fs.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload %s, --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	cfg := config{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), trace: *trace == 1}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	st := stampEnv(root, *workload, cfg)

	rep, err := runFn(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	res := rep.result(cfg.trace)

	failures := append(append([]string(nil), rep.failures...), rep.runErrors...)
	for _, msg := range failures {
		fmt.Fprintln(stderr, "perfbench: check failed:", msg)
	}
	stampLine, _ := json.Marshal(st)
	propLine, _ := json.Marshal(rep.props)
	fmt.Fprintf(stdout, "# stamp %s\n# properties %s\n", stampLine, propLine)
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(stdout, "%-14s %-40s %14.6g %s\n", *workload, k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	if !cfg.trace {
		// failed_frac is 0 on a healthy run, so the result line carries its
		// complement ok_frac; the count itself is printed here.
		fmt.Fprintf(stdout, "%-14s %-40s %14.6g %s\n", *workload, "failed_frac", frac(res.Failed, res.Attempted), "frac")
	}
	if err := writeOutFile(root, *workload, cfg, st, rep, res, failures); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, _ := json.Marshal(res)
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	out := make([]string, 0, len(workloadFuncs))
	for k := range workloadFuncs {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// writeOutFile keeps the run's full record — stamp, workload properties,
// metrics, failure messages and, for traced runs, every span — under
// .bench_out/ in the checkout.
func writeOutFile(root, workload string, cfg config, st stamp, rep *report, res result, failures []string) error {
	dir := filepath.Join(root, ".bench_out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	trace := 0
	if cfg.trace {
		trace = 1
	}
	doc := map[string]any{
		"stamp":      st,
		"properties": rep.props,
		"result":     res,
		"failures":   failures,
	}
	if cfg.trace {
		doc["spans"] = rep.spans
	}
	body, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", workload, cfg.seed, trace)
	return os.WriteFile(filepath.Join(dir, name), body, 0o644)
}
