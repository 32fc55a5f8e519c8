// Command statbench is statsize's end-to-end benchmark. It generates
// each workload's inputs from a seed, runs the workload in-process,
// checks the outputs, and prints every metric with its unit. The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Untraced runs (--trace 0) report the gated end-to-end metrics; traced
// runs (--trace 1) repeat the workload with spans around every call the
// benchmark makes into a layer and report the per-layer metrics.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload size-accel --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --workload all --seed 1           # every workload, then the Table 2 row
//	bash perfbench/run.sh --compare old.jsonl new.jsonl     # better / worse / within bound / unresolved
//	bash perfbench/run.sh --manifest > BENCHMARK.json
//
// Each run appends a record (host, seed, inputs, every metric) to
// .bench_out/runs.jsonl; traced runs also write their spans there.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// config is one run's parameters.
type config struct {
	seed    int64
	seconds float64
	short   bool // tests: the smallest plan that still runs every step
}

type workloadFunc func(ctx context.Context, c config, tr *tracer) (*outcome, error)

var runners = map[string]workloadFunc{
	"size-accel": runSizeAccel,
	"size-brute": runSizeBrute,
	"serve-mix":  runServeMix,
	"ssta-large": runSSTALarge,
}

// metric is a measured value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what one workload run produced.
type outcome struct {
	inputs    map[string]any
	attempted int
	failed    int
	e2e       map[string]float64 // the gated end-to-end metrics
	extra     []namedMetric      // the workload's own metrics, reported but not gated
	layer     map[string]float64 // traced runs only
	failures  []string           // failed correctness checks
}

type namedMetric struct {
	Name string
	metric
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
}

func (o *outcome) named(name, unit string, v float64) {
	o.extra = append(o.extra, namedMetric{name, metric{v, unit}})
}

// check records a failed correctness check; a nil err passes.
func (o *outcome) check(what string, err error) {
	if err != nil {
		o.failures = append(o.failures, fmt.Sprintf("%s: %v", what, err))
	}
}

func (o *outcome) gcDelta(m0, m1 runtime.MemStats) {
	o.layer["gc.cycles"] = float64(m1.NumGC - m0.NumGC)
	o.layer["gc.pause_ms"] = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6
}

// record is one run as kept in runs.jsonl, the input of --compare.
type record struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Trace     bool              `json:"trace"`
	Host      hostStamp         `json:"host"`
	Inputs    map[string]any    `json:"inputs"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`          // gated end-to-end metrics, untraced
	Extra     map[string]metric `json:"extra"`            // the workload's own metrics
	Layer     map[string]metric `json:"layer,omitempty"`  // per-layer metrics, traced runs
	Checks    []string          `json:"checks,omitempty"` // failed checks
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("statbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run, or all: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", runSeconds, "how long the timed phase of a run measures")
	trace := fs.Int("trace", 0, "1 repeats the run traced and reports per-layer metrics")
	outDir := fs.String("out", ".bench_out", "directory for runs.jsonl and span files")
	compare := fs.Bool("compare", false, "compare two runs.jsonl files given as arguments")
	manifestOnly := fs.Bool("manifest", false, "print BENCHMARK.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *manifestOnly:
		b, err := json.MarshalIndent(buildManifest(), "", "  ")
		if err != nil {
			fmt.Fprintln(stderr, "statbench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", b)
		return 0
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "statbench: --compare needs two runs.jsonl files")
			return 2
		}
		if err := runCompare(fs.Arg(0), fs.Arg(1), stdout); err != nil {
			fmt.Fprintln(stderr, "statbench:", err)
			return 1
		}
		return 0
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "statbench: --trace takes 0 or 1")
		return 2
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloadNames()
	} else if _, ok := runners[*workload]; !ok {
		fmt.Fprintf(stderr, "statbench: unknown workload %q (have %s, all)\n", *workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	c := config{seed: *seed, seconds: *seconds}
	host := stampHost()
	fmt.Fprintf(stdout, "host: nproc=%d GOMAXPROCS=%d cpu=%q go=%s commit=%s\n",
		host.NumCPU, host.GOMAXPROCS, host.CPUModel, host.GoVersion, host.Commit)

	ctx := context.Background()
	var recs []record
	for _, name := range names {
		rec, err := runOne(ctx, name, c, *trace == 1, host, *outDir, stdout)
		if err != nil {
			fmt.Fprintf(stderr, "statbench: %s: %v\n", name, err)
			return 1
		}
		recs = append(recs, rec)
		if err := appendRecord(filepath.Join(*outDir, "runs.jsonl"), rec); err != nil {
			fmt.Fprintln(stderr, "statbench:", err)
			return 1
		}
	}
	if len(recs) > 1 {
		printTable2(stdout, recs)
	}
	final := result{Correct: true, Metrics: map[string]metric{}}
	for _, rec := range recs {
		final.Correct = final.Correct && rec.Correct
		final.Attempted += rec.Attempted
		final.Failed += rec.Failed
		ms := rec.Metrics
		if rec.Trace {
			ms = rec.Layer
		}
		for k, v := range ms {
			if len(recs) > 1 {
				k = rec.Workload + "/" + k
			}
			final.Metrics[k] = v
		}
	}
	b, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintln(stderr, "statbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", b)
	if !final.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.Name
	}
	return out
}

// runOne runs one workload untraced and, when traced is set, again with
// spans, and prints what it measured.
func runOne(ctx context.Context, name string, c config, traced bool, host hostStamp, outDir string, stdout io.Writer) (record, error) {
	fn := runners[name]
	o, err := fn(ctx, c, nil)
	if err != nil {
		return record{}, err
	}
	rec := record{
		Workload: name, Seed: c.seed, Seconds: c.seconds, Trace: traced, Host: host, Inputs: o.inputs,
		Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metric{}, Extra: map[string]metric{},
		Checks: o.failures,
	}
	for _, m := range endToEnd {
		v, ok := o.e2e[m.Name]
		if !ok {
			return record{}, fmt.Errorf("workload reported no %s", m.Name)
		}
		rec.Metrics[m.Name] = metric{v, m.Unit}
	}
	for _, m := range o.extra {
		rec.Extra[m.Name] = m.metric
	}
	if traced {
		tr := newTracer()
		to, err := fn(ctx, c, tr)
		if err != nil {
			return record{}, fmt.Errorf("traced run: %w", err)
		}
		rec.Attempted += to.attempted
		rec.Failed += to.failed
		rec.Checks = append(rec.Checks, to.failures...)
		self := selfTimes(tr.spans)
		for layer, v := range self {
			to.layer[layer+".self_ms"] = v
		}
		to.layer["trace.spans"] = float64(len(tr.spans))
		to.layer["trace.overhead_pct"] = 100 * (to.e2e["op_ms_p50"] - o.e2e["op_ms_p50"]) / o.e2e["op_ms_p50"]
		rec.Layer = map[string]metric{}
		for _, m := range perLayer {
			rec.Layer[m.Name] = metric{to.layer[m.Name], m.Unit}
		}
		path := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.json", name, c.seed))
		if err := writeSpans(path, tr.spans); err != nil {
			return record{}, err
		}
		fmt.Fprintf(stdout, "%s: %d spans written to %s\n", name, len(tr.spans), path)
	}
	rec.Correct = len(rec.Checks) == 0
	printRecord(stdout, rec)
	return rec, nil
}

func printRecord(w io.Writer, rec record) {
	fmt.Fprintf(w, "%s seed=%d inputs: %s\n", rec.Workload, rec.Seed, formatInputs(rec.Inputs))
	for _, m := range endToEnd {
		v := rec.Metrics[m.Name]
		fmt.Fprintf(w, "%s %-12s %14.4f %s\n", rec.Workload, m.Name, v.Value, v.Unit)
	}
	for _, name := range sortedKeys(rec.Extra) {
		v := rec.Extra[name]
		fmt.Fprintf(w, "%s %-20s %14.4f %s\n", rec.Workload, name, v.Value, v.Unit)
	}
	for _, m := range perLayer {
		if v, ok := rec.Layer[m.Name]; ok {
			fmt.Fprintf(w, "%s layer %-32s %14.4f %s\n", rec.Workload, m.Name, v.Value, v.Unit)
		}
	}
	for _, f := range rec.Checks {
		fmt.Fprintf(w, "%s CHECK FAILED: %s\n", rec.Workload, f)
	}
}

func formatInputs(in map[string]any) string {
	var parts []string
	for _, k := range sortedKeys(in) {
		parts = append(parts, fmt.Sprintf("%s=%v", k, in[k]))
	}
	return strings.Join(parts, " ")
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// printTable2 prints the paper's Table 2 row from a size-accel and a
// size-brute run of the same seed: brute/accel ratios of the median
// iteration and of the nodes visited per iteration, the pruning rate
// and the p99 improvement.
func printTable2(w io.Writer, recs []record) {
	var accel, brute *record
	for i := range recs {
		switch recs[i].Workload {
		case "size-accel":
			accel = &recs[i]
		case "size-brute":
			brute = &recs[i]
		}
	}
	if accel == nil || brute == nil {
		return
	}
	op := func(r *record) float64 { return r.Metrics["op_ms_p50"].Value }
	visits := func(r *record) float64 { return r.Extra["visits_per_iter"].Value }
	row := fmt.Sprintf("table2 seed=%d iter_ms_p50 brute/accel=%.2fx (%.1f/%.1f ms) visits/iter brute/accel=%.2fx prune_rate=%.3f p99_improvement=%.2f%%",
		accel.Seed, op(brute)/op(accel), op(brute), op(accel), visits(brute)/visits(accel),
		accel.Extra["prune_rate"].Value, accel.Extra["p99_improvement_pct"].Value)
	fmt.Fprintln(w, row)
}

func appendRecord(path string, rec record) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
