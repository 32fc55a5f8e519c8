package statsize

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/traces golden files from the current implementation")

// formatTrace renders a Result in the golden trace format: every float
// in hex so the comparison is bit-exact.
func formatTrace(circuit, opt string, res *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# golden optimizer trace: %s %s (MaxIterations=10 Bins=400)\n", circuit, opt)
	fmt.Fprintf(&b, "initial %x %x\n", res.InitialObjective, res.InitialWidth)
	for _, r := range res.Records {
		gates := make([]string, len(r.Gates))
		for i, g := range r.Gates {
			gates[i] = fmt.Sprint(g)
		}
		fmt.Fprintf(&b, "iter %d gates=%s sens=%x obj=%x width=%x considered=%d pruned=%d visited=%d\n",
			r.Iter, strings.Join(gates, ","), r.Sensitivity, r.Objective, r.TotalWidth,
			r.CandidatesConsidered, r.CandidatesPruned, r.NodesVisited)
	}
	fmt.Fprintf(&b, "final %x %x\n", res.FinalObjective, res.FinalWidth)
	return b.String()
}

// TestGoldenTraces pins the optimizer trajectories to golden files
// captured from the pre-Session implementation: gate choice per
// iteration, sensitivities, objectives, widths and the candidate /
// pruning / visit counters must be bit-identical for the deterministic,
// brute-force and accelerated strategies on c432, c880 and c1908 (the
// benchmark workhorse of the incremental-timing tests). This is the
// proof that plumbing refactors change the plumbing, not the
// algorithm.
func TestGoldenTraces(t *testing.T) {
	if testing.Short() {
		t.Skip("golden traces cover c880/c1908 brute force; skipped with -short")
	}
	eng, err := New()
	if err != nil {
		t.Fatal(err)
	}
	for _, circuit := range []string{"c432", "c880", "c1908"} {
		for _, opt := range []string{"deterministic", "brute-force", "accelerated"} {
			t.Run(circuit+"/"+opt, func(t *testing.T) {
				d, err := eng.Benchmark(circuit)
				if err != nil {
					t.Fatal(err)
				}
				res, err := eng.Optimize(context.Background(), d, opt,
					WithConfig(Config{MaxIterations: 10, Bins: 400}))
				if err != nil {
					t.Fatal(err)
				}
				got := formatTrace(circuit, opt, res)
				path := filepath.Join("testdata", "traces", fmt.Sprintf("%s_%s.txt", circuit, opt))
				if *updateGolden {
					if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
						t.Fatal(err)
					}
					return
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if got != string(want) {
					gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
					for i := range gotLines {
						if i >= len(wantLines) || gotLines[i] != wantLines[i] {
							t.Fatalf("trace diverges from golden at line %d:\n got  %q\n want %q",
								i+1, gotLines[i], wantLines[min(i, len(wantLines)-1)])
						}
					}
					t.Fatalf("trace diverges from golden (golden has %d lines, got %d)",
						len(wantLines), len(gotLines))
				}
			})
		}
	}
}

// TestOptimizerTracesIndependentOfWorkers runs the candidate-sweeping
// optimizers on c880 serially and with three workers: the traces,
// visit and pruning counts included, must be byte-identical. Results
// merge in candidate order, never completion order, so the worker
// count may only change how fast they arrive.
func TestOptimizerTracesIndependentOfWorkers(t *testing.T) {
	eng, err := New()
	if err != nil {
		t.Fatal(err)
	}
	for _, opt := range []string{"accelerated", "brute-force"} {
		t.Run(opt, func(t *testing.T) {
			var traces []string
			for _, workers := range []int{1, 3} {
				d, err := eng.Benchmark("c880")
				if err != nil {
					t.Fatal(err)
				}
				res, err := eng.Optimize(context.Background(), d, opt,
					WithConfig(Config{MaxIterations: 3, Bins: 400, Parallelism: workers}))
				if err != nil {
					t.Fatal(err)
				}
				if res.Iterations == 0 {
					t.Fatalf("%d workers: no iterations", workers)
				}
				traces = append(traces, formatTrace("c880", opt, res))
			}
			if traces[0] != traces[1] {
				t.Errorf("trace with 3 workers differs from the serial one:\n serial:\n%s\n 3 workers:\n%s", traces[0], traces[1])
			}
		})
	}
}
