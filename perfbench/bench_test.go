package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"statsize"
)

func TestChecksRejectCorruptedOutputs(t *testing.T) {
	recs := []statsize.IterRecord{
		{Iter: 1, Gates: []statsize.GateID{7}, Sensitivity: 0.25, Objective: 9},
		{Iter: 2, Gates: []statsize.GateID{3}, Sensitivity: 0.125, Objective: 8},
	}
	if err := checkSamePicks(recs, recs); err != nil {
		t.Fatalf("identical picks rejected: %v", err)
	}
	swapped := append([]statsize.IterRecord(nil), recs...)
	swapped[1].Gates = []statsize.GateID{4}
	if checkSamePicks(recs, swapped) == nil {
		t.Error("a swapped gate passed the exactness check")
	}
	drifted := append([]statsize.IterRecord(nil), recs...)
	drifted[0].Sensitivity += 1e-9
	if checkSamePicks(recs, drifted) == nil {
		t.Error("a sensitivity 1e-9 off passed the exactness check")
	}

	if err := checkMonotone(10, recs); err != nil {
		t.Fatalf("decreasing objectives rejected: %v", err)
	}
	if checkMonotone(8.5, recs) == nil {
		t.Error("an objective increase passed")
	}

	if err := checkSameFloat(8, 8); err != nil {
		t.Fatalf("equal objectives rejected: %v", err)
	}
	if checkSameFloat(8, math.Nextafter(8, 9)) == nil {
		t.Error("an objective perturbed by one ulp passed")
	}

	if err := checkStatuses(map[int]int{200: 40, 201: 1}); err != nil {
		t.Fatalf("2xx statuses rejected: %v", err)
	}
	if checkStatuses(map[int]int{200: 40, 503: 1}) == nil {
		t.Error("a non-2xx status passed")
	}

	pass := distBits{dt: 0.01, i0: 40, mass: []float64{0.25, 0.5, 0.25}}
	if err := checkSameDist(pass, pass); err != nil {
		t.Fatalf("identical passes rejected: %v", err)
	}
	ulp := distBits{dt: pass.dt, i0: pass.i0, mass: append([]float64(nil), pass.mass...)}
	ulp.mass[1] = math.Nextafter(ulp.mass[1], 1)
	if checkSameDist(ulp, pass) == nil {
		t.Error("a pass one ulp off passed")
	}
	shifted := distBits{dt: pass.dt, i0: pass.i0 + 1, mass: pass.mass}
	if checkSameDist(shifted, pass) == nil {
		t.Error("a shifted pass passed")
	}

	want := []statsize.WhatIfResult{{Gate: 5, Width: 2, Objective: 1.5, Delta: 0.25, Sensitivity: 0.25, NodesVisited: 12}}
	got := []wireResult{{Gate: 5, Width: 2, Objective: 1.5, Delta: 0.25, Sensitivity: 0.25, NodesVisited: 12}}
	if err := checkSameWhatIfs(got, want); err != nil {
		t.Fatalf("equal what-ifs rejected: %v", err)
	}
	got[0].Objective = math.Nextafter(1.5, 2)
	if checkSameWhatIfs(got, want) == nil {
		t.Error("a what-if objective one ulp off passed")
	}
}

// TestWorkloadsShort runs every workload at its smallest plan on seeds
// 1–5, which also proves circuitgen accepts each seeded spec.
func TestWorkloadsShort(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload five times")
	}
	ctx := context.Background()
	for _, w := range workloads {
		for seed := int64(1); seed <= 5; seed++ {
			c := config{seed: seed, seconds: 0.2, short: true}
			o, err := runners[w.Name](ctx, c, nil)
			if err != nil {
				t.Fatalf("%s seed %d: %v", w.Name, seed, err)
			}
			if len(o.failures) > 0 || o.failed > 0 || o.attempted == 0 {
				t.Errorf("%s seed %d: failures %v, %d/%d failed", w.Name, seed, o.failures, o.failed, o.attempted)
			}
			for _, m := range endToEnd {
				if v := o.e2e[m.Name]; !(v > 0) {
					t.Errorf("%s seed %d: %s = %v, want > 0", w.Name, seed, m.Name, v)
				}
			}
		}
	}
}

// TestTracedRunReportsEveryLayerMetric drives the command end to end in
// traced mode and checks the final line's contract.
func TestTracedRunReportsEveryLayerMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a workload twice")
	}
	for _, w := range []string{"size-brute", "serve-mix"} {
		var stdout, stderr bytes.Buffer
		out := t.TempDir()
		code := run([]string{"--workload", w, "--seed", "3", "--seconds", "1", "--trace", "1", "--out", out}, &stdout, &stderr)
		if code != 0 {
			t.Fatalf("%s: exit %d: %s%s", w, code, stdout.String(), stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("%s: last line is not the result: %v", w, err)
		}
		if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
			t.Errorf("%s: result %+v", w, res)
		}
		if len(res.Metrics) != len(perLayer) {
			t.Errorf("%s: %d metrics, want the %d per-layer metrics", w, len(res.Metrics), len(perLayer))
		}
		for _, m := range perLayer {
			if _, ok := res.Metrics[m.Name]; !ok {
				t.Errorf("%s: no %s", w, m.Name)
			}
		}
		if res.Metrics["client.retries"].Value != 0 {
			t.Errorf("%s: client retried %v times", w, res.Metrics["client.retries"].Value)
		}
		if _, err := os.Stat(filepath.Join(out, "spans-"+w+"-seed3.json")); err != nil {
			t.Errorf("%s: spans not written: %v", w, err)
		}
	}
}

func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	committed, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"--manifest"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	if stdout.String() != string(committed) {
		t.Errorf("BENCHMARK.json is stale; regenerate it with --manifest:\n%s", stdout.String())
	}
	if len(endToEnd) == 0 || endToEnd[0].Name != "setup_s" {
		t.Fatal("setup_s must be the first end-to-end metric")
	}
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 || m.Bound > endToEnd[0].Bound {
			t.Errorf("%s: bound %v outside (0, setup_s's %v]", m.Name, m.Bound, endToEnd[0].Bound)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(xs, n=4) on the same inputs.
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}, 1.75, 5.25},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{5, 1, 3}, 1, 5},
	} {
		q1, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "core.OptimizeSession", Start: 0, End: 10000},
		{ID: 2, Parent: 1, Name: "core.iteration", Start: 1000, End: 4000},
		{ID: 3, Parent: 1, Name: "ssta.Analyze", Start: 3000, End: 6000},
		{ID: 4, Name: "client.WhatIf", Start: 0, End: 5000},
		{ID: 5, Parent: 4, Name: "server.whatif", Start: 1000, End: 4500},
	}
	got := selfTimes(spans)
	// OptimizeSession: 10 ms minus the union 1–6 ms; iteration 3 ms; so core 8 ms.
	want := map[string]float64{"core": 8, "ssta": 3, "client": 1.5, "server": 3.5}
	for layer, w := range want {
		if math.Abs(got[layer]-w) > 1e-9 {
			t.Errorf("%s self = %v ms, want %v", layer, got[layer], w)
		}
	}
}

// synthetic builds result records for one workload with the given
// op_ms_p50 values, one per seed.
func synthetic(vals ...float64) []record {
	var out []record
	for i, v := range vals {
		out = append(out, record{Workload: "size-accel", Seed: int64(i + 1), Metrics: map[string]metric{"op_ms_p50": {v, "ms"}}})
	}
	return out
}

func TestCompareVerdicts(t *testing.T) {
	base := synthetic(100, 101, 99, 102, 98, 100, 101, 99, 100, 100)
	scale := func(f float64) []record {
		recs := synthetic(100, 101, 99, 102, 98, 100, 101, 99, 100, 100)
		for i := range recs {
			m := recs[i].Metrics["op_ms_p50"]
			m.Value *= f
			recs[i].Metrics["op_ms_p50"] = m
		}
		return recs
	}
	noisy := synthetic(60, 140, 80, 120, 100, 70, 130, 90, 110, 100)
	for _, tc := range []struct {
		name     string
		old, new []record
		want     string
	}{
		{"faster everywhere", base, scale(0.8), verdictBetter},
		{"much slower", base, scale(1.5), verdictWorse},
		{"slightly slower", base, scale(1.05), verdictWithin},
		{"unchanged", base, base, verdictWithin},
		{"old spread wider than the bound", noisy, scale(1.1), verdictUnresolved},
	} {
		vs := compareSets(tc.old, tc.new)
		if len(vs) != 1 {
			t.Fatalf("%s: %d verdicts, want 1", tc.name, len(vs))
		}
		if vs[0].Verdict != tc.want {
			t.Errorf("%s: verdict %q, want %q (%+v)", tc.name, vs[0].Verdict, tc.want, vs[0])
		}
	}
}
