package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// Verdicts of --compare, one per (workload, end-to-end metric).
const (
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictWithin     = "within bound"
	verdictUnresolved = "unresolved"
)

type verdict struct {
	Workload, Metric string
	Old, New         []float64
	Pairs, Wins      int
	Change           float64 // (new − old median) / old median; positive is worse
	Verdict          string
}

// compareSets applies the pair rule: a gain needs the new side to win
// at least nine tenths of the seed-matched pairs and the medians to
// differ by more than the old side's interquartile distance. Otherwise
// a median worse by more than the metric's bound is a regression, and
// where the old side's own spread exceeds the bound the result is
// unresolved unless every new run beats every old run.
func compareSets(old, new []record) []verdict {
	type key struct{ w, m string }
	bySeed := func(recs []record) map[key]map[int64]float64 {
		out := map[key]map[int64]float64{}
		for _, r := range recs {
			for name, v := range r.Metrics {
				k := key{r.Workload, name}
				if out[k] == nil {
					out[k] = map[int64]float64{}
				}
				out[k][r.Seed] = v.Value
			}
		}
		return out
	}
	o, n := bySeed(old), bySeed(new)
	var out []verdict
	for k, ov := range o {
		nv, ok := n[k]
		spec, known := e2eByName(k.m)
		if !ok || !known {
			continue
		}
		better := func(a, b float64) bool { // a beats b
			if spec.Better == "higher" {
				return a > b
			}
			return a < b
		}
		v := verdict{Workload: k.w, Metric: k.m}
		for seed, x := range ov {
			v.Old = append(v.Old, x)
			if y, ok := nv[seed]; ok {
				v.Pairs++
				if better(y, x) {
					v.Wins++
				}
			}
		}
		for _, y := range nv {
			v.New = append(v.New, y)
		}
		sort.Float64s(v.Old)
		sort.Float64s(v.New)
		mo, mn := median(v.Old), median(v.New)
		v.Change = (mn - mo) / math.Abs(mo)
		if spec.Better == "higher" {
			v.Change = -v.Change
		}
		q1, q3 := quartiles(v.Old)
		// Every new run beats every old one when the worst new run beats
		// the best old one.
		allBetter := better(worst(v.New, better), best(v.Old, better))
		switch {
		case v.Pairs > 0 && 10*v.Wins >= 9*v.Pairs && math.Abs(mn-mo) > q3-q1:
			v.Verdict = verdictBetter
		case allBetter:
			v.Verdict = verdictBetter
		case spread(v.Old) > spec.Bound:
			v.Verdict = verdictUnresolved
		case v.Change > spec.Bound:
			v.Verdict = verdictWorse
		default:
			v.Verdict = verdictWithin
		}
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Workload != out[j].Workload {
			return out[i].Workload < out[j].Workload
		}
		return out[i].Metric < out[j].Metric
	})
	return out
}

// worst and best pick the extreme values of xs under the beats order.
func worst(xs []float64, beats func(a, b float64) bool) float64 {
	w := xs[0]
	for _, x := range xs[1:] {
		if beats(w, x) {
			w = x
		}
	}
	return w
}

func best(xs []float64, beats func(a, b float64) bool) float64 {
	b := xs[0]
	for _, x := range xs[1:] {
		if beats(x, b) {
			b = x
		}
	}
	return b
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no records", path)
	}
	return out, nil
}

func runCompare(oldPath, newPath string, w io.Writer) error {
	old, err := readRecords(oldPath)
	if err != nil {
		return err
	}
	new, err := readRecords(newPath)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-11s %-12s %12s %12s %8s %6s  %s\n", "workload", "metric", "old median", "new median", "change", "wins", "verdict")
	for _, v := range compareSets(old, new) {
		fmt.Fprintf(w, "%-11s %-12s %12.4f %12.4f %+7.1f%% %2d/%-3d  %s\n",
			v.Workload, v.Metric, median(v.Old), median(v.New), 100*v.Change, v.Wins, v.Pairs, v.Verdict)
	}
	return nil
}
