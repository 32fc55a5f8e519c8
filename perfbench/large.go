package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"statsize"
	"statsize/internal/circuitgen"
)

// largeSpec is the ssta-large circuit: 5×10⁴ gates at about the ISCAS
// replicas' pins per gate, 1000 inputs, 800 outputs and logic depth 120.
func largeSpec(seed int64) circuitgen.Spec {
	return circuitgen.Spec{Name: "large50k", Nodes: 51002, Edges: 91800, PIs: 1000, POs: 800, Depth: 120, Seed: seed}
}

type largePlan struct {
	setupReps int           // set-ups timed; setup_s is their median
	warmup    time.Duration // untimed passes before the timed phase
	serial    int           // traced: serial passes timed
}

func (c config) largePlan() largePlan {
	if c.short {
		return largePlan{setupReps: 1, serial: 1}
	}
	return largePlan{setupReps: 5, warmup: 3 * time.Second, serial: 3}
}

func runSSTALarge(ctx context.Context, c config, tr *tracer) (*outcome, error) {
	plan := c.largePlan()
	sp := largeSpec(c.seed)
	eng, err := statsize.New()
	if err != nil {
		return nil, err
	}
	out := newOutcome()
	out.inputs = map[string]any{
		"circuit": sp.Name, "gates": sp.Gates(), "edges": sp.Edges, "depth": sp.Depth,
		"bins": eng.Bins(), "parallelism": eng.Parallelism(),
	}

	var (
		d      *statsize.Design
		setups []float64
		total  int
	)
	for rep := 0; rep < plan.setupReps; rep++ {
		d = nil
		runtime.GC() // drop the previous repetition's design before timing
		op := tr.newOp()
		root := tr.begin("bench.setup", 0, op)
		t0 := time.Now()
		id := tr.begin("circuitgen.Generate", root, op)
		gd, err := eng.GenerateCircuit(sp)
		tr.end(id)
		if err != nil {
			tr.end(root)
			return nil, fmt.Errorf("circuitgen %s seed %d: %w", sp.Name, sp.Seed, err)
		}
		id = tr.begin("session.Open", root, op)
		s, err := eng.Open(ctx, gd)
		tr.end(id)
		setups = append(setups, time.Since(t0).Seconds())
		tr.end(root)
		if err != nil {
			return nil, err
		}
		if rep == plan.setupReps-1 {
			out.e2e["heap_mib"] = liveHeapMiB()
			st, err := s.Stats()
			if err != nil {
				s.Close()
				return nil, err
			}
			total = st.TotalNodes
		}
		s.Close()
		d = gd
	}
	out.e2e["setup_s"] = median(setups)

	for start := time.Now(); time.Since(start) < plan.warmup; {
		if _, err := eng.AnalyzeSSTA(ctx, d); err != nil {
			return nil, err
		}
	}

	// Timed phase: full passes until the budget is spent.
	var passMS []float64
	gc0 := readMem(tr != nil)
	phase := time.Now()
	budget := time.Duration(c.seconds * float64(time.Second))
	var sink *statsize.Dist
	for len(passMS) == 0 || time.Since(phase) < budget {
		op := tr.newOp()
		id := tr.begin("ssta.AnalyzeParallel", 0, op)
		t0 := time.Now()
		a, err := eng.AnalyzeSSTA(ctx, d)
		passMS = append(passMS, ms(time.Since(t0)))
		tr.end(id)
		out.attempted++
		if err != nil {
			out.failed++
			return nil, err
		}
		sink = a.SinkDist()
	}
	elapsed := time.Since(phase).Seconds()
	gc1 := readMem(tr != nil)
	out.e2e["op_ms_p50"] = median(passMS)
	out.e2e["items_per_s"] = float64(total*len(passMS)) / elapsed
	out.named("pass_ms_p50", "ms", median(passMS))
	out.named("pass_ms_p90", "ms", quantile(passMS, 0.9))
	out.named("passes", "count", float64(len(passMS)))

	// Check: the level-parallel pass equals the serial one, bit for bit.
	serialEng, err := statsize.New(statsize.WithParallelism(1))
	if err != nil {
		return nil, err
	}
	var serialMS []float64
	var serialSink *statsize.Dist
	for i := 0; i < plan.serial; i++ {
		op := tr.newOp()
		id := tr.begin("ssta.Analyze", 0, op)
		t0 := time.Now()
		a, err := serialEng.AnalyzeSSTA(ctx, d)
		serialMS = append(serialMS, ms(time.Since(t0)))
		tr.end(id)
		if err != nil {
			return nil, err
		}
		serialSink = a.SinkDist()
		if tr == nil {
			break // untraced runs need the check, not the timing
		}
	}
	out.check("parallel pass equals the serial pass", checkSameDist(bitsOf(sink), bitsOf(serialSink)))

	if tr != nil {
		p50 := median(passMS)
		out.layer["ssta.us_per_node"] = p50 * 1e3 / float64(total)
		out.layer["ssta.pass_ms_serial"] = median(serialMS)
		out.layer["ssta.parallel_efficiency"] = median(serialMS) / (float64(eng.Parallelism()) * p50)
		out.layer["ssta.heap_kib_per_gate"] = out.e2e["heap_mib"] * 1024 / float64(sp.Gates())
		out.layer["circuitgen.generate_ms"] = median(durations(tr.spans, "circuitgen.Generate"))
		out.layer["session.open_ms"] = median(durations(tr.spans, "session.Open"))
		out.gcDelta(gc0, gc1)
	}
	return out, nil
}
