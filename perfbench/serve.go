package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"statsize"
	"statsize/client"
	"statsize/internal/circuitgen"
	"statsize/internal/server"
)

type wireResult = server.WhatIfResultWire

// servePlan is how much work one serve-mix run does.
type servePlan struct {
	batch      int           // candidates per what-if request
	writeEvery int           // every writeEvery-th request is a write cycle
	warmup     time.Duration // load before measuring starts
	setupReps  int           // set-ups timed; setup_s is their median
	replay     int           // traced: batches replayed in process
}

func (c config) servePlan() servePlan {
	if c.short {
		return servePlan{batch: 8, writeEvery: 10, setupReps: 1, replay: 8}
	}
	return servePlan{batch: 8, writeEvery: 10, warmup: 3 * time.Second, setupReps: 21, replay: 200}
}

const (
	spanHeader = "X-Bench-Span"
	opHeader   = "X-Bench-Op"
)

type spanKey struct{}

// spanCtx carries the benchmark's client span to the transport, which
// forwards it to the server middleware as the parent of the server span.
type spanCtx struct{ span, op int64 }

// countingTransport counts HTTP attempts and tags each request with its
// client span; attempts minus logical calls are client retries.
type countingTransport struct {
	base     http.RoundTripper
	attempts atomic.Int64
}

func (t *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	t.attempts.Add(1)
	if sc, ok := r.Context().Value(spanKey{}).(spanCtx); ok && sc.span != 0 {
		r = r.Clone(r.Context())
		r.Header.Set(spanHeader, strconv.FormatInt(sc.span, 10))
		r.Header.Set(opHeader, strconv.FormatInt(sc.op, 10))
	}
	return t.base.RoundTrip(r)
}

// statusRecorder captures the status a handler wrote.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (w *statusRecorder) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusRecorder) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// harness is one in-process daemon on a loopback listener plus the
// resilient client that talks to it.
type harness struct {
	srv       *server.Server
	served    chan error
	transport *http.Transport
	rt        *countingTransport
	cl        *client.Client
	sessionID string
	numGates  int
	bench     string
	name      string

	mu    sync.Mutex
	codes map[int]int // responses by status, counted in the server middleware
	calls atomic.Int64
}

// startHarness generates the circuit, starts the daemon and uploads the
// netlist: the set-up a serve-mix user pays before the first what-if.
func startHarness(ctx context.Context, sp circuitgen.Spec, clients int, tr *tracer) (*harness, error) {
	eng, err := statsize.New()
	if err != nil {
		return nil, err
	}
	op := tr.newOp()
	root := tr.begin("bench.setup", 0, op)
	defer tr.end(root)
	id := tr.begin("circuitgen.Generate", root, op)
	nl, err := circuitgen.Generate(eng.Library(), sp)
	tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("circuitgen %s seed %d: %w", sp.Name, sp.Seed, err)
	}
	var bench strings.Builder
	if err := nl.WriteBench(&bench); err != nil {
		return nil, err
	}
	h := &harness{codes: map[int]int{}, bench: bench.String(), name: fmt.Sprintf("%s_s%d", sp.Name, sp.Seed)}
	h.srv = server.New(eng, server.Config{
		Logf:       func(string, ...any) {},
		Middleware: h.middleware(tr),
	})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h.served = make(chan error, 1)
	go func() { h.served <- h.srv.Serve(l) }()
	h.transport = &http.Transport{MaxIdleConnsPerHost: clients + 2}
	h.rt = &countingTransport{base: h.transport}
	h.cl, err = client.New(client.Config{BaseURL: "http://" + l.Addr().String(), Transport: h.rt, MaxRetries: -1})
	if err != nil {
		h.stop()
		return nil, err
	}
	id = tr.begin("client.Open", root, op)
	resp, err := h.cl.Open(withSpan(ctx, id, op), &client.OpenSessionRequest{Design: h.name, Bench: h.bench})
	h.calls.Add(1)
	tr.end(id)
	if err != nil {
		h.stop()
		return nil, err
	}
	h.sessionID, h.numGates = resp.SessionID, resp.NumGates
	return h, nil
}

func withSpan(ctx context.Context, span, op int64) context.Context {
	if span == 0 {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, spanCtx{span, op})
}

// middleware counts response statuses and, when tracing, records a
// server span per request under the client span that sent it.
func (h *harness) middleware(tr *tracer) func(http.Handler) http.Handler {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
			op, _ := strconv.ParseInt(r.Header.Get(opHeader), 10, 64)
			route := r.URL.Path[strings.LastIndexByte(r.URL.Path, '/')+1:]
			id := tr.begin("server."+route, parent, op)
			rec := &statusRecorder{ResponseWriter: w}
			next.ServeHTTP(rec, r)
			tr.end(id)
			if rec.code == 0 {
				rec.code = http.StatusOK
			}
			h.mu.Lock()
			h.codes[rec.code]++
			h.mu.Unlock()
		})
	}
}

func (h *harness) statusCounts() map[int]int {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make(map[int]int, len(h.codes))
	for k, v := range h.codes {
		out[k] = v
	}
	return out
}

// stop shuts the daemon down and waits for its serve loop to return.
func (h *harness) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	_ = h.srv.Shutdown(ctx) // a drain error leaves nothing for the benchmark to do
	<-h.served
	h.transport.CloseIdleConnections()
}

// serveLoad is what the closed-loop clients measured.
type serveLoad struct {
	mu        sync.Mutex
	whatifMS  []float64
	writeMS   []float64
	resizeFr  []float64
	cands     int
	attempted int
	failed    int
	errs      []error
	batches   [][]statsize.Candidate // kept for the in-process replay
}

func (l *serveLoad) fail(err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.failed++
	if len(l.errs) < 5 {
		l.errs = append(l.errs, err)
	}
}

func randomBatch(rng *rand.Rand, gates, n int) []statsize.Candidate {
	out := make([]statsize.Candidate, n)
	for i := range out {
		out[i] = statsize.Candidate{Gate: statsize.GateID(rng.Intn(gates)), Width: 1 + 0.5*float64(rng.Intn(63))}
	}
	return out
}

func toWire(cands []statsize.Candidate) []client.CandidateWire {
	out := make([]client.CandidateWire, len(cands))
	for i, c := range cands {
		out[i] = client.CandidateWire{Gate: int64(c.Gate), Width: c.Width}
	}
	return out
}

func runServeMix(ctx context.Context, c config, tr *tracer) (*outcome, error) {
	plan := c.servePlan()
	clients := runtime.NumCPU()
	sp, ok := circuitgen.ByName("c1908")
	if !ok {
		return nil, fmt.Errorf("circuitgen has no c1908 spec")
	}
	sp.Seed = c.seed
	out := newOutcome()
	out.inputs = map[string]any{
		"circuit": "c1908", "gates": sp.Gates(), "edges": sp.Edges, "depth": sp.Depth, "bins": 600,
		"clients": clients, "batch": plan.batch, "write_every": plan.writeEvery, "loop": "closed",
	}

	var h *harness
	var setups []float64
	for rep := 0; rep < plan.setupReps; rep++ {
		if h != nil {
			h.stop()
		}
		t0 := time.Now()
		var err error
		h, err = startHarness(ctx, sp, clients, tr)
		setups = append(setups, time.Since(t0).Seconds())
		if err != nil {
			return nil, err
		}
	}
	defer h.stop()
	out.e2e["setup_s"] = median(setups)

	// Warm-up: the closed loop below, unmeasured. The live heap is read
	// after it, once the daemon's working set has settled; read straight
	// after set-up it stepped between two values 128 KiB apart from run
	// to run.
	var load serveLoad
	h.runLoad(ctx, c.seed, clients, plan, time.Now().Add(plan.warmup), nil, &load, false)
	out.e2e["heap_mib"] = liveHeapMiB()

	base, err := h.cl.Analyze(ctx, h.sessionID, &client.AnalyzeRequest{})
	h.calls.Add(1)
	if err != nil {
		return nil, err
	}
	health0, err := h.cl.Health(ctx)
	h.calls.Add(1)
	if err != nil {
		return nil, err
	}

	var (
		sampler  sync.WaitGroup
		maxQueue atomic.Int64
		sampling = make(chan struct{})
		gc0      = readMem(tr != nil)
		start    = time.Now()
	)
	if tr != nil {
		sampler.Add(1)
		go func() {
			defer sampler.Done()
			h.sampleQueue(ctx, sampling, &maxQueue)
		}()
	}
	h.runLoad(ctx, c.seed+1, clients, plan, start.Add(time.Duration(c.seconds*float64(time.Second))), tr, &load, true)
	window := time.Since(start).Seconds()
	close(sampling)
	sampler.Wait()
	gc1 := readMem(tr != nil)

	out.attempted, out.failed = load.attempted, load.failed
	for _, err := range load.errs {
		out.check("request succeeded", err)
	}
	if len(load.whatifMS) == 0 {
		return nil, errors.New("serve-mix measured no what-if requests")
	}
	out.e2e["op_ms_p50"] = median(load.whatifMS)
	out.e2e["items_per_s"] = float64(load.cands) / window
	out.named("whatif_ms_p50", "ms", median(load.whatifMS))
	out.named("whatif_ms_p90", "ms", quantile(load.whatifMS, 0.9))
	out.named("whatif_ms_p99", "ms", quantile(load.whatifMS, 0.99))
	out.named("whatif_cands_per_s", "1/s", float64(load.cands)/window)
	out.named("write_cycle_ms_p50", "ms", median(load.writeMS))
	out.named("whatif_requests", "count", float64(len(load.whatifMS)))
	out.named("write_cycles", "count", float64(len(load.writeMS)))

	// Checks.
	after, err := h.cl.Analyze(ctx, h.sessionID, &client.AnalyzeRequest{})
	h.calls.Add(1)
	if err != nil {
		return nil, err
	}
	out.check("objective after load equals the objective at open", checkSameFloat(after.Objective, base.Objective))
	ref, err := openReference(ctx, h)
	if err != nil {
		return nil, err
	}
	defer ref.Close()
	probe := randomBatch(rand.New(rand.NewSource(c.seed)), h.numGates, plan.batch)
	got, err := h.cl.WhatIf(ctx, h.sessionID, &client.WhatIfRequest{Candidates: toWire(probe)})
	h.calls.Add(1)
	if err != nil {
		return nil, err
	}
	want, err := ref.WhatIfBatch(ctx, probe)
	if err != nil {
		return nil, err
	}
	out.check("HTTP what-if batch equals in-process WhatIfBatch", checkSameWhatIfs(got.Results, want))
	out.check("every response is 2xx", checkStatuses(h.statusCounts()))

	if tr != nil {
		health1, err := h.cl.Health(ctx)
		h.calls.Add(1)
		if err != nil {
			return nil, err
		}
		batchMS, visits, allocs, cands, err := replayBatches(ctx, ref, load.batches, plan.replay, tr)
		if err != nil {
			return nil, err
		}
		var non2xx int
		for code, n := range h.statusCounts() {
			if code < 200 || code > 299 {
				non2xx += n
			}
		}
		out.layer["session.whatif_batch_ms_p50"] = median(batchMS)
		out.layer["session.whatif_visits_per_cand"] = ratio(float64(visits), float64(cands))
		out.layer["session.whatif_allocs_per_cand"] = ratio(float64(allocs), float64(cands))
		out.layer["server.overhead_ms_p50"] = median(load.whatifMS) - median(batchMS)
		out.layer["session.resize_ms_p50"] = median(durations(tr.spans, "server.resize"))
		out.layer["session.resize_nodes_frac"] = median(load.resizeFr)
		out.layer["server.queued"] = float64(maxQueue.Load())
		out.layer["server.shed"] = float64(shedCount(health1) - shedCount(health0))
		out.layer["server.non2xx"] = float64(non2xx)
		out.layer["client.retries"] = float64(h.rt.attempts.Load() - h.calls.Load())
		out.layer["circuitgen.generate_ms"] = median(durations(tr.spans, "circuitgen.Generate"))
		out.layer["session.open_ms"] = median(durations(tr.spans, "server.sessions"))
		out.gcDelta(gc0, gc1)
	}
	return out, nil
}

// runLoad runs a closed loop of n clients until stopAt: each client sends
// its next request when the previous one has returned. Latencies are
// recorded into load only when record is set.
func (h *harness) runLoad(ctx context.Context, seed int64, n int, plan servePlan, stopAt time.Time, tr *tracer, load *serveLoad, record bool) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			h.clientLoop(ctx, rand.New(rand.NewSource(seed*7919+int64(i))), plan, stopAt, tr, load, record)
		}(i)
	}
	wg.Wait()
}

// clientLoop is one closed-loop client: what-if batches, and every
// writeEvery-th request a checkpoint → resize → rollback cycle.
func (h *harness) clientLoop(ctx context.Context, rng *rand.Rand, plan servePlan, stopAt time.Time, tr *tracer, load *serveLoad, record bool) {
	for k := 0; ; k++ {
		t0 := time.Now()
		if !t0.Before(stopAt) {
			return
		}
		op := tr.newOp()
		if k%plan.writeEvery == plan.writeEvery-1 {
			gate := rng.Intn(h.numGates)
			width := 1 + 0.5*float64(rng.Intn(63))
			frac, err := h.writeCycle(ctx, gate, width, tr, op)
			elapsed := time.Since(t0)
			load.mu.Lock()
			load.attempted++
			if record && err == nil {
				load.writeMS = append(load.writeMS, ms(elapsed))
				load.resizeFr = append(load.resizeFr, frac)
			}
			load.mu.Unlock()
			if err != nil {
				load.fail(fmt.Errorf("write cycle: %w", err))
			}
			continue
		}
		batch := randomBatch(rng, h.numGates, plan.batch)
		id := tr.begin("client.WhatIf", 0, op)
		_, err := h.cl.WhatIf(withSpan(ctx, id, op), h.sessionID, &client.WhatIfRequest{Candidates: toWire(batch)})
		h.calls.Add(1)
		elapsed := time.Since(t0)
		tr.end(id)
		load.mu.Lock()
		load.attempted++
		if record && err == nil {
			load.whatifMS = append(load.whatifMS, ms(elapsed))
			load.cands += len(batch)
			if len(load.batches) < 1000 {
				load.batches = append(load.batches, batch)
			}
		}
		load.mu.Unlock()
		if err != nil {
			load.fail(fmt.Errorf("what-if: %w", err))
		}
	}
}

// writeCycle checkpoints, resizes one gate and rolls back, returning the
// share of a full pass the resize recomputed.
func (h *harness) writeCycle(ctx context.Context, gate int, width float64, tr *tracer, op int64) (float64, error) {
	id := tr.begin("client.Checkpoint", 0, op)
	_, err := h.cl.Checkpoint(withSpan(ctx, id, op), h.sessionID)
	h.calls.Add(1)
	tr.end(id)
	if err != nil {
		return 0, err
	}
	id = tr.begin("client.Resize", 0, op)
	rs, err := h.cl.Resize(withSpan(ctx, id, op), h.sessionID, &client.ResizeRequest{Gate: int64(gate), Width: width})
	h.calls.Add(1)
	tr.end(id)
	var frac float64
	if err == nil {
		frac = ratio(float64(rs.NodesRecomputed), float64(rs.FullPassNodes))
	}
	// Roll back even when the resize failed: the checkpoint is ours.
	id = tr.begin("client.Rollback", 0, op)
	_, rbErr := h.cl.Rollback(withSpan(ctx, id, op), h.sessionID)
	h.calls.Add(1)
	tr.end(id)
	return frac, errors.Join(err, rbErr)
}

// sampleQueue polls /healthz until stop closes, keeping the deepest
// admission queue seen.
func (h *harness) sampleQueue(ctx context.Context, stop <-chan struct{}, deepest *atomic.Int64) {
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		hr, err := h.cl.Health(ctx)
		h.calls.Add(1)
		if err != nil || hr.Admission == nil {
			continue
		}
		var q int64
		for _, c := range hr.Admission.Classes {
			q += int64(c.Queued)
		}
		if q > deepest.Load() {
			deepest.Store(q)
		}
	}
}

func shedCount(hr *client.HealthResponse) int64 {
	var n int64
	if hr.Admission != nil {
		for _, c := range hr.Admission.Classes {
			n += c.Shed
		}
	}
	return n
}

// openReference opens an in-process session on the netlist the daemon
// was given, the reference the HTTP results must equal.
func openReference(ctx context.Context, h *harness) (*statsize.Session, error) {
	eng, err := statsize.New()
	if err != nil {
		return nil, err
	}
	d, err := eng.LoadBench(strings.NewReader(h.bench), h.name)
	if err != nil {
		return nil, err
	}
	return eng.Open(ctx, d)
}

// replayBatches runs up to n of the measured batches through the
// in-process session, timing each WhatIfBatch.
func replayBatches(ctx context.Context, s *statsize.Session, batches [][]statsize.Candidate, n int, tr *tracer) (batchMS []float64, visits, allocs, cands int, err error) {
	batches = batches[:min(n, len(batches))]
	m0 := readMem(true)
	for _, b := range batches {
		op := tr.newOp()
		id := tr.begin("session.WhatIfBatch", 0, op)
		t0 := time.Now()
		res, err := s.WhatIfBatch(ctx, b)
		batchMS = append(batchMS, ms(time.Since(t0)))
		tr.end(id)
		if err != nil {
			return nil, 0, 0, 0, err
		}
		for _, r := range res {
			visits += r.NodesVisited
		}
		cands += len(b)
	}
	m1 := readMem(true)
	return batchMS, visits, int(m1.Mallocs - m0.Mallocs), cands, nil
}
