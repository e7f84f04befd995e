package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"slices"
	"sync"
	"time"

	"subzero"
	"subzero/internal/trace"
)

// worker is one closed-loop client's state and results.
type worker struct {
	id        int
	rng       *rand.Rand
	n         int       // requests issued
	lat       []float64 // ms per completed query
	exec      []float64 // ms per completed execute
	attempted int
	failed    int
	steps     *stepTally
	cells     []uint64 // answer scratch
	errs      []string
}

// phase is one timed phase across all clients.
type phase struct {
	rates   []float64 // completed queries per second, by slice
	clients []*worker
	spans   *spanTally // nil when untraced
}

// runPhase drives n closed-loop clients for d, split into equal parts
// with between called in each gap while no request is in flight. Client
// c draws its requests from a generator seeded by (seed, salt, c), so a
// phase's request sequence depends only on the seed. spans, when not
// nil, traces every request.
func runPhase(ctx context.Context, seed int64, salt uint64, n int, d time.Duration, parts int, between func(gap int) error, spans *spanTally, op func(ctx context.Context, ph *phase, c *worker) error) (*phase, error) {
	ph := &phase{clients: make([]*worker, n), spans: spans}
	for i := range ph.clients {
		ph.clients[i] = &worker{id: i, rng: rand.New(rand.NewPCG(uint64(seed), salt<<8|uint64(i))), steps: newStepTally()}
	}
	for s := range max(parts, 1) {
		if s > 0 && between != nil {
			if err := between(s); err != nil {
				return nil, err
			}
		}
		done := len(ph.latencies())
		elapsed, err := closedLoop(ctx, n, d/time.Duration(max(parts, 1)), func(ctx context.Context, i int) error {
			return op(ctx, ph, ph.clients[i])
		})
		if err != nil {
			return nil, err
		}
		ph.rates = append(ph.rates, float64(len(ph.latencies())-done)/elapsed.Seconds())
	}
	return ph, nil
}

// fail counts a failed operation or wrong answer.
func (c *worker) fail(format string, args ...any) {
	c.failed++
	if len(c.errs) < 3 {
		c.errs = append(c.errs, fmt.Sprintf(format, args...))
	}
}

// latencies returns every client's query latencies, in ms.
func (ph *phase) latencies() []float64 {
	var all []float64
	for _, c := range ph.clients {
		all = append(all, c.lat...)
	}
	return all
}

// executes returns every client's execute times, in ms.
func (ph *phase) executes() []float64 {
	var all []float64
	for _, c := range ph.clients {
		all = append(all, c.exec...)
	}
	return all
}

// steps merges every client's step tally.
func (ph *phase) steps() *stepTally {
	t := newStepTally()
	for _, c := range ph.clients {
		t.merge(c.steps)
	}
	return t
}

// fold adds the phase's operation counts to the report.
func (r *report) fold(ph *phase) {
	for _, c := range ph.clients {
		r.attempted += c.attempted
		r.failed += c.failed
		for _, e := range c.errs {
			fmt.Fprintln(os.Stderr, "perfbench: FAILED:", e)
		}
	}
}

// addLatency reports the query latency of a phase and its throughput,
// the median over the phase's slices.
func (r *report) addLatency(ph *phase) {
	lat := ph.latencies()
	r.add("query_p50_ms", quantile(lat, 0.5), len(lat))
	r.add("query_p90_ms", quantile(lat, 0.9), len(lat))
	r.add("query_per_s", median(ph.rates), len(ph.rates))
}

// query runs q in-process through System.Query, checks the answer
// against want cell for cell and records the latency and step reports.
// In a traced phase the call runs under a benchmark root span.
func (c *worker) query(ctx context.Context, ph *phase, sys *subzero.System, run string, q subzero.Query, want []uint64) error {
	c.attempted++
	var root *trace.Span
	if ph.spans != nil {
		root = ph.spans.start(rootQuery)
		ctx = trace.ContextWithSpan(ctx, root)
	}
	start := time.Now()
	res, err := sys.Query(ctx, run, q)
	wall := time.Since(start)
	if ph.spans != nil {
		if ferr := ph.spans.finish(root, ""); ferr != nil {
			return ferr
		}
	}
	if err != nil {
		if ctx.Err() != nil {
			c.attempted--
			return nil
		}
		c.fail("query on %s: %v", run, err)
		return nil
	}
	c.lat = append(c.lat, ms(wall))
	for _, st := range res.Steps {
		c.steps.step(st.AccessPath, st.Elapsed, st.FellBack)
	}
	c.steps.query(wall, res.Elapsed)
	c.cells = res.Bitmap.Cells(c.cells[:0])
	if !slices.Equal(c.cells, want) {
		c.fail("query on %s: %d cells, want %d", run, len(c.cells), len(want))
	}
	return nil
}

// checkPool runs every pool query once against run and compares it with
// the reference answer, counting each as an attempted operation. It runs
// outside every timed phase.
func checkPool(ctx context.Context, r *report, sys *subzero.System, run string, queries []subzero.Query, want [][]uint64) (*phase, error) {
	ph := &phase{clients: []*worker{{steps: newStepTally()}, {steps: newStepTally()}}}
	errs := make([]error, len(ph.clients))
	var wg sync.WaitGroup
	for w, c := range ph.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(queries) && errs[w] == nil; i += len(ph.clients) {
				errs[w] = c.query(ctx, ph, sys, run, queries[i], want[i])
			}
		}()
	}
	wg.Wait()
	r.fold(ph)
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return ph, ctx.Err()
}

// phaseSlices is how many equal slices an untraced phase is cut into; its
// throughput is the median over them.
const phaseSlices = 10

// timed describes a workload's timed phases.
type timed struct {
	sys *subzero.System
	// op issues one request of one client.
	op func(ctx context.Context, ph *phase, c *worker) error
	// between, when not nil, runs in each gap between the untraced
	// phase's slices.
	between func(gap int) error
	// onTrace, when not nil, is called with the traced half's tally
	// before that half starts.
	onTrace func(*spanTally) error
}

// measure runs a workload's timed phases. Untraced, it is one phase of
// p.seconds that reports query latency and throughput. Traced, it is an
// untraced half that reports the counter and step-report metrics, then
// a traced half that reports span self times and the tracing overhead.
// It returns the untraced phase.
func measure(ctx context.Context, p params, r *report, t timed) (*phase, error) {
	if !p.trace {
		ph, err := runPhase(ctx, p.seed, 1, clients, p.seconds, phaseSlices, t.between, nil, t.op)
		if err != nil {
			return nil, err
		}
		r.fold(ph)
		r.addLatency(ph)
		return ph, nil
	}
	half := p.seconds / 2
	before := snapshot(t.sys)
	ph, err := runPhase(ctx, p.seed, 1, clients, half, 1, nil, nil, t.op)
	if err != nil {
		return nil, err
	}
	after := snapshot(t.sys)
	r.fold(ph)
	steps := ph.steps()
	r.addSteps(steps)
	r.addQueryCounters(before, after, steps.queries)
	if n := len(ph.executes()); n > 0 {
		r.addExecuteCounters(before, after, n)
	}
	r.add("runtime.heap_live_end_mb", heapLiveMB(), 1)

	spans := newSpanTally()
	if t.onTrace != nil {
		if err := t.onTrace(spans); err != nil {
			return nil, err
		}
	}
	tph, err := runPhase(ctx, p.seed, 2, clients, half, 1, nil, spans, t.op)
	if err != nil {
		return nil, err
	}
	r.fold(tph)
	r.addSpanSelf(tph.spans)
	base, traced := quantile(ph.latencies(), 0.5), tph.latencies()
	overhead := 0.0
	if base > 0 {
		overhead = quantile(traced, 0.5)/base - 1
	}
	r.add("trace.overhead_frac", overhead, len(traced))
	return ph, nil
}

// flatten lists a pool's queries path by path; first[p] is the index of
// path p's first query.
func flatten(pool [][]subzero.Query) (queries []subzero.Query, first []int) {
	for _, qs := range pool {
		first = append(first, len(queries))
		queries = append(queries, qs...)
	}
	return queries, first
}
