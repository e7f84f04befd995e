package main

import (
	"context"
	"fmt"
	"io"
	"maps"
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync"
	"time"
)

// params are one run's settings.
type params struct {
	seed    int64
	seconds time.Duration
	trace   bool
	scale   float64
	workDir string
}

// clients is the closed-loop client count: one per CPU of the two-CPU
// hosts the benchmark is sized for.
const clients = 2

// workload runs one workload and returns its report.
type workload func(ctx context.Context, p params) (*report, error)

var workloads = map[string]workload{
	"micro-lookup":   runMicro,
	"astro-http":     runAstro,
	"genomics-mixed": runGenomics,
}

func workloadNames() []string { return slices.Sorted(maps.Keys(workloads)) }

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics an untraced run reports, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"query_p50_ms", "ms"},
	{"query_p90_ms", "ms"},
	{"query_per_s", "1/s"},
	{"execute_p50_ms", "ms"},
	{"lineage_bytes_per_input_byte", "B/B"},
	{"heap_mb", "MB"},
}

// perLayer lists the metrics a traced run reports. A workload that does
// not exercise a layer reports 0 for it.
var perLayer = []metricDef{
	{"server.self_ms_p50", "ms"},
	{"server.resp_bytes_per_query", "B/query"},
	{"server.shed", "count"},
	{"client.retries", "count"},
	{"subzero.query_self_ms_p50", "ms"},
	{"query.steps_per_query", "steps/query"},
	{"query.step_ms.map", "ms/query"},
	{"query.step_ms.composite", "ms/query"},
	{"query.step_ms.entire-array", "ms/query"},
	{"query.step_ms.store", "ms/query"},
	{"query.step_ms.store-scan", "ms/query"},
	{"query.fallback_frac", "frac"},
	{"lineage.store_self_ms_per_query", "ms/query"},
	{"kvstore.keys_read_per_query", "keys/query"},
	{"kvstore.bytes_read_per_query", "B/query"},
	{"kvstore.get_batch_ms_per_query", "ms/query"},
	{"kvstore.probe_self_ms_per_query", "ms/query"},
	{"kvstore.scans_per_query", "scans/query"},
	{"workflow.reexec_ms_per_query", "ms/query"},
	{"workflow.node_self_ms_per_execute", "ms/execute"},
	{"lineage.ingest.pairs_per_execute", "pairs/execute"},
	{"lineage.ingest.enqueue_stall_ms_per_execute", "ms/execute"},
	{"lineage.ingest.drain_ms_per_execute", "ms/execute"},
	{"lineage.ingest.shard_busy_ms_per_execute", "ms/execute"},
	{"kvstore.put_batches_per_execute", "count/execute"},
	{"kvstore.bytes_written_per_execute", "B/execute"},
	{"kvstore.put_batch_ms_per_execute", "ms/execute"},
	{"lineage.stored_bytes", "B"},
	{"lineage.logical_bytes", "B"},
	{"runtime.alloc_bytes_per_query", "B/query"},
	{"runtime.allocs_per_query", "allocs/query"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.heap_live_end_mb", "MB"},
	{"trace.overhead_frac", "frac"},
}

// metric is one measured value with the number of samples behind it.
type metric struct {
	metricDef
	value   float64
	samples int
}

// report is one run's outcome.
type report struct {
	attempted int
	failed    int
	metrics   []metric
	spans     []spanRec
}

// units maps every metric to its unit.
var units = func() map[string]string {
	m := map[string]string{}
	for _, d := range append(slices.Clone(endToEnd), perLayer...) {
		m[d.name] = d.unit
	}
	return m
}()

// add reports a metric of the endToEnd or perLayer list.
func (r *report) add(name string, value float64, samples int) {
	unit, ok := units[name]
	if !ok {
		panic("perfbench: unlisted metric " + name)
	}
	r.metrics = append(r.metrics, metric{metricDef{name, unit}, value, samples})
}

// fillPerLayer adds a zero for every per-layer metric the workload did
// not measure, so every traced run reports the full list.
func (r *report) fillPerLayer() {
	for _, d := range perLayer {
		if !slices.ContainsFunc(r.metrics, func(m metric) bool { return m.name == d.name }) {
			r.add(d.name, 0, 0)
		}
	}
}

func (r *report) printTable(w io.Writer, name string, p params) {
	fmt.Fprintf(w, "perfbench: workload=%s seed=%d seconds=%g trace=%v\n",
		name, p.seed, p.seconds.Seconds(), p.trace)
	fmt.Fprintf(w, "%-46s %16s  %-14s %s\n", "metric", "value", "unit", "samples")
	for _, m := range r.metrics {
		fmt.Fprintf(w, "%-46s %16.6g  %-14s %d\n", m.name, m.value, m.unit, m.samples)
	}
	frac := 0.0
	if r.attempted > 0 {
		frac = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "%-46s %16.6g  %-14s %d\n", "failed_frac", frac, "frac", r.attempted)
}

// summary is the final JSON line.
func (r *report) summary() map[string]any {
	out := make(map[string]any, len(r.metrics))
	for _, m := range r.metrics {
		out[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	return map[string]any{
		"correct":   r.failed == 0,
		"attempted": max(r.attempted, 1),
		"failed":    r.failed,
		"metrics":   out,
	}
}

// quantile returns the q-quantile of xs by the nearest-rank rule. xs is
// sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// closedLoop runs n clients until d has passed or ctx ends. Each client
// calls op back to back: the next request leaves when the previous one
// returned. An error from op stops every client and is returned.
func closedLoop(ctx context.Context, n int, d time.Duration, op func(ctx context.Context, client int) error) (time.Duration, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	deadline := time.Now().Add(d)
	start := time.Now()
	errs := make([]error, n)
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil && time.Now().Before(deadline) {
				if err := op(ctx, c); err != nil {
					errs[c] = err
					cancel()
					return
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return elapsed, err
		}
	}
	return elapsed, ctx.Err()
}

// setupTimer builds a workload's resident state and times each build.
type setupTimer[T interface{ close() }] struct {
	build func() (T, error)
	secs  []float64
}

// timeBuild builds the state once and records how long that took.
func (s *setupTimer[T]) timeBuild() (T, error) {
	runtime.GC()
	start := time.Now()
	env, err := s.build()
	if err == nil {
		s.secs = append(s.secs, time.Since(start).Seconds())
	}
	return env, err
}

// resample builds and closes the state n more times. The untraced phase
// calls it between its slices, so the set-up samples, like the query
// samples, spread over the whole run.
func (s *setupTimer[T]) resample(n int) error {
	for range n {
		env, err := s.timeBuild()
		if err != nil {
			return err
		}
		env.close()
	}
	return nil
}

// report adds the median set-up time.
func (s *setupTimer[T]) report(r *report) {
	r.add("setup_s", median(s.secs), len(s.secs))
}

// heapLiveMB forces a collection and reads the live heap.
func heapLiveMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return float64(s[0].Value.Uint64()) / (1 << 20)
}
