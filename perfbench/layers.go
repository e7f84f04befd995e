package main

import (
	"runtime"
	"strings"
	"time"

	"subzero"
	"subzero/internal/obs"
)

// counters is a snapshot of the counters the system already exports
// (System.Observability) plus the Go runtime's allocation and GC totals.
// The difference of two snapshots is the work a phase did.
type counters struct {
	kvKeysRead, kvBytesRead, kvGetBatchNs               int64
	kvScans, kvPutBatches, kvBytesWritten, kvPutBatchNs int64
	ingPairs, ingStallNs, ingDrainNs, ingShardBusyNs    int64
	httpShed                                            int64
	mallocs, allocBytes, gcPauseNs                      uint64
}

func snapshot(sys *subzero.System) counters {
	set := sys.Observability()
	var c counters
	c.kvKeysRead = set.KV.KeysRead.Load()
	c.kvBytesRead = set.KV.BytesRead.Load()
	c.kvGetBatchNs = set.KV.GetBatchLatency.Sum()
	c.kvScans = set.KV.Scans.Load()
	c.kvPutBatches = set.KV.PutBatches.Load()
	c.kvBytesWritten = set.KV.BytesWritten.Load()
	c.kvPutBatchNs = set.KV.PutBatchLatency.Sum()
	c.ingPairs = set.Ingest.Pairs.Load()
	c.ingStallNs = set.Ingest.EnqueueStall.Sum()
	c.ingDrainNs = set.Ingest.Flush.Sum()
	set.Ingest.ShardBusy.Each(func(_ []string, n int64) { c.ingShardBusyNs += n })
	c.httpShed = set.HTTP.Shed.Load()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	c.mallocs, c.allocBytes, c.gcPauseNs = m.Mallocs, m.TotalAlloc, m.PauseTotalNs
	return c
}

// per divides a count by a base, 0 when the base is empty.
func per[T int | int64 | uint64 | float64](n T, base int) float64 {
	if base == 0 {
		return 0
	}
	return float64(n) / float64(base)
}

// addQueryCounters reports the per-query ratios of the counter deltas.
// queries is the number of queries the phase completed.
func (r *report) addQueryCounters(a, b counters, queries int) {
	r.add("kvstore.keys_read_per_query", per(b.kvKeysRead-a.kvKeysRead, queries), queries)
	r.add("kvstore.bytes_read_per_query", per(b.kvBytesRead-a.kvBytesRead, queries), queries)
	r.add("kvstore.get_batch_ms_per_query", per(b.kvGetBatchNs-a.kvGetBatchNs, queries)/1e6, queries)
	r.add("kvstore.scans_per_query", per(b.kvScans-a.kvScans, queries), queries)
	r.add("runtime.alloc_bytes_per_query", per(b.allocBytes-a.allocBytes, queries), queries)
	r.add("runtime.allocs_per_query", per(b.mallocs-a.mallocs, queries), queries)
	r.add("runtime.gc_pause_ms", float64(b.gcPauseNs-a.gcPauseNs)/1e6, queries)
	r.add("server.shed", float64(b.httpShed-a.httpShed), queries)
}

// addExecuteCounters reports the per-execute ratios of the capture-side
// counter deltas.
func (r *report) addExecuteCounters(a, b counters, executes int) {
	r.add("lineage.ingest.pairs_per_execute", per(b.ingPairs-a.ingPairs, executes), executes)
	r.add("lineage.ingest.enqueue_stall_ms_per_execute", per(b.ingStallNs-a.ingStallNs, executes)/1e6, executes)
	r.add("lineage.ingest.drain_ms_per_execute", per(b.ingDrainNs-a.ingDrainNs, executes)/1e6, executes)
	r.add("lineage.ingest.shard_busy_ms_per_execute", per(b.ingShardBusyNs-a.ingShardBusyNs, executes)/1e6, executes)
	r.add("kvstore.put_batches_per_execute", per(b.kvPutBatches-a.kvPutBatches, executes), executes)
	r.add("kvstore.bytes_written_per_execute", per(b.kvBytesWritten-a.kvBytesWritten, executes), executes)
	r.add("kvstore.put_batch_ms_per_execute", per(b.kvPutBatchNs-a.kvPutBatchNs, executes)/1e6, executes)
}

// addInventory reports the resident stores' stored and logical bytes.
func (r *report) addInventory(sys *subzero.System) {
	var stored, logical int64
	inv := sys.StoreInventory()
	for _, st := range inv {
		stored += st.StoredBytes
		logical += st.LogicalBytes
	}
	r.add("lineage.stored_bytes", float64(stored), len(inv))
	r.add("lineage.logical_bytes", float64(logical), len(inv))
}

// stepTally accumulates the step reports queries return: how many steps
// ran, where their time went by access-path class, and how often a
// materialized lookup fell back to re-execution.
type stepTally struct {
	queries  int
	steps    int
	classNs  map[string]int64
	lookups  int // steps that chose a store or composite lookup
	fellBack int
	reexecNs int64 // steps answered wholly or partly by re-execution
	selfNs   []float64
}

func newStepTally() *stepTally { return &stepTally{classNs: map[string]int64{}} }

// step records one step report.
func (t *stepTally) step(accessPath string, elapsed time.Duration, fellBack bool) {
	t.steps++
	class := obs.SpanClass(accessPath)
	t.classNs[class] += int64(elapsed)
	switch class {
	case obs.SpanStore, obs.SpanStoreScan, obs.SpanComposite:
		t.lookups++
	}
	if fellBack {
		t.fellBack++
	}
	if strings.Contains(accessPath, obs.SpanReexec) {
		t.reexecNs += int64(elapsed)
	}
}

// query records one completed query: its wall time as the caller saw it
// and the executor time the system reported.
func (t *stepTally) query(wall, executor time.Duration) {
	t.queries++
	t.selfNs = append(t.selfNs, ms(wall-executor))
}

func (t *stepTally) merge(o *stepTally) {
	t.queries += o.queries
	t.steps += o.steps
	for k, v := range o.classNs {
		t.classNs[k] += v
	}
	t.lookups += o.lookups
	t.fellBack += o.fellBack
	t.reexecNs += o.reexecNs
	t.selfNs = append(t.selfNs, o.selfNs...)
}

// addSteps reports the per-query step metrics.
func (r *report) addSteps(t *stepTally) {
	n := t.queries
	r.add("query.steps_per_query", per(t.steps, n), n)
	for _, class := range []string{obs.SpanMap, obs.SpanComposite, obs.SpanEntireArray, obs.SpanStore, obs.SpanStoreScan} {
		r.add("query.step_ms."+class, per(t.classNs[class], n)/1e6, n)
	}
	r.add("query.fallback_frac", per(t.fellBack, t.lookups), t.lookups)
	r.add("workflow.reexec_ms_per_query", per(t.reexecNs, n)/1e6, n)
}
