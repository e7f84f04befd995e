package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"subzero/internal/obs"
	"subzero/internal/trace"
)

// benchClass is the class of the spans the benchmark records around its
// own calls into the system; their self time is what the call cost
// outside every span the system recorded.
const benchClass = "bench"

// Names of the benchmark's root spans, by the call they wrap.
const (
	rootQuery   = "query"
	rootExecute = "execute"
)

// maxRecordedRequests bounds the span trees a run keeps for the dump.
const maxRecordedRequests = 500

// spanRec is one recorded span; times are relative to the tally's epoch.
type spanRec struct {
	Req     int    `json:"req"`
	TraceID string `json:"trace_id"`
	SpanID  string `json:"span_id"`
	Parent  string `json:"parent_id"`
	Name    string `json:"name"`
	Class   string `json:"class"`
	StartNs int64  `json:"start_ns"`
	DurNs   int64  `json:"dur_ns"`
	SelfNs  int64  `json:"self_ns"`
}

// spanTally owns the tracer of a traced phase and folds each finished
// request's span tree into self time per span class.
type spanTally struct {
	tracer *trace.Tracer
	epoch  time.Time

	mu       sync.Mutex
	folded   int            // requests folded
	requests map[string]int // requests folded, by root span name
	selfNs   map[string]int64
	recs     []spanRec
}

func newSpanTally() *spanTally {
	return &spanTally{
		// Sample everything and retain enough traces that a request's
		// tree is still in the ring when the benchmark collects it.
		tracer:   trace.New(trace.Config{Sample: 1, Capacity: 1024, SlowCapacity: 1, MaxSpans: 1 << 16}),
		epoch:    time.Now(),
		requests: map[string]int{},
		selfNs:   map[string]int64{},
	}
}

// start opens the benchmark's root span for one request.
func (t *spanTally) start(name string) *trace.Span {
	sp := t.tracer.StartRequest(name, "")
	sp.SetClass(benchClass)
	return sp
}

// finish ends a root span, waits until the request's tree holds a span of
// class need (the server's tree lands after the client returns; "" waits
// for nothing), and folds it.
func (t *spanTally) finish(root *trace.Span, need string) error {
	root.End()
	id, ok := trace.ParseTraceID(root.TraceIDString())
	if !ok {
		return fmt.Errorf("span %q has no trace ID", root.Name())
	}
	deadline := time.Now().Add(time.Second)
	for {
		tr := t.tracer.Get(id)
		if tr != nil && (need == "" || slices.ContainsFunc(tr.Spans, func(sp *trace.Span) bool { return sp.Class() == need })) {
			t.fold(root, tr.Spans)
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("trace %s of %q never showed a %q span", id, root.Name(), need)
		}
		time.Sleep(20 * time.Microsecond)
	}
}

func (t *spanTally) fold(root *trace.Span, spans []*trace.Span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	req := t.folded
	t.folded++
	t.requests[root.Name()]++
	keep := req < maxRecordedRequests
	walkSelf(spans, root.ID(), func(sp *trace.Span, self time.Duration) {
		t.selfNs[sp.Class()] += int64(self)
		if keep {
			t.recs = append(t.recs, spanRec{
				Req:     req,
				TraceID: root.TraceIDString(),
				SpanID:  sp.ID().String(),
				Parent:  sp.ParentID().String(),
				Name:    sp.Name(),
				Class:   sp.Class(),
				StartNs: int64(sp.StartTime().Sub(t.epoch)),
				DurNs:   int64(sp.Duration()),
				SelfNs:  int64(self),
			})
		}
	})
}

// selfMsPer returns the self time of a span class in ms per request of
// the named root.
func (t *spanTally) selfMsPer(class, rootName string) float64 {
	return per(t.selfNs[class], t.requests[rootName]) / 1e6
}

// walkSelf visits every span of the tree under root with its self time:
// its duration minus the part of it that its children cover. Each child
// is first clipped to its parent's interval, so the self times of a tree
// whose siblings do not overlap sum to the root's duration.
func walkSelf(spans []*trace.Span, root trace.SpanID, visit func(sp *trace.Span, self time.Duration)) {
	children := map[trace.SpanID][]*trace.Span{}
	var top *trace.Span
	for _, sp := range spans {
		if sp.ID() == root {
			top = sp
			continue
		}
		children[sp.ParentID()] = append(children[sp.ParentID()], sp)
	}
	if top == nil {
		return
	}
	var walk func(sp *trace.Span, lo, hi time.Time)
	walk = func(sp *trace.Span, lo, hi time.Time) {
		s, e := clip(sp.StartTime(), sp.StartTime().Add(sp.Duration()), lo, hi)
		kids := children[sp.ID()]
		slices.SortFunc(kids, func(a, b *trace.Span) int { return a.StartTime().Compare(b.StartTime()) })
		var covered time.Duration
		cur := s
		for _, k := range kids {
			ks, ke := clip(k.StartTime(), k.StartTime().Add(k.Duration()), s, e)
			if ks.Before(cur) {
				ks = cur
			}
			if ke.After(ks) {
				covered += ke.Sub(ks)
				cur = ke
			}
		}
		visit(sp, e.Sub(s)-covered)
		for _, k := range kids {
			walk(k, s, e)
		}
	}
	walk(top, top.StartTime(), top.StartTime().Add(top.Duration()))
}

// clip bounds [s, e] to [lo, hi]; an interval outside it becomes empty.
func clip(s, e, lo, hi time.Time) (time.Time, time.Time) {
	if s.Before(lo) {
		s = lo
	}
	if e.After(hi) {
		e = hi
	}
	if e.Before(s) {
		e = s
	}
	return s, e
}

// addSpanSelf reports the span-derived per-layer metrics.
func (r *report) addSpanSelf(t *spanTally) {
	nq, ne := t.requests[rootQuery], t.requests[rootExecute]
	r.add("lineage.store_self_ms_per_query", t.selfMsPer(obs.SpanStore, rootQuery), nq)
	r.add("kvstore.probe_self_ms_per_query", t.selfMsPer(obs.SpanKVProbe, rootQuery), nq)
	r.add("workflow.node_self_ms_per_execute", t.selfMsPer(obs.SpanNode, rootExecute), ne)
	r.spans = append(r.spans, t.recs...)
}

// writeSpans dumps the recorded span trees as JSON lines.
func (r *report) writeSpans(path string) error {
	if len(r.spans) == 0 {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}
