package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"slices"
	"testing"
	"time"
)

// tinyScale shrinks each workload's inputs so a run takes about a second.
var tinyScale = map[string]float64{
	"micro-lookup":   0.1, // 100×100 synthetic input
	"astro-http":     0.5, // 64×250 exposures
	"genomics-mixed": 0.2, // genomics scale 1
}

func runTiny(t *testing.T, name string, traced bool) *report {
	t.Helper()
	p := params{seed: 7, seconds: 400 * time.Millisecond, trace: traced, scale: tinyScale[name], workDir: t.TempDir()}
	r, err := workloads[name](context.Background(), p)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if traced {
		r.fillPerLayer()
	}
	return r
}

// checkMetrics asserts the report holds exactly the wanted metrics, each
// with its unit and a finite value, and that nothing failed.
func checkMetrics(t *testing.T, r *report, want []metricDef, positive bool) {
	t.Helper()
	if r.attempted == 0 || r.failed != 0 {
		t.Fatalf("attempted %d, failed %d; want some attempted and none failed", r.attempted, r.failed)
	}
	var got []metricDef
	for _, m := range r.metrics {
		got = append(got, m.metricDef)
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			t.Errorf("%s = %v", m.name, m.value)
		}
		if positive && m.value <= 0 {
			t.Errorf("%s = %v, want > 0", m.name, m.value)
		}
	}
	cmp := func(a, b metricDef) int {
		if a.name < b.name {
			return -1
		}
		if a.name > b.name {
			return 1
		}
		return 0
	}
	slices.SortFunc(got, cmp)
	want = slices.Clone(want)
	slices.SortFunc(want, cmp)
	if !slices.Equal(got, want) {
		t.Errorf("metrics\n got %v\nwant %v", got, want)
	}
}

func TestWorkloadsReportEveryMetric(t *testing.T) {
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			checkMetrics(t, runTiny(t, name, false), endToEnd, true)
		})
	}
}

// TestTracedRun checks the per-layer metric list and that every recorded
// request's span tree is well nested: the self times of its spans sum
// to the duration of the benchmark's root span, and the tree reaches
// into the system's own spans.
func TestTracedRun(t *testing.T) {
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			r := runTiny(t, name, true)
			checkMetrics(t, r, perLayer, false)
			if len(r.spans) == 0 {
				t.Fatal("traced run recorded no spans")
			}
			byReq := map[int][]spanRec{}
			for _, s := range r.spans {
				byReq[s.Req] = append(byReq[s.Req], s)
			}
			for req, spans := range byReq {
				var root *spanRec
				var self int64
				classes := map[string]bool{}
				for i, s := range spans {
					self += s.SelfNs
					classes[s.Class] = true
					if s.Class == benchClass {
						if root != nil {
							t.Fatalf("request %d has two benchmark root spans", req)
						}
						root = &spans[i]
					}
				}
				if root == nil {
					t.Fatalf("request %d has no benchmark root span", req)
				}
				if self != root.DurNs {
					t.Errorf("request %d (%s): self times sum to %d ns, root lasts %d ns", req, root.Name, self, root.DurNs)
				}
				if !classes["query"] && !classes["execute"] {
					t.Errorf("request %d (%s): no query or execute span under the root: %v", req, root.Name, classes)
				}
			}
		})
	}
}

// TestBenchmarkJSON checks that the benchmark's definition file names the
// workloads and metrics this program reports, with the same units.
func TestBenchmarkJSON(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &def); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range def.Workloads {
		names = append(names, w.Name)
	}
	slices.Sort(names)
	if !slices.Equal(names, workloadNames()) {
		t.Errorf("workloads %v, program has %v", names, workloadNames())
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		var defs []metricDef
		for _, m := range got {
			defs = append(defs, metricDef{m.Name, m.Unit})
		}
		if !slices.Equal(defs, want) {
			t.Errorf("%s metrics\n file %v\n program %v", kind, defs, want)
		}
	}
	check("end_to_end", def.EndToEnd, endToEnd)
	check("per_layer", def.PerLayer, perLayer)
}
