package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"maps"
	"math/rand/v2"
	"net"
	"net/http"
	"slices"
	"sync/atomic"
	"time"

	"subzero"
	"subzero/client"
	"subzero/internal/astro"
	"subzero/internal/grid"
	"subzero/internal/obs"
	"subzero/internal/server"
	"subzero/internal/trace"
)

// astro-http: the §VIII-A astronomy workflow at scale 0.25 under the
// paper's SubZero plan, served by internal/server on a loopback listener
// and queried through the Go client over two connections. Requests cycle
// the BQ0-BQ4 and FQ0 paths with seeded start regions.
const (
	astroScale     = 0.25
	astroVariants  = 32 // start regions drawn per query path
	astroGapSetups = 3  // more set-ups run in each gap between slices
)

var astroPaths = []string{"BQ0", "BQ1", "BQ2", "BQ3", "BQ4", "FQ0"}

type astroEnv struct {
	sys        *subzero.System
	run        *subzero.Run
	srv        *served
	inputBytes int64
}

func (e *astroEnv) close() {
	e.srv.close()
	e.sys.Close()
}

// served is the lineage service on a loopback listener plus a client of
// it whose transport counts round trips and response bytes.
type served struct {
	hs   *http.Server
	done chan error
	rt   *countingTransport
	cl   *client.Client
}

func serve(sys *subzero.System, tracer *trace.Tracer) (*served, error) {
	srv, err := server.New(server.Config{System: sys, Tracer: tracer})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &served{
		hs:   &http.Server{Handler: srv},
		done: make(chan error, 1),
		rt:   &countingTransport{base: &http.Transport{MaxIdleConnsPerHost: clients}},
	}
	go func() { s.done <- s.hs.Serve(ln) }()
	s.cl = client.New("http://"+ln.Addr().String(),
		client.WithHTTPClient(&http.Client{Transport: s.rt, Timeout: client.DefaultTimeout}))
	return s, nil
}

// close stops the listener and every connection and waits for Serve.
func (s *served) close() {
	s.hs.Close()
	<-s.done
	s.rt.base.CloseIdleConnections()
}

// countingTransport counts HTTP round trips and response body bytes.
type countingTransport struct {
	base  *http.Transport
	trips atomic.Int64
	bytes atomic.Int64
}

func (t *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t.trips.Add(1)
	resp, err := t.base.RoundTrip(req)
	if resp != nil {
		resp.Body = &countingBody{ReadCloser: resp.Body, n: &t.bytes}
	}
	return resp, err
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

// astroConfig is the sky generator's config. Its seed is fixed: the sky
// is part of the workload, and --seed varies the queries' start regions.
func astroConfig(p params) astro.GenConfig {
	return astro.DefaultGenConfig().Scaled(astroScale * p.scale)
}

func astroExecute(ctx context.Context, sys *subzero.System, sky *astro.Sky, planName string) (*subzero.Run, error) {
	spec, err := astro.NewSpec()
	if err != nil {
		return nil, err
	}
	plan, err := astro.Plan(planName)
	if err != nil {
		return nil, err
	}
	run, err := sys.Execute(ctx, spec, plan, map[string]*subzero.Array{"img1": sky.Exposure1, "img2": sky.Exposure2})
	if err != nil {
		return nil, fmt.Errorf("execute astronomy %s: %w", planName, err)
	}
	return run, nil
}

// astroPool draws astroVariants start regions for each query path of
// astro.Queries: a random star label (BQ0, BQ3), a random subset of the
// cosmic-ray mask (BQ2), a random 8×8 block of the cleaned composite
// (BQ1, BQ4) or a random 4×4 block of the raw exposure (FQ0). Repeated
// draws are dropped. It returns the queries grouped by path.
func astroPool(run *subzero.Run, seed int64) ([][]subzero.Query, error) {
	base, err := astro.Queries(run)
	if err != nil {
		return nil, err
	}
	stars, err := run.Output(astro.NodeStarDetect)
	if err != nil {
		return nil, err
	}
	byLabel := map[float64][]uint64{}
	for i, v := range stars.Data() {
		if v > 0 {
			byLabel[v] = append(byLabel[v], uint64(i))
		}
	}
	labels := slices.Sorted(maps.Keys(byLabel))
	mask, err := run.Output(astro.NodeCRD1)
	if err != nil {
		return nil, err
	}
	var crCells []uint64
	for i, v := range mask.Data() {
		if v > 0 {
			crCells = append(crCells, uint64(i))
		}
	}
	if len(labels) == 0 || len(crCells) == 0 {
		return nil, fmt.Errorf("astronomy run has %d stars and %d cosmic-ray cells", len(labels), len(crCells))
	}
	post, err := run.Output("postsmooth")
	if err != nil {
		return nil, err
	}
	raw, err := run.Inputs("b1/bias")
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewPCG(uint64(seed), 3))
	block := func(sp *grid.Space, n int) []uint64 {
		sh := sp.Shape()
		r, c := rng.IntN(sh[0]-n+1), rng.IntN(sh[1]-n+1)
		return grid.Rect{Lo: grid.Coord{r, c}, Hi: grid.Coord{r + n - 1, c + n - 1}}.Cells(sp, nil)
	}
	draw := map[string]func() []uint64{
		"BQ0": func() []uint64 { return byLabel[labels[rng.IntN(len(labels))]] },
		"BQ3": func() []uint64 { return byLabel[labels[rng.IntN(len(labels))]] },
		"BQ2": func() []uint64 {
			var cells []uint64
			for len(cells) == 0 {
				for _, c := range crCells {
					if rng.IntN(2) == 0 {
						cells = append(cells, c)
					}
				}
			}
			return cells
		},
		"BQ1": func() []uint64 { return block(post.Space(), 8) },
		"BQ4": func() []uint64 { return block(post.Space(), 8) },
		"FQ0": func() []uint64 { return block(raw[0].Space(), 4) },
	}
	pool := make([][]subzero.Query, len(astroPaths))
	for i, name := range astroPaths {
		var seen [][]uint64
		for range astroVariants {
			cells := draw[name]()
			if slices.ContainsFunc(seen, func(s []uint64) bool { return slices.Equal(s, cells) }) {
				continue
			}
			seen = append(seen, cells)
			q := base[name]
			q.Cells = cells
			pool[i] = append(pool[i], q)
		}
	}
	return pool, nil
}

// reference answers queries on a run of a black-box plan.
func reference(ctx context.Context, sys *subzero.System, run *subzero.Run, queries []subzero.Query) ([][]uint64, error) {
	want := make([][]uint64, len(queries))
	for i, q := range queries {
		res, err := sys.Query(ctx, run, q)
		if err != nil {
			return nil, fmt.Errorf("reference query %d: %w", i, err)
		}
		want[i] = res.Cells()
	}
	return want, nil
}

func runAstro(ctx context.Context, p params) (*report, error) {
	cfg := astroConfig(p)
	r := &report{}
	var executes []float64
	setups := &setupTimer[*astroEnv]{build: func() (*astroEnv, error) {
		sky, err := astro.Generate(cfg)
		if err != nil {
			return nil, err
		}
		sys, err := subzero.NewSystem()
		if err != nil {
			return nil, err
		}
		start := time.Now()
		run, err := astroExecute(ctx, sys, sky, "SubZero")
		if err != nil {
			sys.Close()
			return nil, err
		}
		executes = append(executes, ms(time.Since(start)))
		// A tracer that samples nothing: untraced, the server records no spans.
		srv, err := serve(sys, trace.New(trace.Config{Sample: 0}))
		if err != nil {
			sys.Close()
			return nil, err
		}
		return &astroEnv{sys: sys, run: run, srv: srv,
			inputBytes: sky.Exposure1.MemoryBytes() + sky.Exposure2.MemoryBytes()}, nil
	}}
	env, err := setups.timeBuild()
	if err != nil {
		return nil, err
	}
	defer env.close()
	heap := heapLiveMB()

	// Reference answers from a BlackBoxOpt run, outside every timed phase.
	pool, err := astroPool(env.run, p.seed)
	if err != nil {
		return nil, err
	}
	queries, first := flatten(pool)
	want, err := astroReference(ctx, cfg, queries)
	if err != nil {
		return nil, err
	}
	if _, err := checkPool(ctx, r, env.sys, env.run.ID, queries, want); err != nil {
		return nil, err
	}

	// Each client cycles the paths and draws a start region per request.
	active := env.srv
	op := func(ctx context.Context, ph *phase, w *worker) error {
		path := (w.id + w.n) % len(pool)
		w.n++
		qi := first[path] + w.rng.IntN(len(pool[path]))
		return w.httpQuery(ctx, ph, active.cl, env.run.ID, queries[qi], want[qi])
	}
	var traced *served
	serveTraced := func(t *spanTally) error {
		var err error
		traced, err = serve(env.sys, t.tracer)
		active = traced
		return err
	}
	ph, err := measure(ctx, p, r, timed{sys: env.sys, op: op, onTrace: serveTraced,
		between: func(int) error { return setups.resample(astroGapSetups) }})
	if traced != nil {
		traced.close()
	}
	if err != nil {
		return nil, err
	}
	if p.trace {
		steps := ph.steps()
		r.add("server.self_ms_p50", median(steps.selfNs), len(steps.selfNs))
		r.add("server.resp_bytes_per_query", per(env.srv.rt.bytes.Load(), steps.queries), steps.queries)
		calls := 0
		for _, w := range ph.clients {
			calls += w.attempted
		}
		r.add("client.retries", float64(env.srv.rt.trips.Load()-int64(calls)), calls)
		// System.Query's own cost outside the executor, in-process.
		sweep, err := checkPool(ctx, r, env.sys, env.run.ID, queries, want)
		if err != nil {
			return nil, err
		}
		self := sweep.steps().selfNs
		r.add("subzero.query_self_ms_p50", median(self), len(self))
		r.addInventory(env.sys)
		return r, nil
	}
	setups.report(r)
	r.add("execute_p50_ms", median(executes), len(executes))
	r.add("lineage_bytes_per_input_byte", float64(env.sys.LineageBytes())/float64(env.inputBytes), 1)
	r.add("heap_mb", heap, 1)
	return r, nil
}

// astroReference executes the workflow under BlackBoxOpt (mapping
// built-ins, black-box UDFs) on a fresh copy of the inputs and answers
// every query there.
func astroReference(ctx context.Context, cfg astro.GenConfig, queries []subzero.Query) ([][]uint64, error) {
	sky, err := astro.Generate(cfg)
	if err != nil {
		return nil, err
	}
	sys, err := subzero.NewSystem()
	if err != nil {
		return nil, err
	}
	defer sys.Close()
	run, err := astroExecute(ctx, sys, sky, "BlackBoxOpt")
	if err != nil {
		return nil, err
	}
	return reference(ctx, sys, run, queries)
}

// httpQuery runs q through the client, checks the answer against want
// cell for cell and records the client-observed latency and the step
// reports the server returned. In a traced phase the request carries the
// benchmark root span's traceparent, so the server's spans join its tree.
func (c *worker) httpQuery(ctx context.Context, ph *phase, cl *client.Client, run string, q subzero.Query, want []uint64) error {
	c.attempted++
	var root *trace.Span
	if ph.spans != nil {
		root = ph.spans.start(rootQuery)
		ctx = client.WithTraceparent(ctx, root.Traceparent())
	}
	start := time.Now()
	res, err := cl.Query(ctx, run, q, nil)
	wall := time.Since(start)
	if err != nil {
		root.End()
		if ctx.Err() != nil && errors.Is(err, ctx.Err()) {
			c.attempted--
			return nil
		}
		c.fail("query on %s: %v", run, err)
		return nil
	}
	if ph.spans != nil {
		if err := ph.spans.finish(root, obs.SpanHTTP); err != nil {
			return err
		}
	}
	c.lat = append(c.lat, ms(wall))
	for _, st := range res.Steps {
		c.steps.step(st.AccessPath, time.Duration(st.ElapsedNS), st.FellBack)
	}
	c.steps.query(wall, time.Duration(res.ElapsedNS))
	if !slices.Equal(res.Cells, want) {
		c.fail("query on %s: %d cells, want %d", run, len(res.Cells), len(want))
	}
	return nil
}
