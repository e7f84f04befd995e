package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"time"

	"subzero"
	"subzero/internal/genomics"
	"subzero/internal/grid"
	"subzero/internal/trace"
)

// genomics-mixed: the §VIII-B genomics workflow at scale 5 with writes
// beside reads. One client is a writer: it executes the workflow under
// FullBoth on one of a few input sets, answers one verification query
// on the new run and drops it. The other is a reader: it queries a
// resident FullOne run with BQ0/BQ1/FQ0/FQ1 variants.
const (
	genomicsScale    = 5
	genomicsSets     = 3  // writer input sets
	genomicsVariants = 16 // start regions drawn per query path
	genomicsShards   = 2  // ingest shards
)

var genomicsPaths = []string{"BQ0", "BQ1", "FQ0", "FQ1"}

// genomicsCycle is the reader's request order, as indices into
// genomicsPaths. The forward queries (store-scan and re-execution, ~20-40
// ms) are two thirds of it and the backward ones (~2-10 ms) one third, so
// the median falls inside the forward queries' latencies instead of in
// the gap between the two groups, where it would swing from run to run.
var genomicsCycle = []int{0, 2, 1, 3, 2, 3}

// genomicsSet is one generated input set.
type genomicsSet struct {
	sources    map[string]*subzero.Array
	inputBytes int64
}

func genomicsData(cfg genomics.GenConfig) (genomicsSet, error) {
	d, err := genomics.Generate(cfg)
	if err != nil {
		return genomicsSet{}, err
	}
	return genomicsSet{
		sources:    map[string]*subzero.Array{"train": d.Train, "test": d.Test},
		inputBytes: d.Train.MemoryBytes() + d.Test.MemoryBytes(),
	}, nil
}

type genomicsEnv struct {
	sys      *subzero.System
	dir      string
	resident *subzero.Run
	input    genomicsSet   // the resident run's inputs
	sets     []genomicsSet // the writer's inputs
}

func (e *genomicsEnv) close() {
	e.sys.Close()
	os.RemoveAll(e.dir)
}

// genomicsConfigs returns the resident run's generator config followed
// by the writer sets' configs. The resident data keeps the generator's
// fixed seed; the writer sets are drawn from --seed.
func genomicsConfigs(p params) []genomics.GenConfig {
	base := genomics.DefaultGenConfig().Scaled(max(1, int(genomicsScale*p.scale)))
	rng := rand.New(rand.NewPCG(uint64(p.seed), 4))
	cfgs := []genomics.GenConfig{base}
	for range genomicsSets {
		cfg := base
		cfg.Seed = rng.Int64()
		cfgs = append(cfgs, cfg)
	}
	return cfgs
}

func genomicsExecute(ctx context.Context, sys *subzero.System, spec *subzero.Spec, planName string, in genomicsSet) (*subzero.Run, error) {
	plan, err := genomics.Plan(planName)
	if err != nil {
		return nil, err
	}
	run, err := sys.Execute(ctx, spec, plan, in.sources)
	if err != nil {
		return nil, fmt.Errorf("execute genomics %s: %w", planName, err)
	}
	return run, nil
}

// genomicsPool draws genomicsVariants start regions for each path of
// genomics.Queries: 1-5 non-zero predictions (BQ0), 1-3 model features
// (BQ1), or a random 3×8 block of the raw training matrix (FQ0, FQ1).
func genomicsPool(run *subzero.Run, seed int64) ([][]subzero.Query, error) {
	base, err := genomics.Queries(run)
	if err != nil {
		return nil, err
	}
	pred, err := run.Output(genomics.NodePredict)
	if err != nil {
		return nil, err
	}
	var predCells []uint64
	for i, v := range pred.Data() {
		if v != 0 {
			predCells = append(predCells, uint64(i))
		}
	}
	train, err := run.Inputs("tr-t")
	if err != nil {
		return nil, err
	}
	trainSp := train[0].Space()
	rng := rand.New(rand.NewPCG(uint64(seed), 5))
	pick := func(from []uint64, n int) []uint64 {
		var cells []uint64
		for _, i := range rng.Perm(len(from))[:min(n, len(from))] {
			cells = append(cells, from[i])
		}
		return cells
	}
	features := make([]uint64, 0, genomics.NumFeatures)
	for f := range genomics.NumFeatures {
		features = append(features, uint64(f))
	}
	block := func() []uint64 {
		sh := trainSp.Shape()
		r, c := rng.IntN(sh[0]-2), rng.IntN(sh[1]-7)
		return grid.Rect{Lo: grid.Coord{r, c}, Hi: grid.Coord{r + 2, c + 7}}.Cells(trainSp, nil)
	}
	draw := map[string]func() []uint64{
		"BQ0": func() []uint64 { return pick(predCells, 1+rng.IntN(5)) },
		"BQ1": func() []uint64 { return pick(features, 1+rng.IntN(3)) },
		"FQ0": block,
		"FQ1": block,
	}
	pool := make([][]subzero.Query, len(genomicsPaths))
	for i, name := range genomicsPaths {
		for range genomicsVariants {
			q := base[name]
			q.Cells = draw[name]()
			pool[i] = append(pool[i], q)
		}
	}
	return pool, nil
}

func runGenomics(ctx context.Context, p params) (*report, error) {
	cfgs := genomicsConfigs(p)
	spec, err := genomics.NewSpec()
	if err != nil {
		return nil, err
	}
	r := &report{}
	n := 0
	setups := &setupTimer[*genomicsEnv]{build: func() (*genomicsEnv, error) {
		n++
		var sets []genomicsSet
		for _, cfg := range cfgs {
			s, err := genomicsData(cfg)
			if err != nil {
				return nil, err
			}
			sets = append(sets, s)
		}
		dir := filepath.Join(p.workDir, fmt.Sprintf("setup-%d", n))
		sys, err := subzero.NewSystem(subzero.WithStorageDir(dir), subzero.WithIngest(genomicsShards, 0))
		if err != nil {
			return nil, err
		}
		env := &genomicsEnv{sys: sys, dir: dir, input: sets[0], sets: sets[1:]}
		if env.resident, err = genomicsExecute(ctx, sys, spec, "FullOne", env.input); err != nil {
			env.close()
			return nil, err
		}
		return env, nil
	}}
	env, err := setups.timeBuild()
	if err != nil {
		return nil, err
	}
	defer env.close()
	heap := heapLiveMB()

	// Reference answers from BlackBox runs (mapping built-ins, black-box
	// UDFs) over the same inputs, outside every timed phase.
	pool, err := genomicsPool(env.resident, p.seed)
	if err != nil {
		return nil, err
	}
	queries, first := flatten(pool)
	want, writerQ, writerWant, err := genomicsReference(ctx, spec, env, queries)
	if err != nil {
		return nil, err
	}
	if _, err := checkPool(ctx, r, env.sys, env.resident.ID, queries, want); err != nil {
		return nil, err
	}

	op := func(ctx context.Context, ph *phase, w *worker) error {
		if w.id == 0 {
			return w.writerStep(ctx, ph, env, spec, writerQ, writerWant)
		}
		path := genomicsCycle[w.n%len(genomicsCycle)]
		w.n++
		qi := first[path] + w.rng.IntN(len(pool[path]))
		return w.query(ctx, ph, env.sys, env.resident.ID, queries[qi], want[qi])
	}
	ph, err := measure(ctx, p, r, timed{sys: env.sys, op: op,
		between: func(int) error { return setups.resample(1) }})
	if err != nil {
		return nil, err
	}
	if p.trace {
		self := ph.steps().selfNs
		r.add("subzero.query_self_ms_p50", median(self), len(self))
		r.addInventory(env.sys)
		return r, nil
	}
	setups.report(r)
	execs := ph.executes()
	r.add("execute_p50_ms", median(execs), len(execs))
	r.add("lineage_bytes_per_input_byte", float64(env.resident.LineageBytes())/float64(env.input.inputBytes), 1)
	r.add("heap_mb", heap, 1)
	return r, nil
}

// writerStep executes the workflow under FullBoth on the next input set,
// verifies the new run with one query and drops it.
func (c *worker) writerStep(ctx context.Context, ph *phase, env *genomicsEnv, spec *subzero.Spec, qs []subzero.Query, want [][]uint64) error {
	i := c.n % len(env.sets)
	c.n++
	c.attempted++
	execCtx := ctx
	var root *trace.Span
	if ph.spans != nil {
		root = ph.spans.start(rootExecute)
		execCtx = trace.ContextWithSpan(ctx, root)
	}
	start := time.Now()
	run, err := genomicsExecute(execCtx, env.sys, spec, "FullBoth", env.sets[i])
	elapsed := time.Since(start)
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
		c.fail("%v", err)
		return nil
	}
	c.exec = append(c.exec, ms(elapsed))
	if err := c.query(ctx, ph, env.sys, run.ID, qs[i], want[i]); err != nil {
		return err
	}
	c.attempted++
	if err := env.sys.DropRun(run.ID); err != nil {
		c.fail("drop %s: %v", run.ID, err)
	}
	return nil
}

// genomicsReference executes the workflow under BlackBox (mapping
// built-ins, black-box UDFs) over the resident inputs and every writer
// set, and answers there: the reader's queries, and for each writer set
// the set's own BQ0, which the writer uses to verify its runs.
func genomicsReference(ctx context.Context, spec *subzero.Spec, env *genomicsEnv, queries []subzero.Query) (want [][]uint64, writerQ []subzero.Query, writerWant [][]uint64, err error) {
	ref, err := subzero.NewSystem()
	if err != nil {
		return nil, nil, nil, err
	}
	defer ref.Close()
	run, err := genomicsExecute(ctx, ref, spec, "BlackBox", env.input)
	if err != nil {
		return nil, nil, nil, err
	}
	if want, err = reference(ctx, ref, run, queries); err != nil {
		return nil, nil, nil, err
	}
	for _, set := range env.sets {
		run, err := genomicsExecute(ctx, ref, spec, "BlackBox", set)
		if err != nil {
			return nil, nil, nil, err
		}
		qs, err := genomics.Queries(run)
		if err != nil {
			return nil, nil, nil, err
		}
		w, err := reference(ctx, ref, run, []subzero.Query{qs["BQ0"]})
		if err != nil {
			return nil, nil, nil, err
		}
		writerQ = append(writerQ, qs["BQ0"])
		writerWant = append(writerWant, w[0])
	}
	return want, writerQ, writerWant, nil
}
