package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"time"

	"subzero"
	"subzero/internal/grid"
	"subzero/internal/microbench"
)

// micro-lookup: the §VIII-C synthetic operator (1000×1000 input, 10%
// coverage, fanin 25, fanout 4) executed once per backward encoding into
// file-backed stores, then queried in-process with 1,024-cell backward
// queries: half 32×32 blocks, half scattered cells.
const (
	microSide     = 1000
	microBlock    = 32 // block query side; a block is 1,024 cells
	microCells    = 1024
	microBlocks   = 64  // distinct block queries in the pool
	microScatter  = 256 // distinct scattered queries; together they touch most records
	microGapEvery = 4   // one more set-up runs in every 4th gap between slices
)

var microStrategies = []subzero.Strategy{
	subzero.StratFullOne, subzero.StratFullMany, subzero.StratPayOne, subzero.StratPayMany,
}

type microEnv struct {
	sys        *subzero.System
	dir        string
	runs       []string
	inputBytes int64
}

func (e *microEnv) close() {
	e.sys.Close()
	os.RemoveAll(e.dir)
}

func microConfig(p params) microbench.Config {
	cfg := microbench.DefaultConfig()
	side := max(microBlock*2, int(float64(microSide)*p.scale))
	cfg.Rows, cfg.Cols = side, side
	cfg.Fanin, cfg.Fanout = 25, 4
	return cfg
}

func microSpec(cfg microbench.Config) *subzero.Spec {
	spec := subzero.NewSpec("microbench")
	spec.Add(microbench.NodeID, microbench.NewSyntheticOp(cfg), subzero.FromExternal("input"))
	return spec
}

// microInput generates the operator's input array. Like the operator's
// own pair generator it has a fixed seed: the data is part of the
// workload, and --seed varies the queries.
func microInput(cfg microbench.Config) (*subzero.Array, error) {
	in, err := subzero.NewArray("input", subzero.Shape{cfg.Rows, cfg.Cols})
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewPCG(uint64(cfg.Seed), 1))
	for i := range in.Data() {
		in.Data()[i] = rng.Float64()
	}
	return in, nil
}

// microPool generates the distinct query cell sets: microBlocks blocks
// followed by microScatter scattered sets.
func microPool(cfg microbench.Config, seed int64) [][]uint64 {
	rng := rand.New(rand.NewPCG(uint64(seed), 2))
	sp := grid.NewSpace(grid.Shape{cfg.Rows, cfg.Cols})
	pool := make([][]uint64, 0, microBlocks+microScatter)
	for range microBlocks {
		r, c := rng.IntN(cfg.Rows-microBlock+1), rng.IntN(cfg.Cols-microBlock+1)
		rect := grid.Rect{Lo: grid.Coord{r, c}, Hi: grid.Coord{r + microBlock - 1, c + microBlock - 1}}
		pool = append(pool, rect.Cells(sp, nil))
	}
	for range microScatter {
		seen := make(map[uint64]bool, microCells)
		cells := make([]uint64, 0, microCells)
		for len(cells) < microCells {
			if c := rng.Uint64N(sp.Size()); !seen[c] {
				seen[c] = true
				cells = append(cells, c)
			}
		}
		slices.Sort(cells)
		pool = append(pool, cells)
	}
	return pool
}

// microReference answers every pool query by black-box re-execution: it
// executes the operator under StratBlackbox (no stored lineage), re-runs
// it once in tracing mode, and collects each query's backward lineage
// from the region pairs the re-execution emits.
func microReference(ctx context.Context, spec *subzero.Spec, input *subzero.Array, pool [][]uint64) ([][]uint64, error) {
	sys, err := subzero.NewSystem()
	if err != nil {
		return nil, err
	}
	defer sys.Close()
	run, err := sys.Execute(ctx, spec, subzero.Plan{microbench.NodeID: {subzero.StratBlackbox}}, map[string]*subzero.Array{"input": input})
	if err != nil {
		return nil, fmt.Errorf("reference execute: %w", err)
	}
	byCell := map[uint64][]int{}
	for qi, cells := range pool {
		for _, c := range cells {
			byCell[c] = append(byCell[c], qi)
		}
	}
	want := make([][]uint64, len(pool))
	_, err = run.Reexecute(ctx, microbench.NodeID, func(rp *subzero.RegionPair) error {
		for _, o := range rp.Out {
			for _, qi := range byCell[o] {
				want[qi] = append(want[qi], rp.Ins[0]...)
			}
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("reference re-execution: %w", err)
	}
	for i := range want {
		slices.Sort(want[i])
		want[i] = slices.Compact(want[i])
	}
	return want, nil
}

func runMicro(ctx context.Context, p params) (*report, error) {
	cfg := microConfig(p)
	spec := microSpec(cfg)
	r := &report{}
	var executes []float64
	n := 0
	setups := &setupTimer[*microEnv]{build: func() (*microEnv, error) {
		n++
		input, err := microInput(cfg)
		if err != nil {
			return nil, err
		}
		dir := filepath.Join(p.workDir, fmt.Sprintf("setup-%d", n))
		sys, err := subzero.NewSystem(subzero.WithStorageDir(dir))
		if err != nil {
			return nil, err
		}
		env := &microEnv{sys: sys, dir: dir}
		for _, st := range microStrategies {
			start := time.Now()
			run, err := sys.Execute(ctx, spec, subzero.Plan{microbench.NodeID: {st}}, map[string]*subzero.Array{"input": input})
			if err != nil {
				env.close()
				return nil, fmt.Errorf("execute %s: %w", st.ID(), err)
			}
			executes = append(executes, ms(time.Since(start)))
			env.runs = append(env.runs, run.ID)
			env.inputBytes += input.MemoryBytes()
		}
		return env, nil
	}}
	env, err := setups.timeBuild()
	if err != nil {
		return nil, err
	}
	defer env.close()
	heap := heapLiveMB()

	// Reference answers, outside every timed phase.
	pool := microPool(cfg, p.seed)
	input, err := microInput(cfg)
	if err != nil {
		return nil, err
	}
	want, err := microReference(ctx, spec, input, pool)
	if err != nil {
		return nil, err
	}
	queries := make([]subzero.Query, len(pool))
	for i, cells := range pool {
		queries[i] = subzero.BackwardQuery(cells, subzero.Step{Node: microbench.NodeID})
	}
	for _, run := range env.runs {
		if _, err := checkPool(ctx, r, env.sys, run, queries, want); err != nil {
			return nil, err
		}
	}

	op := func(ctx context.Context, ph *phase, c *worker) error {
		run := env.runs[c.rng.IntN(len(env.runs))]
		qi := c.rng.IntN(microBlocks)
		if c.rng.IntN(2) == 1 {
			qi = microBlocks + c.rng.IntN(microScatter)
		}
		return c.query(ctx, ph, env.sys, run, queries[qi], want[qi])
	}
	ph, err := measure(ctx, p, r, timed{sys: env.sys, op: op, between: func(gap int) error {
		if gap%microGapEvery != 0 {
			return nil
		}
		return setups.resample(1)
	}})
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
	r.add("execute_p50_ms", median(executes), len(executes))
	r.add("lineage_bytes_per_input_byte", float64(env.sys.LineageBytes())/float64(env.inputBytes), len(env.runs))
	r.add("heap_mb", heap, 1)
	return r, nil
}
