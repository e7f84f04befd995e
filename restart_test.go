package subzero_test

import (
	"context"
	"path/filepath"
	"slices"
	"testing"

	"subzero"
	"subzero/internal/genomics"
)

// TestNewSystemOnUsedDirMatchesBlackBox restarts a System on a storage
// directory an earlier System wrote, as a daemon restart with the same
// -dir does. Run IDs restart at run001 in every process, so the new run's
// stores share names with the old run's files; they must start empty.
// Every genomics query over the new run must answer exactly like
// black-box re-execution, not with the union of both runs' lineage.
func TestNewSystemOnUsedDirMatchesBlackBox(t *testing.T) {
	ctx := context.Background()
	spec, err := genomics.NewSpec()
	if err != nil {
		t.Fatal(err)
	}
	sources := func(seed int64) map[string]*subzero.Array {
		cfg := genomics.DefaultGenConfig().Scaled(2)
		cfg.Seed = seed
		data, err := genomics.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return map[string]*subzero.Array{"train": data.Train, "test": data.Test}
	}
	execute := func(sys *subzero.System, strategy string, seed int64) *subzero.Run {
		plan, err := genomics.Plan(strategy)
		if err != nil {
			t.Fatal(err)
		}
		run, err := sys.Execute(ctx, spec, plan, sources(seed))
		if err != nil {
			t.Fatal(err)
		}
		return run
	}

	ref, err := subzero.NewSystem()
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	refRun := execute(ref, "BlackBox", 2)
	queries, err := genomics.Queries(refRun)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]uint64{}
	for name, q := range queries {
		res, err := ref.Query(ctx, refRun, q)
		if err != nil {
			t.Fatal(err)
		}
		want[name] = res.Cells()
	}

	for _, strategy := range []string{"FullOne", "FullMany", "PayOne"} {
		t.Run(strategy, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "lineage")
			first, err := subzero.NewSystem(subzero.WithStorageDir(dir))
			if err != nil {
				t.Fatal(err)
			}
			execute(first, strategy, 1)
			if err := first.Close(); err != nil {
				t.Fatal(err)
			}

			second, err := subzero.NewSystem(subzero.WithStorageDir(dir))
			if err != nil {
				t.Fatal(err)
			}
			defer second.Close()
			run := execute(second, strategy, 2)
			for name, q := range queries {
				res, err := second.Query(ctx, run, q)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if got := res.Cells(); !slices.Equal(got, want[name]) {
					t.Fatalf("%s: %d cells, black-box answers %d", name, len(got), len(want[name]))
				}
			}
		})
	}
}
