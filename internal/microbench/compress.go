package microbench

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"time"

	"subzero/internal/bitmap"
	"subzero/internal/grid"
	"subzero/internal/kvstore"
	"subzero/internal/lineage"
)

// Compression measurement for the container record codec: synthetic
// region pairs are written into an otherwise bare store, isolating the
// record format from everything else (strategy, index, kvstore).
// Workloads span the cell-set shapes real operators produce:
//
//	strided-mask   every-other-cell masks (downsampling, channel
//	               deinterleave) — bitmap containers, 1 bit per cell
//	dense-block    contiguous rectangular regions (convolution windows,
//	               astronomy co-adds) — run and full containers
//	scatter        ~40% random scatter in local windows (thresholded
//	               masks) — bitmap containers
//	sparse-point   small scattered fanin (point lookups, genomics
//	               row ops) — the sparse-direct form
//
// CompressWorkloads lists them in report order.
var CompressWorkloads = []string{"strided-mask", "dense-block", "scatter", "sparse-point"}

// CompressStrategies are the encodings the measurement writes under.
var CompressStrategies = []lineage.Strategy{lineage.StratFullOne, lineage.StratFullMany}

// CompressResult is one (workload, strategy) measurement.
type CompressResult struct {
	Workload string
	Strategy lineage.Strategy
	Pairs    int64
	// LineageBytes is the store's total footprint: pair records plus the
	// strategy's index (hash cell entries or R-tree items). Many
	// encodings keep one small index item per pair, so their ratio tracks
	// the record codec; One encodings also carry per-cell hash entries.
	LineageBytes int64
	// LogicalBytes is the uncompressed volume (8 bytes per stored cell
	// index plus payload), the numerator of the compression ratio.
	LogicalBytes int64
	EncodeTime   time.Duration
}

// BytesPerPair is the stored lineage bytes per region pair.
func (r *CompressResult) BytesPerPair() float64 {
	if r.Pairs == 0 {
		return 0
	}
	return float64(r.LineageBytes) / float64(r.Pairs)
}

// EncodePerPair is the synchronous write-path time per region pair.
func (r *CompressResult) EncodePerPair() time.Duration {
	if r.Pairs == 0 {
		return 0
	}
	return r.EncodeTime / time.Duration(r.Pairs)
}

// compressSpace is the array both sides of every compression workload
// live in: 256 rows of 4096 cells, so one row is four container tiles.
var compressSpace = grid.NewSpace(grid.Shape{256, 4096})

// compressPairs generates the deterministic pair set for one workload at
// the given scale (pair count multiplier, quick≈1).
func compressPairs(workload string, scale int) ([]lineage.RegionPair, error) {
	if scale < 1 {
		scale = 1
	}
	rng := rand.New(rand.NewSource(19))
	rowCells := uint64(4096)
	nRows := uint64(256)
	var pairs []lineage.RegionPair
	addPair := func(out, in []uint64) {
		pairs = append(pairs, lineage.RegionPair{Out: out, Ins: [][]uint64{in}})
	}
	switch workload {
	case "strided-mask":
		// Each pair keeps every other cell of one row (4 tiles wide).
		for p := 0; p < 64*scale; p++ {
			row := uint64(rng.Intn(int(nRows))) * rowCells
			phase := uint64(p & 1)
			var out, in []uint64
			for c := row + phase; c < row+rowCells; c += 2 {
				out = append(out, c)
				in = append(in, c)
			}
			addPair(out, in)
		}
	case "dense-block":
		// Contiguous spans of 1.5 tiles starting mid-tile.
		for p := 0; p < 64*scale; p++ {
			base := uint64(rng.Intn(int(nRows)))*rowCells + uint64(rng.Intn(2048))
			var out, in []uint64
			for c := base; c < base+1536; c++ {
				out = append(out, c)
				in = append(in, c)
			}
			addPair(out, in)
		}
	case "scatter":
		// ~40% random scatter across one row.
		for p := 0; p < 64*scale; p++ {
			row := uint64(rng.Intn(int(nRows))) * rowCells
			var out, in []uint64
			for c := row; c < row+rowCells; c++ {
				if rng.Intn(100) < 40 {
					out = append(out, c)
				}
				if rng.Intn(100) < 40 {
					in = append(in, c)
				}
			}
			if len(out) == 0 || len(in) == 0 {
				continue
			}
			addPair(out, in)
		}
	case "sparse-point":
		// Singleton outputs with 3-cell scattered fanin.
		size := int64(compressSpace.Size())
		for p := 0; p < 4096*scale; p++ {
			out := []uint64{uint64(rng.Int63n(size))}
			base := uint64(rng.Int63n(size - 4096))
			offs := map[uint64]struct{}{}
			for len(offs) < 3 {
				offs[uint64(rng.Int63n(4096))] = struct{}{}
			}
			in := make([]uint64, 0, 3)
			for o := range offs {
				in = append(in, base+o)
			}
			sort.Slice(in, func(i, j int) bool { return in[i] < in[j] })
			addPair(out, in)
		}
	default:
		return nil, fmt.Errorf("microbench: unknown compression workload %q", workload)
	}
	return pairs, nil
}

// CompressRun writes one workload's pairs into a fresh in-memory store
// under the given strategy and measures the synchronous write path.
func CompressRun(workload string, strat lineage.Strategy, scale int) (*CompressResult, error) {
	pairs, err := compressPairs(workload, scale)
	if err != nil {
		return nil, err
	}
	st, err := lineage.OpenStore(kvstore.NewMem(), strat, compressSpace, []*grid.Space{compressSpace})
	if err != nil {
		return nil, err
	}
	start := time.Now()
	// Batches of the ingest pipeline's typical size, so the encode cost
	// is measured under the same group-commit pattern shard workers use.
	const batch = 256
	for i := 0; i < len(pairs); i += batch {
		j := i + batch
		if j > len(pairs) {
			j = len(pairs)
		}
		if err := st.WritePairs(pairs[i:j]); err != nil {
			return nil, err
		}
	}
	if err := st.Flush(); err != nil {
		return nil, err
	}
	encode := time.Since(start)
	return &CompressResult{
		Workload:     workload,
		Strategy:     strat,
		Pairs:        int64(st.Stats().Pairs),
		LineageBytes: st.SizeBytes(),
		LogicalBytes: st.LogicalBytes(),
		EncodeTime:   encode,
	}, nil
}

// CompressVerify checks that a store over the workload answers a
// backward query workload exactly like brute force over the generated
// pair list: the in-situ container probe path must return the union of
// the input cells of every pair whose outputs meet the query.
func CompressVerify(workload string, strat lineage.Strategy, scale int) error {
	pairs, err := compressPairs(workload, scale)
	if err != nil {
		return err
	}
	st, err := lineage.OpenStore(kvstore.NewMem(), strat, compressSpace, []*grid.Space{compressSpace})
	if err != nil {
		return err
	}
	if err := st.WritePairs(pairs); err != nil {
		return err
	}
	if err := st.Flush(); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(29))
	size := int64(compressSpace.Size())
	for trial := 0; trial < 5; trial++ {
		q := bitmap.New(compressSpace)
		for i := 0; i < 500; i++ {
			q.Set(uint64(rng.Int63n(size)))
		}
		want := bitmap.New(compressSpace)
		for _, rp := range pairs {
			if slices.ContainsFunc(rp.Out, q.Get) {
				for _, c := range rp.Ins[0] {
					want.Set(c)
				}
			}
		}
		got := bitmap.New(compressSpace)
		if err := st.Backward(q, got, 0, nil, nil, nil); err != nil {
			return err
		}
		same := got.Count() == want.Count()
		want.Iterate(func(idx uint64) bool {
			same = same && got.Get(idx)
			return same
		})
		if !same {
			return fmt.Errorf("microbench: %s/%s: backward answer differs from brute force (%d vs %d cells)",
				workload, strat, got.Count(), want.Count())
		}
	}
	return nil
}
