// Ablation benchmarks for the design choices called out in DESIGN.md:
// payload form (compact descriptor vs the paper's literal fanin×4 cell
// list), the One/Many encoding crossover in fanout, the R-tree node
// fan-out, and the cell-set codec against a fixed-width baseline.
package subzero_test

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"subzero/internal/binenc"
	"subzero/internal/grid"
	"subzero/internal/microbench"
	"subzero/internal/rtree"
)

// BenchmarkAblationPayloadForm compares the two payload layouts of the
// microbenchmark (see internal/microbench: our compact ~21-byte
// descriptor vs the paper's fanin×4-byte cell list) at high fanin, where
// the difference matters.
func BenchmarkAblationPayloadForm(b *testing.B) {
	for _, cells := range []bool{false, true} {
		name := "compact"
		if cells {
			name = "fanin-x4-cells"
		}
		b.Run(name, func(b *testing.B) {
			cfg := microbench.DefaultConfig()
			cfg.Rows, cfg.Cols = 300, 300
			cfg.Fanin, cfg.Fanout = 100, 1
			cfg.PayloadCells = cells
			var bytes int64
			for i := 0; i < b.N; i++ {
				res, err := microbench.Run(context.Background(), cfg, "<-PayOne", "")
				if err != nil {
					b.Fatal(err)
				}
				bytes = res.LineageBytes
			}
			b.ReportMetric(float64(bytes), "lineage-bytes")
		})
	}
}

// BenchmarkAblationEncodingCrossover sweeps fanout for FullOne vs
// FullMany: the per-cell hash entries of FullOne dominate at high fanout,
// the R-tree of FullMany at low fanout (paper §VIII-C's crossover).
func BenchmarkAblationEncodingCrossover(b *testing.B) {
	for _, strat := range []string{"<-FullOne", "<-FullMany"} {
		for _, fanout := range []int{1, 8, 64} {
			b.Run(fmt.Sprintf("%s/fanout-%d", strat, fanout), func(b *testing.B) {
				cfg := microbench.DefaultConfig()
				cfg.Rows, cfg.Cols = 300, 300
				cfg.Fanin, cfg.Fanout = 8, fanout
				var bytes int64
				for i := 0; i < b.N; i++ {
					res, err := microbench.Run(context.Background(), cfg, strat, "")
					if err != nil {
						b.Fatal(err)
					}
					bytes = res.LineageBytes
				}
				b.ReportMetric(float64(bytes), "lineage-bytes")
			})
		}
	}
}

// BenchmarkAblationRTreeFanout measures point-query cost across R-tree
// node fan-outs, justifying the default of 16.
func BenchmarkAblationRTreeFanout(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	items := make([]rtree.Item, 20000)
	for i := range items {
		lo := grid.Coord{rng.Intn(1000), rng.Intn(1000)}
		items[i] = rtree.Item{
			Rect: grid.Rect{Lo: lo, Hi: grid.Coord{lo[0] + rng.Intn(5), lo[1] + rng.Intn(5)}},
			ID:   uint64(i),
		}
	}
	for _, fanout := range []int{8, 16, 32, 64} {
		b.Run(fmt.Sprintf("fanout-%d", fanout), func(b *testing.B) {
			tr := rtree.NewWithFanout(2, fanout)
			for _, it := range items {
				if err := tr.Insert(it); err != nil {
					b.Fatal(err)
				}
			}
			pt := grid.Coord{500, 500}
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tr.SearchPoint(pt, func(rtree.Item) bool { return true })
			}
		})
	}
}

// BenchmarkAblationCellSetCodec compares the tiled container cell-set
// codec against a fixed 8-byte baseline on clustered cells — the
// compression that makes region lineage cheap (and that outperforms the
// paper's fanin×4-byte payloads).
func BenchmarkAblationCellSetCodec(b *testing.B) {
	cells := make([]uint64, 1000)
	base := uint64(500_000)
	for i := range cells {
		cells[i] = base + uint64(i*3)
	}
	b.Run("containers", func(b *testing.B) {
		var size int
		buf := make([]byte, 0, 16*len(cells))
		for i := 0; i < b.N; i++ {
			buf = binenc.AppendCellSetContainers(buf[:0], cells)
			size = len(buf)
		}
		b.ReportMetric(float64(size)/float64(len(cells)), "bytes/cell")
	})
	b.Run("fixed-8-byte", func(b *testing.B) {
		// The naive baseline: 8 bytes per cell, no compression.
		buf := make([]byte, 0, 8*len(cells))
		var size int
		for i := 0; i < b.N; i++ {
			buf = buf[:0]
			for _, c := range cells {
				buf = binary.BigEndian.AppendUint64(buf, c)
			}
			size = len(buf)
		}
		b.ReportMetric(float64(size)/float64(len(cells)), "bytes/cell")
	})
}
