package microbench

import (
	"context"
	"testing"

	"subzero/internal/lineage"
)

// testConfig keeps tests fast: 100x100 array.
func testConfig(fanin, fanout int) Config {
	return Config{Rows: 100, Cols: 100, Coverage: 0.10, Fanin: fanin, Fanout: fanout, Seed: 5}
}

func TestDeterministicPairGeneration(t *testing.T) {
	a, err := Run(context.Background(), testConfig(4, 2), "<-FullOne", "")
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), testConfig(4, 2), "<-FullOne", "")
	if err != nil {
		t.Fatal(err)
	}
	if a.LineageBytes != b.LineageBytes || a.BackwardCells != b.BackwardCells {
		t.Fatalf("non-deterministic: %+v vs %+v", a, b)
	}
}

// Every strategy must return identical query answers; black-box tracing
// is the ground truth.
func TestMicrobenchStrategyEquivalence(t *testing.T) {
	for _, cfg := range []Config{testConfig(1, 1), testConfig(8, 4), testConfig(16, 1)} {
		var wantB, wantF int
		for i, name := range StrategyNames {
			res, err := Run(context.Background(), cfg, name, "")
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if res.BackwardCells == 0 || res.ForwardCells == 0 {
				t.Fatalf("%s: empty query results", name)
			}
			if i == 0 {
				wantB, wantF = res.BackwardCells, res.ForwardCells
				continue
			}
			if res.BackwardCells != wantB || res.ForwardCells != wantF {
				t.Fatalf("%s fanin=%d fanout=%d: got (%d,%d) cells, want (%d,%d)",
					name, cfg.Fanin, cfg.Fanout, res.BackwardCells, res.ForwardCells, wantB, wantF)
			}
		}
	}
}

func TestBlackBoxStoresNothing(t *testing.T) {
	res, err := Run(context.Background(), testConfig(4, 4), "BlackBox", "")
	if err != nil {
		t.Fatal(err)
	}
	if res.LineageBytes != 0 {
		t.Fatalf("black-box stored %d bytes", res.LineageBytes)
	}
}

// Payload storage must be (nearly) independent of fanin, unlike full
// lineage (paper §VIII-C: "payload lineage has a much lower overhead than
// the full lineage approaches and is independent of the fanin" — here the
// payload grows 4 bytes/fanin, dwarfed by full lineage's per-cell cost).
func TestPayloadCheaperThanFullAtHighFanin(t *testing.T) {
	pay, err := Run(context.Background(), testConfig(50, 1), "<-PayOne", "")
	if err != nil {
		t.Fatal(err)
	}
	full, err := Run(context.Background(), testConfig(50, 1), "<-FullOne", "")
	if err != nil {
		t.Fatal(err)
	}
	if pay.LineageBytes >= full.LineageBytes {
		t.Fatalf("payload (%d B) not cheaper than full (%d B) at fanin 50",
			pay.LineageBytes, full.LineageBytes)
	}
}

// Forward-optimized FullOne creates one entry per distinct input cell, so
// its size must grow with fanin relative to the backward-optimized store
// at fanout 1 (paper: "when the fanin increases it can require up to
// fanin× more hash entries").
func TestForwardOptimizedEntryBlowup(t *testing.T) {
	fwd, err := Run(context.Background(), testConfig(30, 1), "->FullOne", "")
	if err != nil {
		t.Fatal(err)
	}
	bwd, err := Run(context.Background(), testConfig(30, 1), "<-FullOne", "")
	if err != nil {
		t.Fatal(err)
	}
	if fwd.LineageBytes <= bwd.LineageBytes {
		t.Fatalf("forward store (%d B) not larger than backward (%d B) at fanin 30 fanout 1",
			fwd.LineageBytes, bwd.LineageBytes)
	}
}

func TestUnknownStrategy(t *testing.T) {
	if _, err := Run(context.Background(), testConfig(1, 1), "nope", ""); err == nil {
		t.Fatal("unknown strategy accepted")
	}
}

func TestMapPCellsRoundTrip(t *testing.T) {
	op := NewSyntheticOp(testConfig(3, 1))
	cells := []uint64{5, 900, 1 << 20}
	got := op.MapP(nil, 0, encodeCellsPayload(cells), 0, nil)
	if len(got) != 3 || got[0] != 5 || got[1] != 900 || got[2] != 1<<20 {
		t.Fatalf("MapP round trip: %v", got)
	}
}

// The literal fanin×4 payload form (the paper's stated size) must also
// answer queries identically — it is the ablation configuration.
func TestPayloadCellsStyleEquivalence(t *testing.T) {
	cfg := testConfig(8, 4)
	base, err := Run(context.Background(), cfg, "BlackBox", "")
	if err != nil {
		t.Fatal(err)
	}
	cfg.PayloadCells = true
	res, err := Run(context.Background(), cfg, "<-PayOne", "")
	if err != nil {
		t.Fatal(err)
	}
	if res.BackwardCells != base.BackwardCells || res.ForwardCells != base.ForwardCells {
		t.Fatalf("cells-style payload answers differ: (%d,%d) vs (%d,%d)",
			res.BackwardCells, res.ForwardCells, base.BackwardCells, base.ForwardCells)
	}
}

// The compact payload must be fanin-independent in size: lineage bytes at
// fanin 50 stay close to fanin 1 (within framing noise).
func TestCompactPayloadFaninIndependent(t *testing.T) {
	small, err := Run(context.Background(), testConfig(1, 1), "<-PayOne", "")
	if err != nil {
		t.Fatal(err)
	}
	big, err := Run(context.Background(), testConfig(50, 1), "<-PayOne", "")
	if err != nil {
		t.Fatal(err)
	}
	if big.LineageBytes > small.LineageBytes*3/2 {
		t.Fatalf("compact payload grew with fanin: %d -> %d", small.LineageBytes, big.LineageBytes)
	}
}

func TestSupportedModes(t *testing.T) {
	op := NewSyntheticOp(testConfig(1, 1))
	modes := op.SupportedModes()
	hasFull, hasPay := false, false
	for _, m := range modes {
		if m == lineage.Full {
			hasFull = true
		}
		if m == lineage.Pay {
			hasPay = true
		}
	}
	if !hasFull || !hasPay {
		t.Fatalf("modes=%v", modes)
	}
}

// Every compression workload's store answers backward queries exactly
// like brute force over its generated pairs, under both encodings.
func TestCompressVerify(t *testing.T) {
	for _, workload := range CompressWorkloads {
		for _, strat := range CompressStrategies {
			if err := CompressVerify(workload, strat, 1); err != nil {
				t.Errorf("%s/%s: %v", workload, strat, err)
			}
		}
	}
	if err := CompressVerify("no-such-workload", lineage.StratFullOne, 1); err == nil {
		t.Error("unknown workload accepted")
	}
}
