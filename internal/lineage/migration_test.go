package lineage

import (
	"bytes"
	"errors"
	"testing"

	"subzero/internal/bitmap"
	"subzero/internal/kvstore"
)

// The v3 container encoding is pinned: encodeRecord must emit exactly
// these bytes. A failing golden means a change silently rewrote the
// format, not that the test needs updating.
func TestEncodeGoldenV3Records(t *testing.T) {
	got := encodeRecord(&RegionPair{Out: []uint64{1, 5, 9}, Ins: [][]uint64{{0, 2}, {7}}})
	// flags=4; every set is tiny, so all take the sparse-direct form
	// (count, nTiles=0, first+gaps): outs {1,5,9}, then 2 inputs {0,2}
	// and {7}.
	want := []byte{4, 3, 0, 1, 4, 4, 2, 2, 0, 0, 2, 1, 0, 7}
	if !bytes.Equal(got, want) {
		t.Fatalf("v3 full record bytes = %v, want %v", got, want)
	}
	if rec, err := decodeRecord(got); err != nil {
		t.Fatal(err)
	} else if !equalU64(rec.outs.cells(nil), []uint64{1, 5, 9}) {
		t.Fatalf("v3 sparse decode = %v", rec.outs.cells(nil))
	}

	// A full tile plus a 6-cell run in the next tile: count 1030 (2
	// varint bytes), 2 tiles; tile 0 is type full (header 0<<2|3, no
	// payload); tile 1 (gap 0) is type runs (header 0<<2|1) with one
	// (gap 10, len 6) run.
	out := make([]uint64, 0, 1030)
	for c := uint64(0); c < 1024; c++ {
		out = append(out, c)
	}
	for c := uint64(1034); c < 1040; c++ {
		out = append(out, c)
	}
	got = encodeRecord(&RegionPair{Out: out, Payload: []byte{1}})
	want = []byte{5, 0x86, 0x08, 2, 3, 1, 1, 10, 6, 1, 1}
	if !bytes.Equal(got, want) {
		t.Fatalf("v3 payload record bytes = %v, want %v", got, want)
	}
	rec, err := decodeRecord(got)
	if err != nil {
		t.Fatal(err)
	}
	if rec.outs.size() != 1030 || !equalU64(rec.outs.cells(nil), out) || !bytes.Equal(rec.payload, []byte{1}) {
		t.Fatalf("v3 container decode: size %d", rec.outs.size())
	}
}

// oldFormatRecord is a pair record in a retired format, pinned as the
// literal bytes earlier builds wrote, with the pair it encodes.
type oldFormatRecord struct {
	name  string
	bytes []byte
	pair  RegionPair
	strat Strategy
}

var oldFormatRecords = []oldFormatRecord{
	// v1, flags 0: per-cell delta+varint cell sets — outs {1,5,9} as
	// count+first+gaps, then 2 inputs {0,2} and {7}.
	{"v1-full", []byte{0, 3, 1, 4, 4, 2, 2, 0, 2, 1, 7},
		RegionPair{Out: []uint64{1, 5, 9}, Ins: [][]uint64{{0, 2}, {7}}}, StratFullOne},
	// v1, flags 1: outs {4}, 3-byte payload.
	{"v1-payload", []byte{1, 1, 4, 3, 9, 8, 7},
		RegionPair{Out: []uint64{4}, Payload: []byte{9, 8, 7}}, StratPayMany},
	// v2, flags 2: run-length cell sets — outs as 3 (gap, len) runs,
	// then inputs {0,2} (2 runs) and {7} (1 run).
	{"v2-full", []byte{2, 3, 1, 1, 3, 1, 3, 1, 2, 2, 0, 1, 1, 1, 1, 7, 1},
		RegionPair{Out: []uint64{1, 5, 9}, Ins: [][]uint64{{0, 2}, {7}}}, StratFullOne},
	// v2, flags 3: outs {10..15} as one (gap 10, len 6) run, payload {1}.
	{"v2-payload", []byte{3, 1, 10, 6, 1, 1},
		RegionPair{Out: []uint64{10, 11, 12, 13, 14, 15}, Payload: []byte{1}}, StratPayMany},
}

// A store with a valid metadata sidecar whose pair records an earlier
// build wrote in a retired format opens, but its first lookup reaching
// such a record fails with ErrCorrupt and latches the store degraded —
// so the executor answers by re-execution and the healer rebuilds the
// store in the current format.
func TestOldFormatRecordsDegradeStore(t *testing.T) {
	for _, tc := range oldFormatRecords {
		t.Run(tc.name, func(t *testing.T) {
			kv := kvstore.NewMem()
			st, err := OpenStore(kv, tc.strat, tOutSpace, tInSpaces)
			if err != nil {
				t.Fatal(err)
			}
			if err := st.WritePairs([]RegionPair{tc.pair}); err != nil {
				t.Fatal(err)
			}
			if err := st.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := kv.Put(pairKey(0), tc.bytes); err != nil {
				t.Fatal(err)
			}
			lookups := map[string]func(st *Store, q, dst *bitmap.Bitmap) error{
				"backward": func(st *Store, q, dst *bitmap.Bitmap) error {
					return st.Backward(q, dst, 0, testMapP, nil, nil)
				},
				"forward": func(st *Store, q, dst *bitmap.Bitmap) error {
					return st.Forward(q, dst, 0, testMapP, nil)
				},
			}
			for dir, lookup := range lookups {
				// Reopen per lookup so no record cached by an earlier
				// lookup hides the old bytes.
				st, err := OpenStore(kv, tc.strat, tOutSpace, tInSpaces)
				if err != nil {
					t.Fatalf("%s: open with a valid sidecar: %v", dir, err)
				}
				if st.Degraded() {
					t.Fatalf("%s: store degraded before any lookup", dir)
				}
				q, dst := bitmap.New(tOutSpace), bitmap.New(tInSpaces[0])
				if dir == "forward" {
					q, dst = bitmap.New(tInSpaces[0]), bitmap.New(tOutSpace)
				}
				for c := range q.Space().Size() {
					q.Set(c)
				}
				if err := lookup(st, q, dst); !errors.Is(err, ErrCorrupt) {
					t.Fatalf("%s: err = %v, want ErrCorrupt", dir, err)
				}
				if !st.Degraded() {
					t.Fatalf("%s: corrupt lookup did not latch Degraded", dir)
				}
			}
		})
	}
}

// A store with no metadata sidecar whose pair records are in a retired
// format fails to open with ErrCorrupt: rebuilding the metadata from the
// records cannot decode them, and a half-loaded store is never returned.
func TestOldFormatStoreWithoutMetaFailsOpen(t *testing.T) {
	for _, tc := range oldFormatRecords {
		t.Run(tc.name, func(t *testing.T) {
			kv := kvstore.NewMem()
			if err := kv.Put(pairKey(0), tc.bytes); err != nil {
				t.Fatal(err)
			}
			st, err := OpenStore(kv, tc.strat, tOutSpace, tInSpaces)
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("OpenStore = (%v, %v), want an ErrCorrupt error", st, err)
			}
			if st != nil {
				t.Fatal("OpenStore returned a store alongside its error")
			}
		})
	}
}
