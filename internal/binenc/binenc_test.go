package binenc

import (
	"bytes"
	"encoding/binary"
	"testing"
	"testing/quick"

	"subzero/internal/grid"
)

// decodeCells decodes one container-form cell set, returning the cells
// and the number of bytes consumed.
func decodeCells(src []byte) ([]uint64, int, error) {
	var cells []uint64
	n, err := DecodeContainersInto(src, func(start, length uint64) bool {
		for c := start; c < start+length; c++ {
			cells = append(cells, c)
		}
		return true
	})
	return cells, n, err
}

func TestCellSetRoundTrip(t *testing.T) {
	cases := [][]uint64{
		nil,
		{0},
		{5},
		{1, 2, 3},
		{0, 1000000, 1000001, 1 << 40},
		append(everyOther(0, 512), 1<<40, 1<<40+1),
	}
	for _, cells := range cases {
		enc := AppendCellSetContainers(nil, cells)
		got, n, err := decodeCells(enc)
		if err != nil {
			t.Fatalf("decode %v: %v", cells, err)
		}
		if n != len(enc) {
			t.Fatalf("decode consumed %d of %d bytes", n, len(enc))
		}
		if !equalCells(got, cells) {
			t.Fatalf("got %v, want %v", got, cells)
		}
	}
}

func TestCellSetLocalityCompression(t *testing.T) {
	// A dense run of adjacent cells must encode as a handful of run
	// containers, not per cell; this property is what makes region
	// lineage cheap to store.
	cells := make([]uint64, 1000)
	for i := range cells {
		cells[i] = uint64(1_000_000 + i)
	}
	enc := AppendCellSetContainers(nil, cells)
	if len(enc) > 32 {
		t.Fatalf("dense run encoded to %d bytes, expected a few run containers", len(enc))
	}
}

func TestDecodeCellSetTruncated(t *testing.T) {
	for _, cells := range [][]uint64{
		{1, 500, 100000, 1 << 33},               // sparse-direct
		append(everyOther(0, 512), 5000, 1<<33), // bitmap + array tiles
	} {
		enc := AppendCellSetContainers(nil, cells)
		for cut := 0; cut < len(enc); cut++ {
			// The leading count fixes the set size, so no proper prefix
			// can be a complete valid encoding.
			if _, _, err := decodeCells(enc[:cut]); err == nil {
				t.Fatalf("%d cells: truncation at %d bytes not detected", len(cells), cut)
			}
		}
	}
}

func TestDecodeCellSetBogusCount(t *testing.T) {
	enc := binary.AppendUvarint(nil, 1<<40) // absurd count, tiny buffer
	if _, _, err := decodeCells(enc); err == nil {
		t.Fatal("bogus count not rejected")
	}
}

func TestRectRoundTrip(t *testing.T) {
	cases := []grid.Rect{
		{Lo: grid.Coord{0}, Hi: grid.Coord{0}},
		{Lo: grid.Coord{1, 2}, Hi: grid.Coord{3, 5}},
		{Lo: grid.Coord{0, 0, 0}, Hi: grid.Coord{511, 1999, 7}},
	}
	for _, r := range cases {
		enc := AppendRect(nil, r)
		got, n, err := DecodeRect(enc)
		if err != nil {
			t.Fatalf("decode %v: %v", r, err)
		}
		if n != len(enc) || !got.Equal(r) {
			t.Fatalf("got %v (%d bytes), want %v (%d bytes)", got, n, r, len(enc))
		}
	}
}

func TestRectDecodeErrors(t *testing.T) {
	if _, _, err := DecodeRect(nil); err == nil {
		t.Fatal("empty rect buffer accepted")
	}
	bad := binary.AppendUvarint(nil, 0) // rank 0
	if _, _, err := DecodeRect(bad); err == nil {
		t.Fatal("rank-0 rect accepted")
	}
	enc := AppendRect(nil, grid.Rect{Lo: grid.Coord{3, 4}, Hi: grid.Coord{9, 9}})
	if _, _, err := DecodeRect(enc[:len(enc)-1]); err == nil {
		t.Fatal("truncated rect accepted")
	}
}

func TestBytesRoundTrip(t *testing.T) {
	for _, b := range [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte{0xAB}, 300)} {
		enc := AppendBytes(nil, b)
		got, n, err := DecodeBytes(enc)
		if err != nil {
			t.Fatal(err)
		}
		if n != len(enc) || !bytes.Equal(got, b) {
			t.Fatalf("round trip failed for %d bytes", len(b))
		}
	}
	if _, _, err := DecodeBytes(binary.AppendUvarint(nil, 100)); err == nil {
		t.Fatal("oversize byte string accepted")
	}
}

// Property: cell-set encoding round-trips for arbitrary sorted sets.
func TestQuickCellSetRoundTrip(t *testing.T) {
	f := func(raw []uint32) bool {
		cells := make([]uint64, len(raw))
		for i, v := range raw {
			cells[i] = uint64(v)
		}
		cells = grid.SortCells(cells)
		got, n, err := decodeCells(AppendCellSetContainers(nil, cells))
		return err == nil && n > 0 && equalCells(got, cells)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: multiple values appended back-to-back decode in sequence, as the
// lineage encoder relies on when framing region pairs.
func TestQuickSequentialFrames(t *testing.T) {
	f := func(a, b []uint32, payload []byte) bool {
		ca := grid.SortCells(widen(a))
		cb := grid.SortCells(widen(b))
		var buf []byte
		buf = AppendCellSetContainers(buf, ca)
		buf = AppendBytes(buf, payload)
		buf = AppendCellSetContainers(buf, cb)

		g1, n1, err := decodeCells(buf)
		if err != nil {
			return false
		}
		p, n2, err := DecodeBytes(buf[n1:])
		if err != nil {
			return false
		}
		g2, n3, err := decodeCells(buf[n1+n2:])
		if err != nil || n1+n2+n3 != len(buf) {
			return false
		}
		return equalCells(g1, ca) && equalCells(g2, cb) && bytes.Equal(p, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func widen(in []uint32) []uint64 {
	out := make([]uint64, len(in))
	for i, v := range in {
		out[i] = uint64(v)
	}
	return out
}

func equalCells(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func BenchmarkAppendCellSet1000(b *testing.B) {
	cells := make([]uint64, 1000)
	for i := range cells {
		cells[i] = uint64(i * 3)
	}
	buf := make([]byte, 0, 4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = AppendCellSetContainers(buf[:0], cells)
	}
}

func BenchmarkDecodeCellSet1000(b *testing.B) {
	cells := make([]uint64, 1000)
	for i := range cells {
		cells[i] = uint64(i * 3)
	}
	enc := AppendCellSetContainers(nil, cells)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeContainersInto(enc, func(start, length uint64) bool { return true }); err != nil {
			b.Fatal(err)
		}
	}
}
