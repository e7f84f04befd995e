package binenc

import (
	"testing"
)

// The decoders must never panic or over-consume on arbitrary bytes, and
// encode→decode must be the identity on canonical inputs. Byte-exact
// decode→re-encode is deliberately NOT asserted: binary.Uvarint accepts
// non-minimal varints, so valid decodes of non-canonical bytes exist.
// Seed corpora come from the golden-bytes fixtures the unit tests pin.

func FuzzDecodeContainers(f *testing.F) {
	f.Add(AppendCellSetContainers(nil, nil))
	f.Add(AppendCellSetContainers(nil, []uint64{5, 9, 1024}))                                                       // sparse-direct golden
	f.Add(AppendCellSetContainers(nil, []uint64{100, 101, 102, 103, 104, 105, 106, 107, 108}))                      // run container
	f.Add(AppendCellSetContainers(nil, fullTile(0)))                                                                // full container
	f.Add(AppendCellSetContainers(nil, everyOther(2048, 512)))                                                      // bitmap container
	f.Add(AppendCellSetContainers(nil, []uint64{10, 500, 900, 2048, 3000, 1 << 40, 1<<40 + 999, 2 << 40, 3 << 40})) // array containers across far tiles
	f.Add([]byte{8, 1, 1, 1, 0, 4})                                                                                 // count mismatch
	f.Add([]byte{9, 1, 1, 1, 0, 0})                                                                                 // zero-length run
	f.Add([]byte{0x80})                                                                                             // truncated varint

	f.Fuzz(func(t *testing.T, data []byte) {
		// Arbitrary bytes: the decoder must never panic, emit a
		// zero-length run, or consume past the buffer.
		const maxRuns = 4096
		runs := 0
		n, err := DecodeContainersInto(data, func(start, length uint64) bool {
			if length == 0 {
				t.Fatalf("decoder emitted a zero-length run at %d", start)
			}
			runs++
			return runs < maxRuns
		})
		if err == nil && (n < 0 || n > len(data)) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}

		// Canonical path: derive a sorted cell set from the input, encode
		// it in container form, and require the streaming decode to
		// reproduce it cell for cell.
		limit := len(data)
		if limit > maxRuns {
			limit = maxRuns
		}
		cells := make([]uint64, 0, limit)
		pos := uint64(0)
		for _, b := range data[:limit] {
			pos += uint64(b>>3) + 1 // gap 1 (consecutive) up to 32
			cells = append(cells, pos)
		}
		enc := AppendCellSetContainers(nil, cells)
		var decoded []uint64
		dn, err := DecodeContainersInto(enc, func(start, length uint64) bool {
			for c := start; c < start+length; c++ {
				decoded = append(decoded, c)
			}
			return true
		})
		if err != nil || dn != len(enc) {
			t.Fatalf("decode canonical encoding = (%d, %v), want (%d, nil)", dn, err, len(enc))
		}
		assertSameCells(t, "canonical container round-trip", decoded, cells)

		// Encode→decode must be a fixed point: re-encoding the decoded
		// set reproduces the canonical bytes (the rebuild-determinism
		// contract).
		re := AppendCellSetContainers(nil, decoded)
		if string(re) != string(enc) {
			t.Fatalf("re-encode differs: %v vs %v", re, enc)
		}
	})
}

func assertSameCells(t *testing.T, what string, got, want []uint64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d cells, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: cell %d = %d, want %d", what, i, got[i], want[i])
		}
	}
}
