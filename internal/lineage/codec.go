package lineage

import (
	"encoding/binary"
	"fmt"
	"sort"

	"subzero/internal/binenc"
	"subzero/internal/bitmap"
)

// Physical key layout inside a store's hashtable:
//
//	'P' + uvarint(pairID)          region-pair record
//	'K' + slot byte + 8-byte cell  per-cell entry (One encodings)
//
// For backward-optimized stores the only key slot is 0 (output cells); for
// forward-optimized stores slot i holds the cells of input i. Store
// metadata (next pair id, stats, R-trees) lives in the hashtable's
// committed metadata blob, not under a key.
const (
	keyPair = 'P'
	keyCell = 'K'
)

func pairKey(id uint64) []byte {
	buf := make([]byte, 1, 11)
	buf[0] = keyPair
	return binary.AppendUvarint(buf, id)
}

func cellKey(slot int, cell uint64) []byte {
	buf := make([]byte, 10)
	buf[0] = keyCell
	buf[1] = byte(slot)
	binary.BigEndian.PutUint64(buf[2:], cell)
	return buf
}

// cellSet is a decoded record cell set as the lookup path consumes it:
// word-parallel application to destination bitmaps (addTo), word-parallel
// probing against query bitmaps (intersects), point membership, and
// ordered iteration. Two implementations exist — runSet for tiny
// sparse-direct sets (materialized runs) and containerSet for tiled sets,
// which answers all of these directly on the compressed container form.
type cellSet interface {
	addTo(dst *bitmap.Bitmap) uint64
	intersects(q *bitmap.Bitmap) bool
	contains(cell uint64) bool
	forEach(fn func(cell uint64) bool)
	cells(dst []uint64) []uint64
	size() uint64
}

// runSet is a decoded cell set held as maximal runs — flat (start,
// length) pairs sorted by start — plus the total cell count. The lookup
// hot path applies whole runs to destination bitmaps (Bitmap.SetRun) and
// probes them word-parallel (Bitmap.AnyInRange) without ever
// materializing a per-cell []uint64.
type runSet struct {
	runs  []uint64 // flat (start, length) pairs
	count uint64
}

// appendRun appends a run, merging it into the previous run when
// contiguous (sparse-direct decoding produces adjacent cells).
func (rs *runSet) appendRun(start, length uint64) {
	if n := len(rs.runs); n > 0 && rs.runs[n-2]+rs.runs[n-1] == start {
		rs.runs[n-1] += length
	} else {
		rs.runs = append(rs.runs, start, length)
	}
	rs.count += length
}

// addTo ORs the set's cells into dst word-parallel, returning the number
// newly set.
func (rs *runSet) addTo(dst *bitmap.Bitmap) uint64 {
	var added uint64
	for i := 0; i < len(rs.runs); i += 2 {
		added += dst.SetRun(rs.runs[i], rs.runs[i+1])
	}
	return added
}

// intersects reports whether any cell of the set is set in q.
func (rs *runSet) intersects(q *bitmap.Bitmap) bool {
	for i := 0; i < len(rs.runs); i += 2 {
		if q.AnyInRange(rs.runs[i], rs.runs[i+1]) {
			return true
		}
	}
	return false
}

// contains reports whether the set holds cell, by binary search over the
// run starts.
func (rs *runSet) contains(cell uint64) bool {
	n := len(rs.runs) / 2
	i := sort.Search(n, func(i int) bool { return rs.runs[2*i] > cell })
	if i == 0 {
		return false
	}
	start, length := rs.runs[2*(i-1)], rs.runs[2*(i-1)+1]
	return cell-start < length
}

// forEach calls fn with every cell in ascending order until fn returns
// false.
func (rs *runSet) forEach(fn func(cell uint64) bool) {
	for i := 0; i < len(rs.runs); i += 2 {
		start, length := rs.runs[i], rs.runs[i+1]
		for c := start; c < start+length; c++ {
			if !fn(c) {
				return
			}
		}
	}
}

// cells materializes the set as a sorted index slice (tests and
// diagnostics only — lookups stay on runs).
func (rs *runSet) cells(dst []uint64) []uint64 {
	rs.forEach(func(c uint64) bool {
		dst = append(dst, c)
		return true
	})
	return dst
}

// size returns the total cell count.
func (rs *runSet) size() uint64 { return rs.count }

// record is a decoded region-pair record. Cell sets stay in their
// compact form — runs for sparse-direct sets, compressed containers
// otherwise — so a record held in recCache costs far less than per-cell
// slices and replays into a destination bitmap word-parallel.
type record struct {
	outs    cellSet
	ins     []cellSet // nil for payload records
	payload []byte
}

// The leading flags byte doubles as the record-format version. Every
// store writes v3, the tiled container form
// (binenc.AppendCellSetContainers), probed in situ. Flags 0–3 were the
// retired v1 (per-cell) and v2 (span) forms: they decode as corrupt, so a
// store written by an earlier build degrades and is rebuilt by
// re-execution rather than read.
const (
	recFull    = 4 // container input cell sets follow
	recPayload = 5 // container outs + payload blob
)

// RecordFormat is the record format version every store writes.
const RecordFormat = 3

// encodeRecord serializes a region pair as a pair-record value. Cell
// offsets are delta-coded against their tile base, and each tile
// independently picks the smallest of the array, run, and bitmap
// container forms.
func encodeRecord(rp *RegionPair) []byte {
	var buf []byte
	if rp.IsPayload() {
		buf = append(buf, recPayload)
		buf = binenc.AppendCellSetContainers(buf, rp.Out)
		buf = binenc.AppendBytes(buf, rp.Payload)
		return buf
	}
	buf = append(buf, recFull)
	buf = binenc.AppendCellSetContainers(buf, rp.Out)
	buf = binary.AppendUvarint(buf, uint64(len(rp.Ins)))
	for _, in := range rp.Ins {
		buf = binenc.AppendCellSetContainers(buf, in)
	}
	return buf
}

// decodeRecord parses a pair-record value.
func decodeRecord(val []byte) (*record, error) {
	if len(val) == 0 {
		return nil, fmt.Errorf("lineage: empty pair record")
	}
	flags, rest := val[0], val[1:]
	switch {
	case flags < recFull:
		return nil, fmt.Errorf("lineage: record format v%d no longer supported", flags/2+1)
	case flags > recPayload:
		return nil, fmt.Errorf("lineage: unknown pair record flags %d", flags)
	}
	rec := &record{}
	outs, n, err := decodeCellSetContainers(rest)
	if err != nil {
		return nil, fmt.Errorf("lineage: pair record outs: %w", err)
	}
	rec.outs = outs
	rest = rest[n:]
	if flags == recPayload {
		payload, _, err := binenc.DecodeBytes(rest)
		if err != nil {
			return nil, fmt.Errorf("lineage: pair record payload: %w", err)
		}
		rec.payload = make([]byte, len(payload)) // non-nil even when empty
		copy(rec.payload, payload)
		return rec, nil
	}
	nIns, read := binary.Uvarint(rest)
	if read <= 0 || nIns > 255 {
		return nil, fmt.Errorf("lineage: pair record input count")
	}
	rest = rest[read:]
	rec.ins = make([]cellSet, nIns)
	for i := range rec.ins {
		in, n, err := decodeCellSetContainers(rest)
		if err != nil {
			return nil, fmt.Errorf("lineage: pair record input %d: %w", i, err)
		}
		rec.ins[i] = in
		rest = rest[n:]
	}
	return rec, nil
}

// encodeIDList serializes the pair-id list stored in a One-encoding cell
// entry (usually a single id).
func encodeIDList(ids []uint64) []byte {
	buf := binary.AppendUvarint(nil, uint64(len(ids)))
	for _, id := range ids {
		buf = binary.AppendUvarint(buf, id)
	}
	return buf
}

// appendIDList parses a cell entry's pair-id list, appending to dst so
// the lookup hot path can reuse one scratch slice across probes.
func appendIDList(dst []uint64, val []byte) ([]uint64, error) {
	n, read := binary.Uvarint(val)
	if read <= 0 || n > uint64(len(val)) {
		return dst, fmt.Errorf("lineage: cell entry id count")
	}
	off := read
	for i := uint64(0); i < n; i++ {
		id, read := binary.Uvarint(val[off:])
		if read <= 0 {
			return dst, fmt.Errorf("lineage: cell entry id %d truncated", i)
		}
		dst = append(dst, id)
		off += read
	}
	return dst, nil
}

// decodeIDList parses a cell entry's pair-id list into a fresh slice
// (write-path merges; lookups use appendIDList).
func decodeIDList(val []byte) ([]uint64, error) {
	return appendIDList(nil, val)
}

// encodePayloadList serializes the payload list stored in a PayOne cell
// entry (paper Figure 4.4 stores "a duplicate of the payload in each hash
// value"; a list handles the rare case of one output cell appearing in
// multiple payload pairs).
func encodePayloadList(payloads [][]byte) []byte {
	buf := binary.AppendUvarint(nil, uint64(len(payloads)))
	for _, p := range payloads {
		buf = binenc.AppendBytes(buf, p)
	}
	return buf
}

// forEachPayload streams the payloads of a PayOne cell entry into fn
// without copying; each payload aliases val and is only valid for the
// duration of the call. A non-nil error from fn stops the scan and is
// returned.
func forEachPayload(val []byte, fn func(p []byte) error) error {
	n, read := binary.Uvarint(val)
	if read <= 0 || n > uint64(len(val))+1 {
		return fmt.Errorf("lineage: payload list count")
	}
	off := read
	for i := uint64(0); i < n; i++ {
		p, consumed, err := binenc.DecodeBytes(val[off:])
		if err != nil {
			return fmt.Errorf("lineage: payload %d: %w", i, err)
		}
		if err := fn(p); err != nil {
			return err
		}
		off += consumed
	}
	return nil
}

// decodePayloadList parses a PayOne cell entry into copied payload slices
// (write-path merges; lookups use forEachPayload).
func decodePayloadList(val []byte) ([][]byte, error) {
	var out [][]byte
	err := forEachPayload(val, func(p []byte) error {
		out = append(out, append([]byte(nil), p...))
		return nil
	})
	if err != nil {
		return nil, err
	}
	if out == nil {
		out = [][]byte{}
	}
	return out, nil
}
