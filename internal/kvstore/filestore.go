package kvstore

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sort"
	"sync"

	"subzero/internal/fault"
)

// Failpoints covering the append/flush path of the log and the commit
// path of the meta sidecar. The crash-point matrix test iterates every
// "kvstore/"-prefixed registered point; a new fsync or commit site MUST
// register one (see CONTRIBUTING). The wrapped file layer adds
// kvstore/file/write (torn-write capable) and kvstore/file/sync.
var (
	fpPut        = fault.Register("kvstore/put")
	fpPutBatch   = fault.Register("kvstore/putbatch")
	fpFlush      = fault.Register("kvstore/flush")
	fpMetaWrite  = fault.Register("kvstore/meta/write")
	fpMetaSync   = fault.Register("kvstore/meta/sync")
	fpMetaRename = fault.Register("kvstore/meta/rename")
	// Registered here as well as by WrapFile (registration is
	// idempotent) so Registered() inventories the file-layer points
	// before the first store opens — the crash matrix enumerates them
	// at test start.
	_ = fault.Register("kvstore/file/write")
	_ = fault.Register("kvstore/file/sync")
)

// FileStore is a log-structured Store: records are appended to a single
// file through a write buffer, and an in-memory index maps each key to the
// offset of its latest record. Overwritten values leave garbage in the log;
// lineage workloads write each key once (or merge a handful of times), so
// compaction is unnecessary and is deliberately omitted.
//
// Record layout (all integers little-endian / uvarint):
//
//	crc32(4) | klen uvarint | vlen uvarint | key | val
//
// The CRC covers the varint lengths, key, and value. On open the file is
// scanned to rebuild the index; the first torn or corrupt record ends the
// scan and the tail is truncated, matching the paper's "lineage is a
// recoverable cache" stance.
type FileStore struct {
	mu      sync.Mutex
	f       fault.File
	w       *bufio.Writer
	index   map[string]recordRef
	offset  int64 // next append position
	dirty   bool
	closed  bool
	path    string
	metaLen int64 // size of the committed meta sidecar, for accounting
}

type recordRef struct {
	off  int64
	klen int
	vlen int
}

const (
	crcSize       = 4
	maxKeyLen     = 1 << 20
	maxValLen     = 1 << 28
	writeBufBytes = 1 << 18
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// OpenFile opens (or creates) a FileStore at path, rebuilding the key
// index from the log and truncating any torn tail.
func OpenFile(path string) (*FileStore, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("kvstore: open %s: %w", path, err)
	}
	s := &FileStore{
		// The fault wrapper sits below the bufio buffer, so an injected
		// torn write leaves exactly what a crashed process would: a
		// partial frame at the file tail.
		f:     fault.WrapFile("kvstore/file", f),
		index: make(map[string]recordRef),
		path:  path,
	}
	if err := s.recover(); err != nil {
		f.Close()
		return nil, err
	}
	if _, err := s.f.Seek(s.offset, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("kvstore: seek %s: %w", path, err)
	}
	s.w = bufio.NewWriterSize(s.f, writeBufBytes)
	if info, err := os.Stat(s.metaPath()); err == nil {
		s.metaLen = info.Size()
	}
	return s, nil
}

// recover scans the log, rebuilding the index. It stops at the first
// invalid record and truncates the file there.
func (s *FileStore) recover() error {
	info, err := s.f.Stat()
	if err != nil {
		return fmt.Errorf("kvstore: stat: %w", err)
	}
	size := info.Size()
	r := bufio.NewReaderSize(io.NewSectionReader(s.f, 0, size), writeBufBytes)
	var off int64
	hdr := make([]byte, crcSize)
	var body []byte
	for off < size {
		if _, err := io.ReadFull(r, hdr); err != nil {
			break // torn tail
		}
		wantCRC := binary.LittleEndian.Uint32(hdr)
		klen, err1 := binary.ReadUvarint(r)
		if err1 != nil || klen > maxKeyLen {
			break
		}
		vlen, err2 := binary.ReadUvarint(r)
		if err2 != nil || vlen > maxValLen {
			break
		}
		framing := uvarintLen(klen) + uvarintLen(vlen)
		need := framing + int(klen) + int(vlen)
		if cap(body) < need {
			body = make([]byte, need)
		}
		body = body[:need]
		n := binary.PutUvarint(body, klen)
		n += binary.PutUvarint(body[n:], vlen)
		if _, err := io.ReadFull(r, body[n:]); err != nil {
			break
		}
		if crc32.Checksum(body, crcTable) != wantCRC {
			break
		}
		key := string(body[framing : framing+int(klen)])
		s.index[key] = recordRef{off: off, klen: int(klen), vlen: int(vlen)}
		off += int64(crcSize + need)
	}
	s.offset = off
	if off < size {
		if err := s.f.Truncate(off); err != nil {
			return fmt.Errorf("kvstore: truncate torn tail: %w", err)
		}
	}
	return nil
}

// Put implements Store.
func (s *FileStore) Put(key, val []byte) error {
	if len(key) > maxKeyLen || len(val) > maxValLen {
		return fmt.Errorf("kvstore: record too large (key %d, val %d)", len(key), len(val))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if err := fault.Inject(fpPut); err != nil {
		return err
	}
	framing := uvarintLen(uint64(len(key))) + uvarintLen(uint64(len(val)))
	body := make([]byte, framing+len(key)+len(val))
	n := binary.PutUvarint(body, uint64(len(key)))
	n += binary.PutUvarint(body[n:], uint64(len(val)))
	copy(body[n:], key)
	copy(body[n+len(key):], val)
	var hdr [crcSize]byte
	binary.LittleEndian.PutUint32(hdr[:], crc32.Checksum(body, crcTable))
	if _, err := s.w.Write(hdr[:]); err != nil {
		return fmt.Errorf("kvstore: append: %w", err)
	}
	if _, err := s.w.Write(body); err != nil {
		return fmt.Errorf("kvstore: append: %w", err)
	}
	s.index[string(key)] = recordRef{off: s.offset, klen: len(key), vlen: len(val)}
	s.offset += int64(crcSize + len(body))
	s.dirty = true
	return nil
}

// PutBatch implements Store: the whole batch is framed and appended
// under one lock acquisition and one pass through the write buffer — the
// group commit the ingest shard workers rely on. A crash mid-batch tears
// the log inside the batch; recovery truncates at the first bad record,
// exactly as for individual Puts.
func (s *FileStore) PutBatch(kvs []KV) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if err := fault.Inject(fpPutBatch); err != nil {
		return err
	}
	// Validate the whole batch before writing any of it, so an oversized
	// record cannot leave a durably applied prefix behind an error.
	for _, kv := range kvs {
		if len(kv.Key) > maxKeyLen || len(kv.Val) > maxValLen {
			return fmt.Errorf("kvstore: record too large (key %d, val %d)", len(kv.Key), len(kv.Val))
		}
	}
	var body []byte
	for _, kv := range kvs {
		framing := uvarintLen(uint64(len(kv.Key))) + uvarintLen(uint64(len(kv.Val)))
		need := framing + len(kv.Key) + len(kv.Val)
		if cap(body) < need {
			body = make([]byte, need)
		}
		body = body[:need]
		n := binary.PutUvarint(body, uint64(len(kv.Key)))
		n += binary.PutUvarint(body[n:], uint64(len(kv.Val)))
		copy(body[n:], kv.Key)
		copy(body[n+len(kv.Key):], kv.Val)
		var hdr [crcSize]byte
		binary.LittleEndian.PutUint32(hdr[:], crc32.Checksum(body, crcTable))
		if _, err := s.w.Write(hdr[:]); err != nil {
			return fmt.Errorf("kvstore: append: %w", err)
		}
		if _, err := s.w.Write(body); err != nil {
			return fmt.Errorf("kvstore: append: %w", err)
		}
		s.index[string(kv.Key)] = recordRef{off: s.offset, klen: len(kv.Key), vlen: len(kv.Val)}
		s.offset += int64(crcSize + need)
	}
	s.dirty = true
	return nil
}

// metaMagic frames the meta sidecar: magic, CRC32 of the payload, payload.
var metaMagic = []byte("szm1")

// metaPath returns the sidecar file holding the atomically committed
// metadata blob.
func (s *FileStore) metaPath() string { return s.path + ".meta" }

// CommitMeta implements Store: the blob is written to a temp file and
// renamed over the sidecar, so a crash at any point leaves either the
// previous blob or the new one — never a torn mix. A torn temp file is
// ignored on load.
func (s *FileStore) CommitMeta(val []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	buf := make([]byte, 0, len(metaMagic)+crcSize+len(val))
	buf = append(buf, metaMagic...)
	var crc [crcSize]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.Checksum(val, crcTable))
	buf = append(buf, crc[:]...)
	buf = append(buf, val...)
	if err := fault.Inject(fpMetaWrite); err != nil {
		return fmt.Errorf("kvstore: write meta temp: %w", err)
	}
	tmp := s.metaPath() + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("kvstore: write meta temp: %w", err)
	}
	_, werr := f.Write(buf)
	// Unlike the data log, the meta temp file IS fsynced before the
	// rename: without it the rename can reach disk ahead of the temp
	// file's contents, destroying the previous blob and leaving a torn
	// new one — exactly the half-load this API exists to prevent. (The
	// directory entry itself is not fsynced; losing the rename leaves
	// the previous valid blob, which is fine.)
	serr := fault.Inject(fpMetaSync)
	if serr == nil {
		serr = f.Sync()
	}
	cerr := f.Close()
	for _, err := range []error{werr, serr, cerr} {
		if err != nil {
			return fmt.Errorf("kvstore: write meta temp: %w", err)
		}
	}
	if err := fault.Inject(fpMetaRename); err != nil {
		return fmt.Errorf("kvstore: commit meta: %w", err)
	}
	if err := os.Rename(tmp, s.metaPath()); err != nil {
		return fmt.Errorf("kvstore: commit meta: %w", err)
	}
	s.metaLen = int64(len(buf))
	return nil
}

// LoadMeta implements Store. A missing, truncated, or corrupt sidecar
// reads as absent: lineage is a recoverable cache, so the
// caller rebuilds what the blob described instead of half-loading it.
func (s *FileStore) LoadMeta() ([]byte, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, false, ErrClosed
	}
	buf, err := os.ReadFile(s.metaPath())
	if err != nil {
		if os.IsNotExist(err) {
			return nil, false, nil
		}
		return nil, false, fmt.Errorf("kvstore: read meta: %w", err)
	}
	hdr := len(metaMagic) + crcSize
	if len(buf) < hdr || string(buf[:len(metaMagic)]) != string(metaMagic) {
		return nil, false, nil // corrupt: treat as absent
	}
	want := binary.LittleEndian.Uint32(buf[len(metaMagic):hdr])
	val := buf[hdr:]
	if crc32.Checksum(val, crcTable) != want {
		return nil, false, nil // corrupt: treat as absent
	}
	s.metaLen = int64(len(buf))
	return val, true, nil
}

// Get implements Store. It flushes pending writes first so index offsets
// are always readable.
func (s *FileStore) Get(key []byte) ([]byte, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, false, ErrClosed
	}
	ref, ok := s.index[string(key)]
	if !ok {
		return nil, false, nil
	}
	if err := s.flushLocked(); err != nil {
		return nil, false, err
	}
	val, err := s.readValue(ref)
	if err != nil {
		return nil, false, err
	}
	return val, true, nil
}

// GetBatch implements Store: one lock acquisition and one write-buffer
// flush serve the whole batch, and value buffers are reused
// between keys (the val passed to fn is only valid during the call).
func (s *FileStore) GetBatch(keys [][]byte, fn func(i int, val []byte, ok bool) bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if err := s.flushLocked(); err != nil {
		return err
	}
	var buf []byte
	for i, k := range keys {
		ref, ok := s.index[string(k)]
		if !ok {
			if !fn(i, nil, false) {
				return nil
			}
			continue
		}
		var err error
		if buf, err = s.readValueInto(ref, buf); err != nil {
			return err
		}
		if !fn(i, buf, true) {
			return nil
		}
	}
	return nil
}

func (s *FileStore) readValue(ref recordRef) ([]byte, error) {
	return s.readValueInto(ref, nil)
}

// readValueInto reads a record's value, reusing buf's storage when it is
// large enough. It owns the record framing arithmetic for all read paths.
func (s *FileStore) readValueInto(ref recordRef, buf []byte) ([]byte, error) {
	framing := uvarintLen(uint64(ref.klen)) + uvarintLen(uint64(ref.vlen))
	skip := int64(crcSize + framing + ref.klen)
	if cap(buf) < ref.vlen {
		buf = make([]byte, ref.vlen)
	}
	buf = buf[:ref.vlen]
	if _, err := s.f.ReadAt(buf, ref.off+skip); err != nil {
		return nil, fmt.Errorf("kvstore: read record at %d: %w", ref.off, err)
	}
	return buf, nil
}

// Scan implements Store. Records are visited in log order (oldest live
// version of each key at its final offset).
func (s *FileStore) Scan(fn func(key, val []byte) bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if err := s.flushLocked(); err != nil {
		return err
	}
	// Sort refs by offset for sequential I/O.
	type kv struct {
		key string
		ref recordRef
	}
	refs := make([]kv, 0, len(s.index))
	for k, ref := range s.index {
		refs = append(refs, kv{k, ref})
	}
	sort.Slice(refs, func(i, j int) bool { return refs[i].ref.off < refs[j].ref.off })
	for _, e := range refs {
		val, err := s.readValue(e.ref)
		if err != nil {
			return err
		}
		if !fn([]byte(e.key), val) {
			return nil
		}
	}
	return nil
}

// Len implements Store.
func (s *FileStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// SizeBytes implements Store: the log file size including garbage plus
// the meta sidecar, which is what a real deployment pays for.
func (s *FileStore) SizeBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.offset + s.metaLen
}

// Sync implements Store: it drains the write buffer. Like the paper's
// BerkeleyDB configuration it does NOT fsync — lineage is a recoverable
// cache and crash durability is explicitly out of scope.
func (s *FileStore) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	return s.flushLocked()
}

func (s *FileStore) flushLocked() error {
	if !s.dirty {
		return nil
	}
	if err := fault.Inject(fpFlush); err != nil {
		return err
	}
	if err := s.w.Flush(); err != nil {
		return fmt.Errorf("kvstore: flush: %w", err)
	}
	s.dirty = false
	return nil
}

// Close implements Store.
func (s *FileStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	flushErr := s.flushLocked()
	closeErr := s.f.Close()
	s.closed = true
	s.index = nil
	if flushErr != nil {
		return flushErr
	}
	return closeErr
}

// Path returns the backing file path.
func (s *FileStore) Path() string { return s.path }

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}
