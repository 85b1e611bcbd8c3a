package txdb

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"bbsmine/internal/iostat"
)

// FileStore is the persistent Store: an append-only record file plus the
// in-memory positional index used by the Probe refinement. It supports the
// paper's dynamic-database workload — new transactions are appended without
// rewriting anything.
type FileStore struct {
	f       *os.File
	path    string
	offsets []int64 // byte offset of each record
	size    int64   // total file size in bytes
	stats   *iostat.Stats
	cache   pageCache
	wbuf    []byte // reusable append buffer
}

// CreateFileStore creates (or truncates) a transaction database file.
func CreateFileStore(path string, stats *iostat.Stats) (*FileStore, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("txdb: create %s: %w", path, err)
	}
	if _, err := f.Write(fileMagic[:]); err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("txdb: write magic: %w", err)
	}
	if stats == nil {
		stats = &iostat.Stats{}
	}
	return &FileStore{f: f, path: path, size: int64(len(fileMagic)), stats: stats}, nil
}

// OpenFileStore opens an existing database file and rebuilds the positional
// index with one sequential pass (not charged to stats: index construction
// is part of opening the store, not of any mining run).
func OpenFileStore(path string, stats *iostat.Stats) (*FileStore, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("txdb: open %s: %w", path, err)
	}
	var magic [8]byte
	if _, err := io.ReadFull(f, magic[:]); err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("txdb: read magic of %s: %w", path, err)
	}
	if magic != fileMagic {
		_ = f.Close()
		return nil, fmt.Errorf("txdb: %s is not a transaction database file", path)
	}
	if stats == nil {
		stats = &iostat.Stats{}
	}
	s := &FileStore{f: f, path: path, size: int64(len(fileMagic)), stats: stats}
	// Rebuild the offset index.
	cr := &countingReader{r: f}
	br := bufio.NewReaderSize(cr, 1<<16)
	off := int64(len(fileMagic))
	for {
		if _, err := readRecord(br); err != nil {
			if err == io.EOF {
				break
			}
			_ = f.Close()
			return nil, fmt.Errorf("txdb: indexing %s: %w", path, err)
		}
		s.offsets = append(s.offsets, off)
		off = s.size + cr.n - int64(br.Buffered())
	}
	s.size = int64(len(fileMagic)) + cr.n - int64(br.Buffered())
	return s, nil
}

type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// Close closes the underlying file.
func (s *FileStore) Close() error { return s.f.Close() }

// Path returns the file path backing the store.
func (s *FileStore) Path() string { return s.path }

// Stats returns the stats sink the store charges to.
func (s *FileStore) Stats() *iostat.Stats { return s.stats }

// Len implements Store.
func (s *FileStore) Len() int { return len(s.offsets) }

// Scan implements Store.
func (s *FileStore) Scan(fn func(pos int, tx Transaction) bool) error {
	s.stats.AddDBScan()
	s.stats.AddDBSeqPages(pagesFor(s.size))
	if _, err := s.f.Seek(int64(len(fileMagic)), io.SeekStart); err != nil {
		return fmt.Errorf("txdb: seek: %w", err)
	}
	br := bufio.NewReaderSize(s.f, 1<<16)
	for pos := 0; pos < len(s.offsets); pos++ {
		tx, err := readRecord(br)
		if err != nil {
			return fmt.Errorf("txdb: scan at position %d: %w", pos, err)
		}
		if !fn(pos, tx) {
			break
		}
	}
	return nil
}

// Get implements Store.
func (s *FileStore) Get(pos int) (Transaction, error) {
	if pos < 0 || pos >= len(s.offsets) {
		return Transaction{}, fmt.Errorf("txdb: position %d out of range [0,%d)", pos, len(s.offsets))
	}
	start := s.offsets[pos]
	end := s.size
	if pos+1 < len(s.offsets) {
		end = s.offsets[pos+1]
	}
	s.stats.AddDBRandPages(s.cache.misses(start, end, s.stats))
	buf := make([]byte, end-start)
	if _, err := s.f.ReadAt(buf, start); err != nil {
		return Transaction{}, fmt.Errorf("txdb: read record %d: %w", pos, err)
	}
	tx, err := decodeRecord(buf)
	if err != nil {
		return Transaction{}, fmt.Errorf("txdb: record %d: %w", pos, err)
	}
	return tx, nil
}

// decodeRecord parses exactly one record from buf.
func decodeRecord(buf []byte) (Transaction, error) {
	tid, n := binary.Uvarint(buf)
	if n <= 0 {
		return Transaction{}, fmt.Errorf("bad TID varint")
	}
	buf = buf[n:]
	cnt, n := binary.Uvarint(buf)
	if n <= 0 {
		return Transaction{}, fmt.Errorf("bad count varint")
	}
	buf = buf[n:]
	if cnt > uint64(len(buf)) { // every item varint takes at least a byte
		return Transaction{}, fmt.Errorf("count %d exceeds the %d bytes left", cnt, len(buf))
	}
	items := make([]Item, cnt)
	var prev uint64
	for i := range items {
		d, n := binary.Uvarint(buf)
		if n <= 0 {
			return Transaction{}, fmt.Errorf("bad item varint at %d", i)
		}
		buf = buf[n:]
		if i == 0 {
			prev = d
		} else {
			prev += d
		}
		items[i] = Item(prev)
	}
	return Transaction{TID: int64(tid), Items: items}, nil
}

// Append implements Store. The record is written immediately; durability to
// the level of fsync is the caller's choice via Sync.
func (s *FileStore) Append(tx Transaction) error {
	if err := tx.Validate(); err != nil {
		return err
	}
	s.wbuf = appendRecord(s.wbuf[:0], tx)
	if _, err := s.f.WriteAt(s.wbuf, s.size); err != nil {
		return fmt.Errorf("txdb: append: %w", err)
	}
	s.offsets = append(s.offsets, s.size)
	s.size += int64(len(s.wbuf))
	return nil
}

// SetCacheLimit implements CacheLimiter.
func (s *FileStore) SetCacheLimit(bytes int64) { s.cache.setLimit(bytes, s.stats) }

// Sync flushes the file to stable storage.
func (s *FileStore) Sync() error { return s.f.Sync() }

// WriteAll is a convenience that creates a file store at path and appends
// every transaction, returning the open store.
func WriteAll(path string, stats *iostat.Stats, txs []Transaction) (*FileStore, error) {
	s, err := CreateFileStore(path, stats)
	if err != nil {
		return nil, err
	}
	for _, tx := range txs {
		if err := s.Append(tx); err != nil {
			_ = s.Close()
			return nil, err
		}
	}
	return s, nil
}
