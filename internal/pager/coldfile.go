package pager

import (
	"encoding/binary"
	"fmt"
	"os"
)

// Cold-file format, BBSCOLD version 3 (the magic's trailing '1' is part of
// the tag; the version field is what moves). Page 0 is the header:
//
//	magic(8) | version uint32 | pageSize uint32 | payloadPages uint64
//	| payloadBytes uint64 | sealed uint32
//
// followed by payloadPages pages of packed payload extents, the last of
// which ends at payload offset payloadBytes. An extent starts at the next
// 8-byte boundary after its predecessor, so small extents share pages (and
// frames) instead of each being padded to one; the single placement rule is
// that an extent no longer than a page never straddles a page boundary — it
// moves to the start of the next page when the current one cannot hold it —
// so reading it costs one fault. Longer extents start wherever the boundary
// falls and straddle. The gaps and the tail of the last page are zero.
//
// The header's sealed flag is written only after every payload page is
// durable (Seal: pad, fsync, then header, then fsync again — the
// crash-safety ordering), and the whole file is built under a temp name
// renamed into place, so Open can trust any file it accepts. An unsealed
// or torn file fails Open and the caller rebuilds it from the
// authoritative index — cold files are derived data, which is also why
// older versions have no reader here: version 1 put one page-aligned
// extent per slice, and version 2 held a sparse slice as uint32 positions
// where version 3 holds the resident per-chunk record stream (see
// bitvec/cold.go).

var coldMagic = [8]byte{'B', 'B', 'S', 'C', 'O', 'L', 'D', '1'}

const coldVersion = 3

// extentAlign is the boundary extents start on: the width of a dense
// payload's words, so no word ever straddles a page.
const extentAlign = 8

var zeroPage [PageSize]byte

// File is a handle to cold pages, either backed by a sealed cold file
// (Page/Release fault real bytes) or virtual (Touch models residency for a
// store that keeps its own bytes, like txdb). A nil *File is inert.
type File struct {
	p     *Pager
	f     *os.File // nil for virtual files
	pages int64    // payload page count; 0 and unused for virtual files
	name  string
}

// OpenCold opens a sealed cold file for read-through faulting. It refuses
// unsealed, truncated, or foreign files.
func (p *Pager) OpenCold(path string) (*File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("pager: open cold file: %w", err)
	}
	hdr := make([]byte, PageSize)
	if _, err := f.ReadAt(hdr, 0); err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("pager: read cold header %s: %w", path, err)
	}
	if [8]byte(hdr[0:8]) != coldMagic {
		_ = f.Close()
		return nil, fmt.Errorf("pager: %s is not a cold file", path)
	}
	if v := binary.LittleEndian.Uint32(hdr[8:12]); v != coldVersion {
		_ = f.Close()
		return nil, fmt.Errorf("pager: cold file %s has version %d, want %d", path, v, coldVersion)
	}
	if ps := binary.LittleEndian.Uint32(hdr[12:16]); ps != PageSize {
		_ = f.Close()
		return nil, fmt.Errorf("pager: cold file %s has page size %d, want %d", path, ps, PageSize)
	}
	pages := int64(binary.LittleEndian.Uint64(hdr[16:24]))
	if sealed := binary.LittleEndian.Uint32(hdr[32:36]); sealed != 1 {
		_ = f.Close()
		return nil, fmt.Errorf("pager: cold file %s is unsealed (torn write)", path)
	}
	st, err := f.Stat()
	if err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("pager: stat cold file %s: %w", path, err)
	}
	if st.Size() < (pages+1)*PageSize {
		_ = f.Close()
		return nil, fmt.Errorf("pager: cold file %s truncated: %d bytes for %d payload pages", path, st.Size(), pages)
	}
	return &File{p: p, f: f, pages: pages, name: path}, nil
}

// Virtual returns a data-less file whose pages exist only as residency
// accounting — the txdb page-cache model rehosted on the shared pool.
// Returns nil on a nil pager; a nil *File's Touch always reports a hit.
func (p *Pager) Virtual(name string) *File {
	if p == nil {
		return nil
	}
	return &File{p: p, name: name}
}

// Page pins payload page k and returns its bytes (always PageSize long;
// bytes outside every extent are zero). The caller must Release(k) when
// done streaming and must not retain or modify the slice afterwards: the
// buffer is reused for another page once the frame is evicted.
func (f *File) Page(k int64) ([]byte, error) {
	data, _, err := f.p.page(f, k, true)
	return data, err
}

// Release unpins one Page(k) pin.
func (f *File) Release(k int64) { f.p.release(f, k) }

// Touch records an access to virtual page k and reports whether it was
// already resident. Misses admit the page (charging PageSize against the
// shared budget); there are no pins — virtual pages carry no bytes to
// protect. Safe on a nil receiver (always a hit, so disabled tiering
// charges nothing).
func (f *File) Touch(k int64) bool {
	if f == nil {
		return true
	}
	_, hit, _ := f.p.page(f, k, false) // virtual pages cannot fail: no I/O
	return hit
}

// Pages returns the payload page count of a cold file (0 for virtual).
func (f *File) Pages() int64 { return f.pages }

// Name returns the path (cold) or label (virtual) the file was opened with.
func (f *File) Name() string { return f.name }

// Close drops every frame of this file from the pool and closes the
// backing descriptor. Cold consumers must not fault through the handle
// afterwards.
func (f *File) Close() error {
	if f == nil {
		return nil
	}
	f.p.dropFile(f)
	if f.f == nil {
		return nil
	}
	if err := f.f.Close(); err != nil {
		return fmt.Errorf("pager: close cold file %s: %w", f.name, err)
	}
	return nil
}

// Writer builds a cold file of packed extents (see the format comment);
// Seal makes the payload durable before stamping the header and renaming
// the temp file into place.
type Writer struct {
	f    *os.File
	path string // final path; the descriptor writes path+".tmp"
	pos  int64  // payload bytes written so far, gaps included
}

// Create starts a cold file at path, building under path+".tmp" until
// Seal renames it into place. An existing file at path stays valid (and
// open handles stay on the old inode) until the rename.
func Create(path string) (*Writer, error) {
	f, err := os.OpenFile(path+".tmp", os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("pager: create cold file: %w", err)
	}
	// Reserve the header page; it is rewritten, sealed, at Seal time.
	if _, err := f.Write(zeroPage[:]); err != nil {
		_ = f.Close()
		_ = os.Remove(path + ".tmp")
		return nil, fmt.Errorf("pager: write cold header %s: %w", path, err)
	}
	return &Writer{f: f, path: path}, nil
}

// Append writes one payload extent and returns the payload offset of its
// first byte: page off/PageSize, in-page offset off%PageSize.
func (w *Writer) Append(payload []byte) (off int64, err error) {
	off = (w.pos + extentAlign - 1) &^ (extentAlign - 1)
	if n := int64(len(payload)); n <= PageSize && off%PageSize+n > PageSize {
		off += PageSize - off%PageSize // would straddle: start on the next page
	}
	if err := w.pad(off); err != nil {
		return 0, err
	}
	if _, err := w.f.Write(payload); err != nil {
		return 0, fmt.Errorf("pager: append cold extent: %w", err)
	}
	w.pos = off + int64(len(payload))
	return off, nil
}

// pad zero-fills the payload up to offset to; the gap is always shorter
// than a page, and usually empty.
func (w *Writer) pad(to int64) error {
	if to == w.pos {
		return nil
	}
	if _, err := w.f.Write(zeroPage[:to-w.pos]); err != nil {
		return fmt.Errorf("pager: pad cold extent: %w", err)
	}
	w.pos = to
	return nil
}

// Seal makes the file durable and visible: pad the last page, fsync the
// payload, write the sealed header, fsync again, close, and rename over the
// final path — in that order, so a crash at any point leaves either the
// old file or no file, never a half-written one that Open would accept.
func (w *Writer) Seal() error {
	payloadBytes := w.pos
	pages := (w.pos + PageSize - 1) / PageSize
	if err := w.pad(pages * PageSize); err != nil {
		w.abort()
		return err
	}
	if err := w.f.Sync(); err != nil {
		w.abort()
		return fmt.Errorf("pager: sync cold payload %s: %w", w.path, err)
	}
	hdr := make([]byte, PageSize)
	copy(hdr, coldMagic[:])
	binary.LittleEndian.PutUint32(hdr[8:12], coldVersion)
	binary.LittleEndian.PutUint32(hdr[12:16], PageSize)
	binary.LittleEndian.PutUint64(hdr[16:24], uint64(pages))
	binary.LittleEndian.PutUint64(hdr[24:32], uint64(payloadBytes))
	binary.LittleEndian.PutUint32(hdr[32:36], 1) // sealed
	if _, err := w.f.WriteAt(hdr, 0); err != nil {
		w.abort()
		return fmt.Errorf("pager: seal cold header %s: %w", w.path, err)
	}
	if err := w.f.Sync(); err != nil {
		w.abort()
		return fmt.Errorf("pager: sync cold header %s: %w", w.path, err)
	}
	if err := w.f.Close(); err != nil {
		_ = os.Remove(w.path + ".tmp")
		return fmt.Errorf("pager: close cold file %s: %w", w.path, err)
	}
	if err := os.Rename(w.path+".tmp", w.path); err != nil {
		_ = os.Remove(w.path + ".tmp")
		return fmt.Errorf("pager: install cold file %s: %w", w.path, err)
	}
	return nil
}

// Abort discards a partially written cold file.
func (w *Writer) Abort() { w.abort() }

func (w *Writer) abort() {
	_ = w.f.Close()
	_ = os.Remove(w.path + ".tmp")
}
