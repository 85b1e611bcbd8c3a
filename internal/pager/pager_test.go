package pager

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// writeColdFile builds a sealed cold file of the given extents and returns
// the payload offset each one landed on.
func writeColdFile(t *testing.T, path string, extents ...[]byte) []int64 {
	t.Helper()
	w, err := Create(path)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	offs := make([]int64, len(extents))
	for i, e := range extents {
		offs[i], err = w.Append(e)
		if err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := w.Seal(); err != nil {
		t.Fatalf("Seal: %v", err)
	}
	return offs
}

// stampedPage is page k of a stamped file: its page number plus one in every
// 8-byte word, so any byte of a recycled buffer left over from another page
// is detectable.
func stampedPage(k int64) []byte {
	pg := make([]byte, PageSize)
	for i := 0; i < PageSize; i += 8 {
		binary.LittleEndian.PutUint64(pg[i:], uint64(k+1))
	}
	return pg
}

// writeStampedFile builds a sealed cold file of n stamped pages.
func writeStampedFile(t *testing.T, path string, n int) {
	t.Helper()
	extents := make([][]byte, n)
	for k := range extents {
		extents[k] = stampedPage(int64(k))
	}
	for k, off := range writeColdFile(t, path, extents...) {
		if off != int64(k)*PageSize {
			t.Fatalf("page-sized extent %d landed at offset %d", k, off)
		}
	}
}

// readExtent reassembles the extent of n bytes at payload offset off.
func readExtent(t *testing.T, f *File, off int64, n int) []byte {
	t.Helper()
	out := make([]byte, 0, n)
	for k, in := off/PageSize, int(off%PageSize); len(out) < n; k, in = k+1, 0 {
		pg, err := f.Page(k)
		if err != nil {
			t.Fatalf("Page(%d): %v", k, err)
		}
		out = append(out, pg[in:min(PageSize, in+n-len(out))]...)
		f.Release(k)
	}
	return out
}

func TestColdFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cold")
	big := make([]byte, PageSize+123)
	for i := range big {
		big[i] = byte(i*7) | 1
	}
	offs := writeColdFile(t, path, []byte("hello"), big)
	// The long extent starts at the next 8-byte boundary and straddles.
	if offs[0] != 0 || offs[1] != 8 {
		t.Fatalf("offsets = %v, want [0 8]", offs)
	}

	p := New(0)
	f, err := p.OpenCold(path)
	if err != nil {
		t.Fatalf("OpenCold: %v", err)
	}
	defer func() { _ = f.Close() }()
	if f.Pages() != 2 {
		t.Fatalf("Pages = %d, want 2", f.Pages())
	}
	if got := readExtent(t, f, offs[0], 8); !bytes.Equal(got, []byte("hello\x00\x00\x00")) {
		t.Fatalf("first extent and its gap = %q", got)
	}
	if got := readExtent(t, f, offs[1], len(big)); !bytes.Equal(got, big) {
		t.Fatalf("straddling extent did not round-trip")
	}
	tail := readExtent(t, f, offs[1]+int64(len(big)), int(2*PageSize-offs[1])-len(big))
	if !bytes.Equal(tail, make([]byte, len(tail))) {
		t.Fatalf("tail of the last page is not zero")
	}
	if _, err := f.Page(2); err == nil {
		t.Fatalf("Page(2) past the end should fail")
	}
	st := p.Stats()
	if st.Faults != 2 || st.Hits != 2 {
		t.Fatalf("stats = %+v, want 2 faults 2 hits", st)
	}
}

// TestWriterPacksExtents pins the layout rules: extents start on 8-byte
// boundaries, one no longer than a page never straddles a page boundary,
// a longer one starts mid-page, and a page-multiple extent appended to an
// empty writer occupies whole pages from 0.
func TestWriterPacksExtents(t *testing.T) {
	dir := t.TempDir()
	fill := func(n int, b byte) []byte { return bytes.Repeat([]byte{b}, n) }
	extents := [][]byte{
		fill(5, 1),          // 0
		fill(1250, 2),       // 8: aligned up from 5
		fill(1250, 3),       // 1264: aligned up from 1258
		fill(1250, 4),       // 2520
		fill(1250, 5),       // 3770 would straddle: next page
		fill(PageSize, 6),   // a whole page never shares one
		fill(10, 7),         // 3*PageSize
		fill(PageSize+8, 8), // longer than a page: starts mid-page, straddles
		fill(PageSize-16, 9),
	}
	want := []int64{0, 8, 1264, 2520, PageSize, 2 * PageSize, 3 * PageSize, 3*PageSize + 16, 5 * PageSize}
	path := filepath.Join(dir, "packed")
	offs := writeColdFile(t, path, extents...)
	for i := range want {
		if offs[i] != want[i] {
			t.Fatalf("extent %d at offset %d, want %d (all: %v)", i, offs[i], want[i], offs)
		}
		if n := int64(len(extents[i])); n <= PageSize && offs[i]/PageSize != (offs[i]+n-1)/PageSize {
			t.Fatalf("extent %d (%d bytes at %d) straddles a page", i, n, offs[i])
		}
	}
	p := New(0)
	f, err := p.OpenCold(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = f.Close() }()
	if f.Pages() != 6 {
		t.Fatalf("Pages = %d, want 6", f.Pages())
	}
	for i, e := range extents {
		if got := readExtent(t, f, offs[i], len(e)); !bytes.Equal(got, e) {
			t.Fatalf("extent %d did not round-trip", i)
		}
	}
	// Gaps are zero: [1250+3770 would-be start, page end) on page 0.
	if gap := readExtent(t, f, 3770, PageSize-3770); !bytes.Equal(gap, make([]byte, len(gap))) {
		t.Fatalf("no-straddle gap is not zero")
	}

	whole := filepath.Join(dir, "whole")
	if offs := writeColdFile(t, whole, make([]byte, 7*PageSize)); offs[0] != 0 {
		t.Fatalf("page-multiple extent at offset %d, want 0", offs[0])
	}
	g, err := p.OpenCold(whole)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = g.Close() }()
	if g.Pages() != 7 {
		t.Fatalf("Pages = %d, want 7", g.Pages())
	}
}

func TestOpenRejectsUnsealedAndForeign(t *testing.T) {
	dir := t.TempDir()
	p := New(0)

	// Unsealed: a writer that appended but never sealed leaves only a .tmp,
	// which Open never sees; simulate a torn seal by clearing the flag.
	path := filepath.Join(dir, "torn")
	writeColdFile(t, path, []byte("payload"))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(raw[32:36], 0)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := p.OpenCold(path); err == nil {
		t.Fatalf("OpenCold accepted an unsealed file")
	}

	// Version 1 padded every extent to a page; its offsets mean something
	// else, so it is refused, not read.
	old := filepath.Join(dir, "v1")
	writeColdFile(t, old, []byte("payload"))
	raw, err = os.ReadFile(old)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(raw[8:12], 1)
	if err := os.WriteFile(old, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := p.OpenCold(old); err == nil || !strings.Contains(err.Error(), "version 1") {
		t.Fatalf("OpenCold on a version-1 file: %v, want a version error", err)
	}

	foreign := filepath.Join(dir, "foreign")
	if err := os.WriteFile(foreign, make([]byte, 2*PageSize), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := p.OpenCold(foreign); err == nil {
		t.Fatalf("OpenCold accepted a foreign file")
	}
}

func TestEvictionRespectsBudgetAndPins(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cold")
	extents := make([][]byte, 8)
	for i := range extents {
		extents[i] = bytes.Repeat([]byte{byte(i + 1)}, PageSize)
	}
	writeColdFile(t, path, extents...)

	p := New(2 * PageSize)
	f, err := p.OpenCold(path)
	if err != nil {
		t.Fatal(err)
	}
	for k := int64(0); k < 8; k++ {
		if _, err := f.Page(k); err != nil {
			t.Fatal(err)
		}
		f.Release(k)
	}
	st := p.Stats()
	if st.ResidentBytes > 2*PageSize {
		t.Fatalf("resident %d exceeds budget", st.ResidentBytes)
	}
	if st.Evictions == 0 {
		t.Fatalf("no evictions under a 2-page budget")
	}

	// A pinned page survives any amount of pressure.
	if _, err := f.Page(0); err != nil {
		t.Fatal(err)
	}
	for k := int64(1); k < 8; k++ {
		if _, err := f.Page(k); err != nil {
			t.Fatal(err)
		}
		f.Release(k)
	}
	if _, hit, _ := p.page(f, 0, false); !hit {
		t.Fatalf("pinned page 0 was evicted")
	}
	f.Release(0)

	// Growing the hot-tier reservation shrinks the frame pool at once.
	evBefore := p.Stats().Evictions
	p.Reserve(PageSize) // pressure: budget now 1 page of frames
	if st := p.Stats(); st.Evictions == evBefore || st.ResidentBytes+st.ReservedBytes > 2*PageSize {
		t.Fatalf("a reservation under a full pool should evict down to the budget: %+v", st)
	}
	p.Reserve(-PageSize)
	_ = f.Close()
	if st := p.Stats(); st.ResidentBytes != 0 {
		t.Fatalf("Close left %d resident bytes", st.ResidentBytes)
	}
}

func TestVirtualFilesModelResidency(t *testing.T) {
	p := New(3 * PageSize)
	f := p.Virtual("txdb")
	if f.Touch(0) {
		t.Fatalf("first touch reported a hit")
	}
	if !f.Touch(0) {
		t.Fatalf("second touch reported a miss")
	}
	for k := int64(1); k < 6; k++ {
		f.Touch(k)
	}
	st := p.Stats()
	if st.ResidentBytes > 3*PageSize {
		t.Fatalf("resident %d exceeds budget", st.ResidentBytes)
	}
	if st.Evictions == 0 {
		t.Fatalf("virtual pages were never evicted")
	}
	if st.HitRatio() <= 0 {
		t.Fatalf("hit ratio = %v, want > 0", st.HitRatio())
	}

	// Nil handles (tiering off) are inert and always hit.
	var nilFile *File
	if !nilFile.Touch(7) {
		t.Fatalf("nil file should report hits")
	}
	var nilPager *Pager
	nilPager.Reserve(10)
	if st := nilPager.Stats(); st != (Stats{}) {
		t.Fatalf("nil pager stats = %+v", st)
	}
}

// TestPagerStatsNotTorn is the pager-side sibling of iostat's
// TestStatsSnapshotNotTorn: Stats() reads independent atomics against live
// traffic, and the one cross-counter invariant it promises — Evictions <=
// Faults, every eviction paid for by a prior admission — must hold for
// every interleaving (Stats reads evictions before faults to make it so).
func TestPagerStatsNotTorn(t *testing.T) {
	p := New(2 * PageSize) // tight budget: constant fault/evict churn
	f := p.Virtual("churn")
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5000; i++ {
			f.Touch(int64(i % 16))
		}
		close(done)
	}()
	for {
		st := p.Stats()
		if st.Evictions > st.Faults {
			t.Errorf("torn snapshot: Evictions=%d > Faults=%d", st.Evictions, st.Faults)
			break
		}
		select {
		case <-done:
			wg.Wait()
			st := p.Stats()
			if st.Evictions == 0 {
				t.Fatalf("churn produced no evictions; the invariant was never exercised")
			}
			return
		default:
		}
	}
	wg.Wait()
}

func TestConcurrentFaulting(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cold")
	writeStampedFile(t, path, 16)
	p := New(4 * PageSize)
	f, err := p.OpenCold(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = f.Close() }()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := int64((g + i) % 16)
				pg, err := f.Page(k)
				if err != nil {
					t.Errorf("Page(%d): %v", k, err)
					return
				}
				// The whole page, while pinned: a buffer recycled under a
				// reader would show another page's stamp somewhere in it.
				if !bytes.Equal(pg, stampedPage(k)) {
					t.Errorf("page %d does not hold its stamp", k)
					return
				}
				f.Release(k)
			}
		}(g)
	}
	wg.Wait()
	if st := p.Stats(); st.Evictions == 0 {
		t.Fatalf("16 pages through a 4-frame pool evicted nothing: %+v", st)
	}
}

// TestPinnedFrameSurvivesBufferReuse pins one page and sweeps four pools'
// worth of other pages past it, so every other frame is evicted and its
// buffer refilled many times over: the pinned bytes must not move, and the
// page must read back right after it is released and re-faulted.
func TestPinnedFrameSurvivesBufferReuse(t *testing.T) {
	const poolPages, filePages, pinned = 8, 64, 5
	path := filepath.Join(t.TempDir(), "cold")
	writeStampedFile(t, path, filePages)
	p := New(poolPages * PageSize)
	f, err := p.OpenCold(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = f.Close() }()

	held, err := f.Page(pinned)
	if err != nil {
		t.Fatal(err)
	}
	sweep := func() {
		for k := int64(0); k < filePages; k++ {
			if k == pinned {
				continue
			}
			pg, err := f.Page(k)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(pg, stampedPage(k)) {
				t.Fatalf("page %d does not hold its stamp", k)
			}
			f.Release(k)
		}
	}
	sweep()
	if !bytes.Equal(held, stampedPage(pinned)) {
		t.Fatalf("pinned page changed under a sweep of 4x the pool")
	}
	if st := p.Stats(); st.Evictions < filePages-poolPages-1 || st.ResidentBytes > poolPages*PageSize {
		t.Fatalf("sweep did not churn the pool inside its budget: %+v", st)
	}
	f.Release(pinned)
	sweep() // now evictable: its buffer is reused like any other
	if _, hit, _ := p.page(f, pinned, false); hit {
		t.Fatalf("released page survived a sweep of 4x the pool")
	}
	pg, err := f.Page(pinned)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pg, stampedPage(pinned)) {
		t.Fatalf("re-faulted page does not hold its stamp")
	}
	f.Release(pinned)
}

// TestSteadyStateFaultAllocatesNothing: once the pool is full, a fault is a
// pread into the victim's buffer.
func TestSteadyStateFaultAllocatesNothing(t *testing.T) {
	const poolPages, filePages = 8, 32
	path := filepath.Join(t.TempDir(), "cold")
	writeStampedFile(t, path, filePages)
	p := New(poolPages * PageSize)
	f, err := p.OpenCold(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = f.Close() }()
	sweep := func() {
		for k := int64(0); k < filePages; k++ {
			if _, err := f.Page(k); err != nil {
				t.Fatal(err)
			}
			f.Release(k)
		}
	}
	sweep() // warm-up: fills the pool and sizes the ring
	before := p.Stats()
	if allocs := testing.AllocsPerRun(10, sweep); allocs != 0 {
		t.Fatalf("a sweep of %d faults allocates %v times, want 0", filePages, allocs)
	}
	after := p.Stats()
	if after.Faults-before.Faults != 11*filePages || after.Hits != before.Hits {
		t.Fatalf("the sweeps were not all faults: %+v -> %+v", before, after)
	}
}

// TestFailedReadKeepsItsBuffer truncates a cold file under an open handle:
// the fault must fail, the buffer it was going to fill must stay with the
// pool, and the pool must answer for the same bytes as before.
func TestFailedReadKeepsItsBuffer(t *testing.T) {
	const poolPages, filePages = 4, 16
	path := filepath.Join(t.TempDir(), "cold")
	writeStampedFile(t, path, filePages)
	p := New(poolPages * PageSize)
	f, err := p.OpenCold(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = f.Close() }()
	for k := int64(0); k < poolPages; k++ {
		if _, err := f.Page(k); err != nil {
			t.Fatal(err)
		}
		f.Release(k)
	}
	before := p.Stats()
	if before.ResidentBytes != poolPages*PageSize {
		t.Fatalf("pool not full: %+v", before)
	}
	if err := os.Truncate(path, (filePages/2+1)*PageSize); err != nil {
		t.Fatal(err)
	}
	for k := int64(filePages / 2); k < filePages; k++ {
		if _, err := f.Page(k); err == nil {
			t.Fatalf("Page(%d) beyond the truncation succeeded", k)
		}
	}
	after := p.Stats()
	if after.ResidentBytes != before.ResidentBytes || after.Faults != before.Faults {
		t.Fatalf("failed reads moved the pool: %+v -> %+v", before, after)
	}
	if len(p.free) != 1 || len(p.free)+len(p.ring) != poolPages {
		t.Fatalf("buffers: %d free + %d resident, want %d in all, 1 free", len(p.free), len(p.ring), poolPages)
	}
	// The surviving half still faults, into the buffer the failures left
	// and then into its own victims'.
	want := stampedPage(filePages/2 - 1)
	if allocs := testing.AllocsPerRun(1, func() {
		for k := int64(0); k < filePages/2; k++ {
			pg, err := f.Page(k)
			if err != nil {
				t.Fatalf("Page(%d) after failed reads: %v", k, err)
			}
			if k == filePages/2-1 && !bytes.Equal(pg, want) {
				t.Fatalf("page %d does not hold its stamp", k)
			}
			f.Release(k)
		}
	}); allocs != 0 {
		t.Fatalf("faults after failed reads allocated %v times", allocs)
	}
	if got := p.Stats().ResidentBytes; got != before.ResidentBytes {
		t.Fatalf("resident bytes %d after recovery, want %d", got, before.ResidentBytes)
	}
}

func BenchmarkPagerFault(b *testing.B) {
	const poolPages, filePages = 64, 256
	path := filepath.Join(b.TempDir(), "cold")
	w, err := Create(path)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := w.Append(make([]byte, filePages*PageSize)); err != nil {
		b.Fatal(err)
	}
	if err := w.Seal(); err != nil {
		b.Fatal(err)
	}
	p := New(poolPages * PageSize)
	f, err := p.OpenCold(path)
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = f.Close() }()
	// A sequential sweep of a file four times the pool never finds its
	// page: CLOCK evicted it a quarter of a sweep ago.
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := int64(i % filePages)
		if _, err := f.Page(k); err != nil {
			b.Fatal(err)
		}
		f.Release(k)
	}
	b.StopTimer()
	if st := p.Stats(); st.Hits != 0 {
		b.Fatalf("benchmark hit the pool %d times; it measures faults", st.Hits)
	}
}
