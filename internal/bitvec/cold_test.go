package bitvec

import (
	"bytes"
	"math/rand"
	"testing"
)

// memPages is an in-memory PageSource holding one encoded payload off bytes
// into its first page, as a packed cold file would. Every byte outside the
// payload is 0xFF — a neighbouring extent's bits — so a kernel that reads
// past its window shows up as a wrong count. It tracks pin balance so tests
// can assert the kernels release every page.
type memPages struct {
	data     []byte // whole pages: 0xFF filler, the payload at off, filler
	pageSize int
	pinned   map[int]int
}

func newMemPages(payload []byte, pageSize, off int) *memPages {
	pages := (off + len(payload) + pageSize - 1) / pageSize
	data := bytes.Repeat([]byte{0xFF}, (pages+1)*pageSize)
	copy(data[off:], payload)
	return &memPages{data: data, pageSize: pageSize, pinned: make(map[int]int)}
}

func (m *memPages) Page(k int) []byte {
	m.pinned[k]++
	return m.data[k*m.pageSize : (k+1)*m.pageSize]
}

func (m *memPages) Release(k int) { m.pinned[k]-- }
func (m *memPages) PageSize() int { return m.pageSize }

func (m *memPages) balanced() bool {
	for _, v := range m.pinned {
		if v != 0 {
			return false
		}
	}
	return true
}

// freezeForTest round-trips a resident slice through the cold format,
// placing the payload off bytes into the first page.
func freezeForTest(t *testing.T, s *Slice, pageSize, off int) (*Slice, *memPages) {
	t.Helper()
	payload := s.EncodeCold()
	src := newMemPages(payload, pageSize, off)
	return NewColdSlice(s.Encoding(), s.Len(), s.Ones(), src, off, len(payload)), src
}

// randomSlice builds a random slice of n bits with approximate density d,
// recompressed so both encodings appear across seeds.
func randomSlice(rng *rand.Rand, n int, d float64, compress bool) *Slice {
	v := New(n)
	if rng.Intn(3) == 0 {
		// Runs: clustered bits, so both kernels also see set bits packed
		// across word and chunk borders.
		for i := 0; i < n; {
			if rng.Float64() < d {
				run := 1 + rng.Intn(40)
				for j := 0; j < run && i < n; j, i = j+1, i+1 {
					v.Set(i)
				}
			} else {
				i += 1 + rng.Intn(30)
			}
		}
	} else {
		for i := 0; i < n; i++ {
			if rng.Float64() < d {
				v.Set(i)
			}
		}
	}
	return DenseSliceOf(v).Recompress(n, compress)
}

// coldPlacements are the regimes the cold property tests sweep. Tiny pages
// make every payload stream through many windows; real pages under long
// slices give payloads longer than a page that start mid-page and straddle.
// In both, the payload starts at a random 8-byte offset inside its first
// page.
var coldPlacements = []struct {
	name           string
	pageSize, n, m int // slice length is n + rand(m)
	trials         int
}{
	{"tiny-pages", 64, 64, 4000, 60},
	{"straddling", 4096, 40000, 60000, 30},
}

func TestColdKernelsMatchResident(t *testing.T) {
	for _, pl := range coldPlacements {
		t.Run(pl.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			seen := map[Encoding]bool{}
			for trial := 0; trial < pl.trials; trial++ {
				n := pl.n + rng.Intn(pl.m)
				dstN := n + rng.Intn(200) // cold slice may be shorter than dst (ZX)
				s := randomSlice(rng, n, []float64{0.001, 0.02, 0.4}[trial%3], trial%2 == 0)
				off := 8 * rng.Intn(pl.pageSize/8)
				cold, src := freezeForTest(t, s, pl.pageSize, off)
				if !cold.IsCold() || cold.Ones() != s.Ones() || cold.Encoding() != s.Encoding() {
					t.Fatalf("trial %d: cold header mismatch", trial)
				}
				seen[s.Encoding()] = true

				mk := func() *Vector {
					d := New(dstN)
					for i := 0; i < dstN; i++ {
						if rng.Float64() < 0.5 {
							d.Set(i)
						}
					}
					return d
				}
				want := mk()
				got := want.Clone()
				if trial%4 == 0 {
					// Summarized accumulator: the cold path must drop and still match.
					want.MaybeSummarize(1)
					got.MaybeSummarize(1)
				}
				wantCnt := s.AndCountInto(want)
				gotCnt := cold.AndCountInto(got)
				if wantCnt != gotCnt {
					t.Fatalf("trial %d (%v, off %d): cold count %d != resident %d", trial, s.Encoding(), off, gotCnt, wantCnt)
				}
				if !got.Equal(want) {
					t.Fatalf("trial %d (%v, off %d): cold AND bits diverge", trial, s.Encoding(), off)
				}
				if !src.balanced() {
					t.Fatalf("trial %d: kernel leaked page pins", trial)
				}
			}
			if len(seen) != 2 {
				t.Fatalf("encodings covered: %v, want both", seen)
			}
		})
	}
}

func TestColdThawRoundTrip(t *testing.T) {
	for _, pl := range coldPlacements {
		t.Run(pl.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			for trial := 0; trial < pl.trials/2; trial++ {
				n := pl.n + rng.Intn(pl.m)
				s := randomSlice(rng, n, []float64{0.005, 0.1, 0.6}[trial%3], true)
				cold, _ := freezeForTest(t, s, pl.pageSize, 8*rng.Intn(pl.pageSize/8))
				th := cold.Thaw()
				if th.IsCold() {
					t.Fatalf("thawed slice still cold")
				}
				if th.Encoding() != s.Encoding() || th.Len() != s.Len() || th.Ones() != s.Ones() {
					t.Fatalf("thaw header mismatch: %v/%d/%d vs %v/%d/%d",
						th.Encoding(), th.Len(), th.Ones(), s.Encoding(), s.Len(), s.Ones())
				}
				if !th.Materialize().Equal(s.Materialize()) {
					t.Fatalf("trial %d (%v): thaw bits diverge", trial, s.Encoding())
				}
				// Cold accessors route through decode and agree with the resident form.
				if !cold.Materialize().Equal(s.Materialize()) {
					t.Fatalf("cold Materialize diverges")
				}
				for i := 0; i < 20; i++ {
					p := rng.Intn(n + 10)
					if cold.Get(p) != s.Get(p) {
						t.Fatalf("cold Get(%d) diverges", p)
					}
				}
			}
		})
	}
}

func TestColdOrAndClone(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	n := 1500
	s := randomSlice(rng, n, 0.05, true)
	cold, _ := freezeForTest(t, s, 128, 40)

	want, got := New(n+64), New(n+64)
	s.OrInto(want)
	cold.OrInto(got)
	if !got.Equal(want) {
		t.Fatalf("cold OrInto diverges")
	}

	c := cold.CloneFor(n + 1)
	if !c.IsCold() || c.Ones() != cold.Ones() {
		t.Fatalf("cold CloneFor lost the cold header")
	}
	if cold.Bytes() != 0 || cold.ColdPayloadBytes() == 0 {
		t.Fatalf("cold accounting: Bytes=%d ColdPayloadBytes=%d", cold.Bytes(), cold.ColdPayloadBytes())
	}
	// Recompress on a cold slice thaws: the result must be resident.
	if r := cold.Recompress(n, false); r.IsCold() || r.Encoding() != EncDense {
		t.Fatalf("Recompress left the slice cold")
	}
}

// TestColdAndKeepsSummaryCapacity pins the allocation behaviour the miner
// depends on under tiering: a cold AND takes the accumulator out of sparse
// mode, and the CopyFrom of a summarized parent that follows — once per
// candidate — must reuse the summary's backing array, not make a new one.
func TestColdAndKeepsSummaryCapacity(t *testing.T) {
	const n = 10000
	rng := rand.New(rand.NewSource(3))
	cold, _ := freezeForTest(t, randomSlice(rng, n, 0.4, false), 4096, 64)
	parent := New(n)
	for i := 0; i < n; i += 997 {
		parent.Set(i)
	}
	parent.Summarize()
	acc := New(n)
	acc.CopyFrom(parent)
	allocs := testing.AllocsPerRun(100, func() {
		cold.AndCountInto(acc)
		if acc.Summarized() {
			t.Fatalf("cold AND left the accumulator summarized")
		}
		acc.CopyFrom(parent)
	})
	if allocs != 0 {
		t.Fatalf("summarize, cold AND, CopyFrom(summarized) allocates %v times per round, want 0", allocs)
	}
	if !acc.Summarized() || !acc.Equal(parent) {
		t.Fatalf("CopyFrom after a cold AND did not restore the summarized copy")
	}
	checkSummary(t, acc)
}
