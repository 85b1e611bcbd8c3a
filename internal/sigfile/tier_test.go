package sigfile

import (
	"math/rand"
	"path/filepath"
	"sort"
	"testing"

	"bbsmine/internal/pager"
	"bbsmine/internal/sighash"
)

// TestTierPacksColdSlicesInTouchRank pins the cold-file layout from the
// outside: cold extents are written hottest-first and share pages, so
// AND-ing the most-touched cold slices costs one fault per page-full, not
// one per slice — and every cold AND still produces the resident bits.
func TestTierPacksColdSlicesInTouchRank(t *testing.T) {
	const m, rows = 256, 4000 // 500-byte slices: eight to a 4 KiB page
	rng := rand.New(rand.NewSource(11))
	idx := New(sighash.NewMD5(m, 3), nil)
	for i := 0; i < rows; i++ {
		idx.Insert(randomItems(rng, 8, 2000))
	}
	// Touch counts scattered over the positions, all distinct.
	touches := make([]uint64, m)
	byRank := make([]int, m) // byRank[r] = position with the r-th highest count
	for p := range touches {
		r := (p * 37) % m
		touches[p] = uint64(m - r)
		byRank[r] = p
	}
	want := make([]int, m)
	acc := idx.NewResult()
	for p := 0; p < m; p++ {
		acc.SetAll()
		want[p] = idx.AndSlice(acc, p)
	}

	pg := pager.New(2 * pager.PageSize)
	if err := idx.Tier(pg, filepath.Join(t.TempDir(), "slices.cold"), 0, touches); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = idx.Untier() }()
	if hot, cold := idx.TierCensus(); hot != 0 || cold != m {
		t.Fatalf("census hot=%d cold=%d under a zero hot budget, want 0/%d", hot, cold, m)
	}
	for r, p := range byRank {
		acc.SetAll()
		if got := idx.AndSlice(acc, p); got != want[p] {
			t.Fatalf("cold AND of slice %d counts %d, resident counted %d", p, got, want[p])
		}
		if st := pg.Stats(); st.Faults != int64(r/8+1) || st.Hits != int64(r-r/8) {
			t.Fatalf("after the %d hottest slices: %+v, want one fault per eight slices", r+1, st)
		}
	}
	if st := pg.Stats(); st.Evictions == 0 {
		t.Fatalf("32 pages through a 2-frame pool evicted nothing: %+v", st)
	}
}

// coldBench builds a fig6-shaped index (M=1600, 10 000 rows: 1250-byte
// slices), compressed or not, tiers it under half its resident footprint
// the way Database.Tier does, and returns it with the pool and the
// positions of its cold slices in the order Tier packed them (smallest
// payload first), so neighbours in the list share pages. Compressed, every
// slice of this uniform data is sparse, so the cold ANDs run the sparse
// record kernel.
func coldBench(b *testing.B, compress bool) (*BBS, *pager.Pager, []int) {
	b.Helper()
	rng := rand.New(rand.NewSource(71))
	idx := New(sighash.NewMD5(1600, 4), nil)
	for i := 0; i < 10000; i++ {
		idx.Insert(randomItems(rng, 10, 10000))
	}
	idx.SetCompression(compress)
	budget := idx.ResidentSliceBytes() / 2
	pg := pager.New(budget)
	if err := idx.Tier(pg, filepath.Join(b.TempDir(), "slices.cold"), budget/2, nil); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = idx.Untier() })
	var cold []int
	for p := 0; p < idx.M(); p++ {
		if idx.slices[p].IsCold() {
			cold = append(cold, p)
		}
	}
	if len(cold) == 0 {
		b.Fatal("nothing went cold under half the footprint")
	}
	sort.SliceStable(cold, func(i, j int) bool {
		return idx.slices[cold[i]].ColdPayloadBytes() < idx.slices[cold[j]].ColdPayloadBytes()
	})
	return idx, pg, cold
}

// coldStorages names coldBench's two indexes.
var coldStorages = []struct {
	name     string
	compress bool
}{{"dense", false}, {"compressed", true}}

// runColdAnds times AndSlice over the given cold positions in turn and
// reports the share of page requests that had to fault.
func runColdAnds(b *testing.B, idx *BBS, pg *pager.Pager, walk []int) {
	acc := idx.NewResult()
	for _, p := range walk {
		idx.AndSlice(acc, p) // warm-up: one pass over the walk
	}
	before := pg.Stats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx.AndSlice(acc, walk[i%len(walk)])
	}
	b.StopTimer()
	after := pg.Stats()
	b.ReportMetric(float64(after.Faults-before.Faults)/float64(b.N), "faults/op")
}

// BenchmarkAndSliceColdHit ANDs 32 cold slices packed side by side, whose
// pages all fit the pool: the cost of the cold kernel plus a pin and an
// unpin.
func BenchmarkAndSliceColdHit(b *testing.B) {
	for _, st := range coldStorages {
		b.Run(st.name, func(b *testing.B) {
			idx, pg, cold := coldBench(b, st.compress)
			runColdAnds(b, idx, pg, cold[:min(len(cold), 32)])
		})
	}
}

// BenchmarkAndSliceColdFault walks every cold slice with a stride that
// lands consecutive ANDs on different pages and comes back to a page only
// after more pages than the pool holds: nearly every AND pays a fault.
func BenchmarkAndSliceColdFault(b *testing.B) {
	for _, st := range coldStorages {
		b.Run(st.name, func(b *testing.B) {
			idx, pg, cold := coldBench(b, st.compress)
			walk := make([]int, len(cold))
			for i := range walk {
				walk[i] = cold[(i*7)%len(cold)]
			}
			runColdAnds(b, idx, pg, walk)
		})
	}
}
