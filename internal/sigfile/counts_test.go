package sigfile

import (
	"bufio"
	"bytes"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"bbsmine/internal/iostat"
	"bbsmine/internal/sighash"
)

// edgeItems are the item IDs the counter table must get right on top of a
// random alphabet: both int32 extremes, the page boundaries around zero and
// the first page boundaries above it.
var edgeItems = []int32{math.MinInt32, math.MinInt32 + 1, -65, -64, -1, 0, 63, 64, 255, 256, math.MaxInt32 - 1, math.MaxInt32}

// oracleItem draws an item: an edge item a third of the time, else one of a
// small dense alphabet, so counts climb above one and pages fill and empty.
func oracleItem(rng *rand.Rand) int32 {
	if rng.Intn(3) == 0 {
		return edgeItems[rng.Intn(len(edgeItems))]
	}
	return int32(rng.Intn(300)) - 20
}

// countsOf renders an index's counters as a map, via Items and ExactCount.
// Items must come back strictly ascending, each with a positive count.
func countsOf(t *testing.T, b *BBS) map[int32]int {
	t.Helper()
	items := b.Items()
	for i := 1; i < len(items); i++ {
		if items[i] <= items[i-1] {
			t.Fatalf("Items not strictly ascending at %d: %d after %d", i, items[i], items[i-1])
		}
	}
	out := readCounts(b)
	for _, it := range items {
		if out[it] <= 0 {
			t.Fatalf("Items lists %d with count %d", it, out[it])
		}
	}
	return out
}

// readCounts is countsOf without the checks, for goroutines other than the
// test's own.
func readCounts(b *BBS) map[int32]int {
	items := b.Items()
	out := make(map[int32]int, len(items))
	for _, it := range items {
		out[it] = b.ExactCount(it)
	}
	return out
}

// equalCounts compares two count maps by their sorted keys.
func equalCounts(a, b map[int32]int) bool {
	if len(a) != len(b) {
		return false
	}
	for _, k := range sortedKeys(a) {
		if c, ok := b[k]; !ok || c != a[k] {
			return false
		}
	}
	return true
}

func sortedKeys(m map[int32]int) []int32 {
	keys := make([]int32, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// TestItemCountsMatchOracle drives random Insert / Delete / Snapshot / fold /
// Save→Load sequences against a plain map. After every step the master must
// agree with the oracle — by Items/ExactCount, and on every edge item and
// its neighbours — and every earlier snapshot must still read exactly what
// it read when it was taken.
func TestItemCountsMatchOracle(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := sighash.NewMD5(64, 2)
		master := New(h, &iostat.Stats{})
		oracle := map[int32]int{}
		var rows [][]int32
		type frozen struct {
			snap *BBS
			want map[int32]int
		}
		var snaps []frozen

		check := func(step int, op string) {
			t.Helper()
			if got := countsOf(t, master); !equalCounts(got, oracle) {
				t.Fatalf("seed %d step %d (%s): master counts %v, oracle %v", seed, step, op, got, oracle)
			}
			if got := master.itemCounts.len(); got != len(oracle) {
				t.Fatalf("seed %d step %d (%s): table tracks %d items, oracle has %d", seed, step, op, got, len(oracle))
			}
			for _, it := range edgeItems {
				for _, probe := range []int64{int64(it) - 1, int64(it), int64(it) + 1} {
					if probe < math.MinInt32 || probe > math.MaxInt32 {
						continue
					}
					if got, want := master.ExactCount(int32(probe)), oracle[int32(probe)]; got != want {
						t.Fatalf("seed %d step %d (%s): ExactCount(%d) = %d, oracle %d", seed, step, op, probe, got, want)
					}
				}
			}
			for i, f := range snaps {
				if got := countsOf(t, f.snap); !equalCounts(got, f.want) {
					t.Fatalf("seed %d step %d (%s): snapshot %d drifted: %v, want %v", seed, step, op, i, got, f.want)
				}
			}
		}

		for step := 0; step < 400; step++ {
			var op string
			switch r := rng.Intn(20); {
			case r < 11:
				op = "insert"
				items := make([]int32, 1+rng.Intn(6))
				for i := range items {
					items[i] = oracleItem(rng) // unsorted, possibly duplicated
				}
				master.Insert(items)
				rows = append(rows, items)
				seen := map[int32]bool{}
				for _, it := range items {
					if !seen[it] {
						seen[it] = true
						oracle[it]++
					}
				}
			case r < 15:
				op = "delete"
				pos := rng.Intn(len(rows) + 1)
				if pos == len(rows) || !master.IsLive(pos) {
					continue
				}
				if err := master.Delete(pos, rows[pos]); err != nil {
					t.Fatal(err)
				}
				seen := map[int32]bool{}
				for _, it := range rows[pos] {
					if !seen[it] {
						seen[it] = true
						if oracle[it]--; oracle[it] == 0 {
							delete(oracle, it)
						}
					}
				}
			case r < 18:
				op = "snapshot"
				want := make(map[int32]int, len(oracle))
				for _, k := range sortedKeys(oracle) {
					want[k] = oracle[k]
				}
				snaps = append(snaps, frozen{snap: master.Snapshot(), want: want})
			case r < 19:
				op = "fold"
				f := master.fold(1 + rng.Intn(master.M()))
				if got := countsOf(t, f); !equalCounts(got, oracle) {
					t.Fatalf("seed %d step %d: folded counts %v, oracle %v", seed, step, got, oracle)
				}
				// The fold shares no page: bumping it leaves the master alone.
				f.Insert([]int32{edgeItems[rng.Intn(len(edgeItems))]})
			default:
				op = "save/load"
				enc := encodeBBS(t, master)
				loaded, err := decodeBBS(bufio.NewReader(bytes.NewReader(enc)), h, &iostat.Stats{})
				if err != nil {
					t.Fatalf("seed %d step %d: decode: %v", seed, step, err)
				}
				if !bytes.Equal(enc, encodeBBS(t, loaded)) {
					t.Fatalf("seed %d step %d: save→load→save not byte-identical", seed, step)
				}
				master = loaded // carry on writing to the loaded index
			}
			check(step, op)
		}
	}
}

// TestSnapshotCountersConcurrentWithCommit races readers of published
// snapshots' counters against a master that keeps committing (inserts,
// deletes, snapshots) — clean under -race, and every reader sees exactly
// its snapshot's counts.
func TestSnapshotCountersConcurrentWithCommit(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	master := New(sighash.NewMD5(64, 2), nil)
	var rows [][]int32
	for i := 0; i < 200; i++ {
		row := []int32{oracleItem(rng), oracleItem(rng), oracleItem(rng)}
		master.Insert(row)
		rows = append(rows, row)
	}
	type published struct {
		snap *BBS
		want map[int32]int // its counts, read before the master moved on
	}
	pubs := make(chan published, 8)
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := range pubs { // drains every snapshot, so the writer never blocks
				for i := 0; i < 5; i++ {
					if got := readCounts(p.snap); !equalCounts(got, p.want) {
						t.Errorf("snapshot counters moved under a concurrent commit")
						break
					}
				}
			}
		}()
	}
	for batch := 0; batch < 40; batch++ {
		snap := master.Snapshot()
		pubs <- published{snap: snap, want: readCounts(snap)}
		for i := 0; i < 5; i++ {
			row := []int32{oracleItem(rng), oracleItem(rng)}
			master.Insert(row)
			rows = append(rows, row)
		}
		if pos := rng.Intn(len(rows)); master.IsLive(pos) {
			if err := master.Delete(pos, rows[pos]); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(pubs)
	wg.Wait()
}

// commitBytes builds an index of rows rows of 33 consecutive items each,
// reduced modulo alphabet, snapshots it and returns the bytes the same
// 10-row commit allocates on top of the snapshot (the fewest over three
// tries, each on a fresh snapshot, to shed runtime noise).
func commitBytes(alphabet int) uint64 {
	const rows, width = 2000, 33
	b := New(sighash.NewMD5(256, 3), nil)
	for r := 0; r < rows; r++ {
		items := make([]int32, width)
		for j := range items {
			items[j] = int32((r*width + j) % alphabet)
		}
		slices.Sort(items)
		b.Insert(items)
	}
	commit := make([][]int32, 10)
	for i := range commit {
		commit[i] = []int32{int32(7 * i), int32(7*i + 100), int32(7*i + 300), int32(7*i + 500), int32(7*i + 900)}
	}
	best := uint64(math.MaxUint64)
	var before, after runtime.MemStats
	for try := 0; try < 3; try++ {
		_ = b.Snapshot()
		runtime.ReadMemStats(&before)
		for _, items := range commit {
			b.Insert(items)
		}
		runtime.ReadMemStats(&after)
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	return best
}

// TestCommitPaysForWhatItTouches pins the copy-on-write contract: a commit
// after a snapshot clones the slices and counter pages its rows touch, so
// the same rows cost the same bytes whether the index holds 1 K distinct
// items or 64 K. (A commit that cloned the whole counter table would cost
// about 64× more on the larger alphabet.)
func TestCommitPaysForWhatItTouches(t *testing.T) {
	small, large := commitBytes(1<<10), commitBytes(1<<16)
	t.Logf("10-row commit after a snapshot: %d B at 1 K items, %d B at 64 K items", small, large)
	if lo, hi := min(small, large), max(small, large); float64(hi) > 1.5*float64(lo) {
		t.Fatalf("commit bytes depend on the alphabet: %d B at 1 K items vs %d B at 64 K", small, large)
	}
}
