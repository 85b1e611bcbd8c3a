package sigfile

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"testing"

	"bbsmine/internal/bitvec"
	"bbsmine/internal/iostat"
	"bbsmine/internal/pager"
	"bbsmine/internal/sighash"
)

// estimateAll returns the CountItemSet estimate and result-vector rendering
// for a fixed probe set of itemsets — a fingerprint of the index state.
func estimateAll(b *BBS, probes [][]int32) []string {
	out := make([]string, 0, 2*len(probes))
	for _, items := range probes {
		est, v := b.CountItemSet(items)
		padded := v.Clone()
		padded.Grow(b.Len())
		out = append(out, string(rune('0'+est%10)), padded.String())
	}
	return out
}

func probeSet(rng *rand.Rand, alphabet, count int) [][]int32 {
	probes := make([][]int32, count)
	for i := range probes {
		probes[i] = randomItems(rng, 4, alphabet)
	}
	return probes
}

// A snapshot must keep returning the estimates of its capture point no
// matter how the master mutates afterwards, and the master must behave
// exactly like an index that was never snapshotted.
func TestSnapshotIsolation(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	const alphabet = 200
	master := New(sighash.NewMD5(128, 3), nil)
	shadow := New(sighash.NewMD5(128, 3), nil) // never snapshotted
	var txs [][]int32
	insert := func(items []int32) {
		master.Insert(items)
		shadow.Insert(items)
		txs = append(txs, items)
	}
	for i := 0; i < 150; i++ {
		insert(randomItems(rng, 8, alphabet))
	}
	probes := probeSet(rng, alphabet, 25)

	snap := master.Snapshot()
	atCapture := estimateAll(snap, probes)

	for round := 0; round < 3; round++ {
		for i := 0; i < 40; i++ {
			insert(randomItems(rng, 8, alphabet))
		}
		del := rng.Intn(len(txs))
		if master.IsLive(del) {
			if err := master.Delete(del, txs[del]); err != nil {
				t.Fatal(err)
			}
			if err := shadow.Delete(del, txs[del]); err != nil {
				t.Fatal(err)
			}
		}
		if got := estimateAll(snap, probes); !equalStrings(got, atCapture) {
			t.Fatalf("round %d: snapshot estimates drifted after master mutations", round)
		}
	}
	mGot, sGot := estimateAll(master, probes), estimateAll(shadow, probes)
	if !equalStrings(mGot, sGot) {
		t.Fatal("snapshotted master diverged from a never-snapshotted index")
	}
	for it := int32(0); it < alphabet; it++ {
		if master.ExactCount(it) != shadow.ExactCount(it) {
			t.Fatalf("item %d: exact count %d vs shadow %d", it, master.ExactCount(it), shadow.ExactCount(it))
		}
	}
}

func equalStrings(a, b []string) bool {
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

// Writes after a snapshot must clone only what they touch: slices outside
// the inserted transaction's signature stay physically shared.
func TestSnapshotCopyOnWriteIsLazy(t *testing.T) {
	rng := rand.New(rand.NewSource(102))
	master := New(sighash.NewMD5(256, 3), nil)
	for i := 0; i < 50; i++ {
		master.Insert(randomItems(rng, 6, 100))
	}
	snap := master.Snapshot()

	items := []int32{3, 7}
	touched := map[int]bool{}
	for _, it := range items {
		for _, p := range master.Hasher().Positions(it) {
			touched[p] = true
		}
	}
	master.Insert(items)

	shared, cloned := 0, 0
	for p := range master.slices {
		if master.slices[p] == snap.slices[p] {
			shared++
			if touched[p] {
				t.Fatalf("slice %d touched by the insert but still shared", p)
			}
		} else {
			cloned++
			if !touched[p] {
				t.Fatalf("slice %d cloned although the insert never touched it", p)
			}
		}
	}
	if cloned == 0 || shared == 0 {
		t.Fatalf("degenerate copy-on-write: %d cloned, %d shared", cloned, shared)
	}
	if cloned > len(items)*master.Hasher().K() {
		t.Fatalf("cloned %d slices, more than the %d the signature can touch", cloned, len(items)*master.Hasher().K())
	}
}

// Concurrent query clones over one snapshot, racing a mutating master, must
// be clean under -race and return identical results.
func TestQueryCloneConcurrentWithWriter(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	master := New(sighash.NewMD5(128, 3), nil)
	for i := 0; i < 120; i++ {
		master.Insert(randomItems(rng, 8, 150))
	}
	probes := probeSet(rng, 150, 10)
	snap := master.Snapshot()
	want := estimateAll(snap.QueryClone(&iostat.Stats{}), probes)

	var wg sync.WaitGroup
	results := make([][]string, 8)
	for g := range results {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 20; iter++ {
				q := snap.QueryClone(&iostat.Stats{})
				results[g] = estimateAll(q, probes)
			}
		}(g)
	}
	// The master keeps writing while the queries run; its snapshot must not care.
	wg.Add(1)
	go func() {
		defer wg.Done()
		wrng := rand.New(rand.NewSource(104))
		for i := 0; i < 200; i++ {
			master.Insert(randomItems(wrng, 8, 150))
		}
	}()
	wg.Wait()
	for g, got := range results {
		if !equalStrings(got, want) {
			t.Fatalf("goroutine %d saw different snapshot results", g)
		}
	}
}

// A save/load round trip after lazy growth must reproduce the index: the
// persisted file pads short slices with the zero words they logically hold.
func TestSaveLoadAfterLazyGrowth(t *testing.T) {
	rng := rand.New(rand.NewSource(105))
	h := sighash.NewMD5(128, 3)
	master := New(h, nil)
	for i := 0; i < 60; i++ {
		master.Insert(randomItems(rng, 6, 120))
	}
	_ = master.Snapshot() // force copy-on-write mode
	// Sparse inserts leave most slices short.
	master.Insert([]int32{1})
	master.Insert([]int32{2, 3})

	path := t.TempDir() + "/lazy.bbs"
	if err := master.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path, h, nil)
	if err != nil {
		t.Fatal(err)
	}
	probes := probeSet(rng, 120, 20)
	if got, want := estimateAll(loaded, probes), estimateAll(master, probes); !equalStrings(got, want) {
		t.Fatal("estimates differ after save/load of a lazily-grown index")
	}
}

func TestEpochBump(t *testing.T) {
	b := New(sighash.NewMD5(64, 2), nil)
	if b.Epoch() != 0 {
		t.Fatalf("fresh index epoch = %d, want 0", b.Epoch())
	}
	if got := b.BumpEpoch(); got != 1 || b.Epoch() != 1 {
		t.Fatalf("after one bump: %d/%d, want 1/1", got, b.Epoch())
	}
	snap := b.Snapshot()
	b.BumpEpoch()
	if snap.Epoch() != 1 || b.Epoch() != 2 {
		t.Fatalf("snapshot pinned epoch %d (want 1), master %d (want 2)", snap.Epoch(), b.Epoch())
	}
}

// Deletions after a snapshot must clone the live mask, not mutate the shared one.
func TestSnapshotLiveMaskIsolation(t *testing.T) {
	rng := rand.New(rand.NewSource(106))
	master := New(sighash.NewMD5(64, 2), nil)
	var txs [][]int32
	for i := 0; i < 40; i++ {
		items := randomItems(rng, 5, 60)
		master.Insert(items)
		txs = append(txs, items)
	}
	if err := master.Delete(0, txs[0]); err != nil {
		t.Fatal(err)
	}
	snap := master.Snapshot()
	if err := master.Delete(1, txs[1]); err != nil {
		t.Fatal(err)
	}
	if !snap.IsLive(1) {
		t.Fatal("deleting on the master tombstoned the snapshot's row")
	}
	if snap.IsLive(0) {
		t.Fatal("snapshot lost the pre-snapshot deletion")
	}
	if master.IsLive(1) {
		t.Fatal("master delete did not stick")
	}
}

// TestInsertAfterSnapshotAllocatesIndependentOfRows pins what a served
// commit relies on: an Insert after a Snapshot copies the headers of the
// slices it touches, not their words, so the bytes it allocates do not grow
// with the rows already indexed. At the same m, the median Insert into an
// index of 64 K rows may allocate at most 1.25x what one into 4 K rows
// does.
func TestInsertAfterSnapshotAllocatesIndependentOfRows(t *testing.T) {
	items := []int32{1, 2, 3} // every row sets the same slices, so each is full length
	perInsert := func(rows int) uint64 {
		b := New(sighash.NewMD5(256, 3), nil)
		for i := 0; i < rows; i++ {
			b.Insert(items)
		}
		// 32 inserts cross no power-of-two word count at either size, so no
		// slice's append array doubles inside the sample.
		samples := make([]uint64, 32)
		var before, after runtime.MemStats
		for i := range samples {
			snap := b.Snapshot()
			runtime.ReadMemStats(&before)
			b.Insert(items)
			runtime.ReadMemStats(&after)
			runtime.KeepAlive(snap)
			samples[i] = after.TotalAlloc - before.TotalAlloc
		}
		slices.Sort(samples)
		return samples[len(samples)/2]
	}
	small, large := perInsert(4000), perInsert(64000)
	if small == 0 || float64(large) > 1.25*float64(small) {
		t.Fatalf("an Insert after a Snapshot allocates %d B at 4 K rows and %d B at 64 K rows; want within 1.25x", small, large)
	}
}

// TestSnapshotChainUnderWriter publishes a snapshot after every batch of
// 1–70 rows, so batches straddle 64-row word boundaries, and keeps them
// all. While the master goes on writing, concurrent readers (run it under
// -race) materialize every slice of every published snapshot and compare
// it with the copy taken when the snapshot was published. The master is
// compressed and tiered first: one slice starts sparse and empty and is
// promoted to dense by the writes, and half the dense slices start cold and
// are thawed by them.
func TestSnapshotChainUnderWriter(t *testing.T) {
	const m, alphabet = 128, 40
	rng := rand.New(rand.NewSource(107))
	master := New(sighash.NewMD5(m, 3), nil)
	for i := 0; i < 2000; i++ {
		master.Insert(randomItems(rng, 6, alphabet))
	}
	master.SetCompression(true)
	// An item off the seed alphabet that hashes to an empty, hence sparse,
	// slice: setting it in every row promotes that slice to dense.
	rare, promoted := int32(-1), -1
	for it := int32(alphabet); rare < 0; it++ {
		for _, p := range master.Hasher().Positions(it) {
			if master.slices[p].Ones() == 0 && master.slices[p].Encoding() == bitvec.EncSparse {
				rare, promoted = it, p
				break
			}
		}
	}
	pg := pager.New(1 << 20)
	if err := master.Tier(pg, filepath.Join(t.TempDir(), "slices.cold"), master.ResidentSliceBytes()/2, nil); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = master.Untier() }()

	type published struct {
		snap    *BBS
		capture []*bitvec.Vector
	}
	var (
		mu   sync.Mutex
		pubs []published
		done = make(chan struct{})
		wg   sync.WaitGroup
		bad  = make(chan string, 4)
	)
	check := func() {
		mu.Lock()
		list := pubs
		mu.Unlock()
		for i, pub := range list {
			for p, s := range pub.snap.slices {
				if !s.Materialize().Equal(pub.capture[p]) {
					select {
					case bad <- fmt.Sprintf("snapshot %d (%d rows): slice %d changed after it was published", i, pub.snap.Len(), p):
					default:
					}
					return
				}
			}
		}
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					check()
					return
				default:
					check()
				}
			}
		}()
	}

	for batch := 0; batch < 60; batch++ {
		for rows := 1 + rng.Intn(70); rows > 0; rows-- {
			master.Insert(append(randomItems(rng, 5, alphabet), rare))
		}
		snap := master.Snapshot()
		pub := published{snap: snap, capture: make([]*bitvec.Vector, m)}
		for p, s := range snap.slices {
			pub.capture[p] = s.Materialize()
		}
		mu.Lock()
		pubs = append(pubs, pub)
		mu.Unlock()
	}
	close(done)
	wg.Wait()
	select {
	case msg := <-bad:
		t.Fatal(msg)
	default:
	}

	first, last := pubs[0].snap, pubs[len(pubs)-1].snap
	if first.slices[promoted].Encoding() != bitvec.EncSparse || last.slices[promoted].Encoding() != bitvec.EncDense {
		t.Fatalf("slice %d: %v in the first snapshot and %v in the last, want sparse then dense",
			promoted, first.slices[promoted].Encoding(), last.slices[promoted].Encoding())
	}
	thawed := 0
	for p := range first.slices {
		if first.slices[p].IsCold() && !last.slices[p].IsCold() {
			thawed++
		}
	}
	if thawed == 0 {
		t.Fatal("no slice went from cold in the first snapshot to resident in the last")
	}
}
