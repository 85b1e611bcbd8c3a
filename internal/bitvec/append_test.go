package bitvec

import (
	"maps"
	"math/rand"
	"testing"
)

// TestAppendSetDenseProperty drives the dense arm of AppendSet the way the
// BBS insert path does: rows arrive in ascending order, a row's k positions
// can land in the same slice more than once, streams start and cross the
// 63/64/65 word edges, and rows may skip ahead (a slice no item hashed to
// for a while grows by more than a bit). Midway the stream is snapshotted
// copy-on-write: the snapshot keeps the slices as they are and appends go to
// CloneFor copies. After every append the returned bool must say whether
// the bit was new, and at the end Ones and every bit of both the snapshot
// and the live slices must match a reference set.
func TestAppendSetDenseProperty(t *testing.T) {
	const nslices, k = 3, 4
	rng := rand.New(rand.NewSource(39))
	for trial := 0; trial < 300; trial++ {
		start := []int{0, 63, 64, 65}[trial%4]
		live := make([]*Slice, nslices)
		ref := make([]map[int]bool, nslices)
		for j := range live {
			live[j] = NewDenseSlice(start)
			ref[j] = map[int]bool{}
		}
		var snap []*Slice
		var snapRef []map[int]bool
		rows := 1 + rng.Intn(160)
		snapAt := rng.Intn(rows)
		row := max(0, start-2+rng.Intn(5))
		for r := 0; r < rows; r++ {
			if r == snapAt {
				snap, live = live, make([]*Slice, nslices)
				snapRef = make([]map[int]bool, nslices)
				for j := range live {
					live[j] = snap[j].CloneFor(row + 1)
					snapRef[j] = maps.Clone(ref[j])
				}
			}
			for h := 0; h < k; h++ {
				j := rng.Intn(nslices)
				if got, want := live[j].AppendSet(row), !ref[j][row]; got != want {
					t.Fatalf("trial %d: AppendSet(%d) on slice %d = %v, want %v", trial, row, j, got, want)
				}
				ref[j][row] = true
			}
			row += 1 + rng.Intn(2)
			if rng.Intn(20) == 0 {
				row += 64
			}
		}
		checkAgainst(t, trial, "live", live, ref)
		checkAgainst(t, trial, "snapshot", snap, snapRef)
	}
}

// checkAgainst asserts that each slice is dense, counts len(ref[j]) ones,
// and holds exactly ref[j]'s bits (reading zero past its length).
func checkAgainst(t *testing.T, trial int, what string, got []*Slice, ref []map[int]bool) {
	t.Helper()
	for j, s := range got {
		if s.Encoding() != EncDense {
			t.Fatalf("trial %d %s slice %d: encoding %v, want dense", trial, what, j, s.Encoding())
		}
		if s.Ones() != len(ref[j]) {
			t.Fatalf("trial %d %s slice %d: Ones %d, want %d", trial, what, j, s.Ones(), len(ref[j]))
		}
		if c := s.dense.Count(); c != s.Ones() {
			t.Fatalf("trial %d %s slice %d: %d bits set, Ones says %d", trial, what, j, c, s.Ones())
		}
		for i := 0; i < s.Len()+wordBits; i++ {
			if s.Get(i) != ref[j][i] {
				t.Fatalf("trial %d %s slice %d: bit %d = %v, want %v", trial, what, j, i, s.Get(i), ref[j][i])
			}
		}
	}
}
