package sigfile

import (
	"bytes"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"bbsmine/internal/sighash"
)

// TestPositionsLockFreeUnderInsert runs the hashers' lock-free lookup from
// eight readers, over overlapping item sets that mix items seen before,
// items not seen yet (some beyond the memo table, forcing it to grow) and
// ids outside the table's range, while a writer Inserts rows through the
// same hasher. Every Positions and AppendSignatureBits answer must equal a
// fresh hasher's, and the index the writer built must equal one built
// serially. Run it under -race (make race) for the memory-model half.
func TestPositionsLockFreeUnderInsert(t *testing.T) {
	hashers := []struct {
		name string
		new  func() sighash.Hasher
	}{
		{"MD5", func() sighash.Hasher { return sighash.NewMD5(1600, 4) }},
		{"FNV", func() sighash.Hasher { return sighash.NewFNV(1600, 4) }},
	}
	for _, hc := range hashers {
		t.Run(hc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(23))
			var items []int32
			for i := int32(0); i < 400; i++ {
				items = append(items, i)
			}
			items = append(items, 700, 5000, 40000, 65535, 65536, 1<<20, -1, -77)
			rng.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })

			ref := hc.new()
			want := make(map[int32][]int, len(items))
			for _, it := range items {
				want[it] = slices.Clone(ref.Positions(it))
			}
			var rows [][]int32
			for r := 0; r < 300; r++ {
				row := make([]int32, 1+rng.Intn(8))
				for i := range row {
					row[i] = items[rng.Intn(len(items))]
				}
				slices.Sort(row)
				rows = append(rows, slices.Compact(row))
			}

			h := hc.new()
			for _, it := range items[:len(items)/3] {
				h.Positions(it) // seen before the readers start
			}
			idx := New(h, nil)
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, row := range rows {
					idx.Insert(row)
				}
			}()
			errs := make(chan string, 8)
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					var buf []int
					for r := 0; r < 2*len(items); r++ {
						it := items[(g*len(items)/8+r)%len(items)]
						if got := h.Positions(it); !slices.Equal(got, want[it]) {
							errs <- "Positions mismatch"
							return
						}
						set := []int32{it, items[(r*7+g)%len(items)]}
						buf = sighash.AppendSignatureBits(buf[:0], h, set)
						if !slices.Equal(buf, sighash.SignatureBits(ref, set)) {
							errs <- "AppendSignatureBits mismatch"
							return
						}
					}
				}(g)
			}
			wg.Wait()
			close(errs)
			for e := range errs {
				t.Fatal(e)
			}

			serial := New(hc.new(), nil)
			for _, row := range rows {
				serial.Insert(row)
			}
			if !bytes.Equal(encodeBBS(t, idx), encodeBBS(t, serial)) {
				t.Fatal("the index built beside the readers differs from one built serially")
			}
		})
	}
}
