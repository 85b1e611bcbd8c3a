package bitvec

import (
	"math/rand"
	"testing"
)

// fig6-shaped operands: n = 10000 transactions, slices with ~250 ones
// (2.5% density), accumulators either dense (~250 ones) or summarized
// residuals (~30 surviving words).
func benchSlice(b *testing.B, enc Encoding, ones int) *Slice {
	b.Helper()
	rng := rand.New(rand.NewSource(7))
	pos := make([]uint32, 0, ones)
	for _, p := range randPositions(rng, 10000, ones) {
		pos = append(pos, uint32(p))
	}
	s, err := SliceFromPositions(pos, 10000)
	if err != nil {
		b.Fatal(err)
	}
	return s.Recompress(10000, enc == EncSparse)
}

func randPositions(rng *rand.Rand, n, ones int) []int {
	seen := make(map[int]bool, ones)
	for len(seen) < ones {
		seen[rng.Intn(n)] = true
	}
	pos := make([]int, 0, ones)
	for p := range seen {
		pos = append(pos, p)
	}
	sortInts(pos)
	return pos
}

func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

func benchAcc(summarized bool, ones int) *Vector {
	rng := rand.New(rand.NewSource(11))
	v := New(10000)
	for _, p := range randPositions(rng, 10000, ones) {
		v.Set(p)
	}
	if summarized {
		v.Summarize()
	}
	return v
}

func benchKernel(b *testing.B, s *Slice, summarized bool, accOnes int) {
	b.Helper()
	acc := benchAcc(summarized, accOnes)
	saved := acc.Clone()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.AndCountInto(acc)
		acc.CopyFrom(saved)
	}
}

func BenchmarkAndDenseSliceDenseAcc(b *testing.B) {
	benchKernel(b, benchSlice(b, EncDense, 250), false, 250)
}
func BenchmarkAndDenseSliceSparseAcc(b *testing.B) {
	benchKernel(b, benchSlice(b, EncDense, 250), true, 30)
}
func BenchmarkAndSparseSliceDenseAcc(b *testing.B) {
	benchKernel(b, benchSlice(b, EncSparse, 250), false, 250)
}
func BenchmarkAndSparseSliceSparseAcc(b *testing.B) {
	benchKernel(b, benchSlice(b, EncSparse, 250), true, 30)
}
