package bitvec

import (
	"math/rand"
	"testing"
)

// clusteredVector returns an n-bit vector made of random runs of set bits,
// which cross word and chunk borders in every kernel.
func clusteredVector(rng *rand.Rand, n int, runs, maxLen int) *Vector {
	v := New(n)
	for r := 0; r < runs; r++ {
		start := rng.Intn(n)
		length := 1 + rng.Intn(maxLen)
		for i := start; i < start+length && i < n; i++ {
			v.Set(i)
		}
	}
	return v
}

// encodeAs forces ref into the given encoding, bypassing the size rule, so
// every kernel is exercised regardless of the data's natural encoding.
func encodeAs(t testing.TB, ref *Vector, enc Encoding) *Slice {
	t.Helper()
	if enc == EncDense {
		return DenseSliceOf(ref.Clone())
	}
	pos := make([]uint32, 0, ref.Count())
	ref.ForEachSet(func(i int) bool {
		pos = append(pos, uint32(i))
		return true
	})
	sp, err := SliceFromPositions(pos, ref.Len())
	if err != nil {
		t.Fatalf("SliceFromPositions: %v", err)
	}
	return sp
}

var allEncodings = []Encoding{EncDense, EncSparse}

// TestAndCountIntoMatchesDense is the core kernel-parity property: for every
// encoding, against both a dense and a summarized accumulator, with the
// slice both equal-length and shorter (zero-extended), AndCountInto must
// leave the accumulator byte-identical to AndCountZX against the
// materialized slice and return the same count.
func TestAndCountIntoMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	shapes := []func() *Vector{
		func() *Vector { return randomVector(rng, 1700, 0.005) },
		func() *Vector { return randomVector(rng, 1700, 0.05) },
		func() *Vector { return randomVector(rng, 1700, 0.6) },
		func() *Vector { return clusteredVector(rng, 1700, 6, 120) },
		func() *Vector { return New(1700) },                     // empty
		func() *Vector { v := New(1700); v.SetAll(); return v }, // full
	}
	for trial := 0; trial < 40; trial++ {
		ref := shapes[trial%len(shapes)]()
		for _, enc := range allEncodings {
			s := encodeAs(t, ref, enc)
			for _, dstLen := range []int{ref.Len(), ref.Len() + 257} {
				for _, summarized := range []bool{false, true} {
					dst := randomVector(rng, dstLen, 0.3)
					want := dst.Clone()
					if summarized {
						dst.Summarize()
						want.Summarize()
					}
					wantC := want.AndCountZX(s.Materialize())
					gotC := s.AndCountInto(dst)
					if gotC != wantC {
						t.Fatalf("trial %d enc %v dstLen %d summarized %v: count %d, want %d",
							trial, enc, dstLen, summarized, gotC, wantC)
					}
					if !dst.Equal(want) {
						t.Fatalf("trial %d enc %v dstLen %d summarized %v: result bits differ",
							trial, enc, dstLen, summarized)
					}
					if summarized {
						// The maintained summary must match a rebuild.
						nz := 0
						for _, w := range dst.words {
							if w != 0 {
								nz++
							}
						}
						if dst.nz != nz {
							t.Fatalf("trial %d enc %v: summary nz %d, want %d", trial, enc, dst.nz, nz)
						}
					}
				}
			}
		}
	}
}

// TestAndCountIntoChained ANDs several compressed slices into one
// accumulator, mimicking CountItemSet's rarest-first chain with the
// mid-chain summary promotion the miner performs.
func TestAndCountIntoChained(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	n := 3000
	for trial := 0; trial < 20; trial++ {
		slices := []*Slice{
			encodeAs(t, randomVector(rng, n, 0.01), EncSparse),
			encodeAs(t, clusteredVector(rng, n, 4, 200), EncSparse),
			encodeAs(t, randomVector(rng, n, 0.5), EncDense),
			encodeAs(t, randomVector(rng, n, 0.02), EncSparse),
		}
		dst := New(n)
		dst.SetAll()
		want := dst.Clone()
		for i, s := range slices {
			gotC := s.AndCountInto(dst)
			wantC := want.AndCountZX(s.Materialize())
			if gotC != wantC {
				t.Fatalf("trial %d step %d: count %d, want %d", trial, i, gotC, wantC)
			}
			if i == 1 {
				dst.MaybeSummarize(gotC)
				want.MaybeSummarize(wantC)
			}
		}
		if !dst.Equal(want) {
			t.Fatalf("trial %d: chained result differs", trial)
		}
	}
}

// TestAppendSetMatchesVector drives AppendSet with the insert pattern the
// BBS produces (non-decreasing positions, duplicates within a transaction)
// and checks contents, popcount and the promotion invariant.
func TestAppendSetMatchesVector(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, start := range allEncodings {
		s := NewSparseSlice()
		if start == EncDense {
			s = NewDenseSlice(0)
		}
		ref := New(0)
		pos := 0
		for txn := 0; txn < 2000; txn++ {
			hits := 1 + rng.Intn(2)
			for h := 0; h < hits; h++ {
				if rng.Float64() < 0.4 {
					newly := s.AppendSet(pos)
					ref.Grow(pos + 1)
					wasSet := ref.Get(pos)
					if newly == wasSet {
						t.Fatalf("start %v pos %d: newly=%v with bit already %v", start, pos, newly, wasSet)
					}
					ref.Set(pos)
				}
			}
			pos++
		}
		if s.Ones() != ref.Count() {
			t.Fatalf("start %v: ones %d, want %d", start, s.Ones(), ref.Count())
		}
		got := s.Materialize()
		got.Grow(ref.Len())
		if !got.Equal(ref) {
			t.Fatalf("start %v: contents differ after appends", start)
		}
		// The hysteresis upper edge: payload never reaches the dense size.
		if s.Encoding() != EncDense && s.Bytes() >= 8*int64(wordsFor(s.Len())) {
			t.Fatalf("start %v: payload %d bytes not promoted at dense size %d",
				start, s.Bytes(), 8*wordsFor(s.Len()))
		}
	}
}

// TestAppendSetPromotes pins the promotion edge: a dense append stream on a
// sparse slice must flip it to dense, preserving contents.
func TestAppendSetPromotes(t *testing.T) {
	s := NewSparseSlice()
	for i := 0; i < 1024; i++ {
		s.AppendSet(i)
	}
	if s.Encoding() != EncDense {
		t.Fatalf("encoding %v after dense appends, want dense", s.Encoding())
	}
	if s.Ones() != 1024 || s.Len() != 1024 {
		t.Fatalf("ones %d len %d, want 1024/1024", s.Ones(), s.Len())
	}
	for i := 0; i < 1024; i++ {
		if !s.Get(i) {
			t.Fatalf("bit %d lost across promotion", i)
		}
	}
}

// TestCloneForAppendsInPlace pins what copy-on-write relies on: a CloneFor
// copy is deep (appending to it leaves the original alone), and appending
// the bit it was sized for allocates nothing — including a dense slice
// whose next bit starts a new word, where an exact-size copy would be
// reallocated at twice its size.
func TestCloneForAppendsInPlace(t *testing.T) {
	const n = 640 // a whole number of words and of 256-bit chunks
	rng := rand.New(rand.NewSource(9))
	ref := clusteredVector(rng, n, 4, 6)
	for _, enc := range allEncodings {
		s := encodeAs(t, ref, enc)
		ones := s.Ones()
		c := s.CloneFor(n + 1)
		if c.Encoding() != enc {
			t.Fatalf("%v: CloneFor changed the encoding to %v", enc, c.Encoding())
		}
		if !c.AppendSet(n) || c.Ones() != ones+1 || !c.Get(n) {
			t.Fatalf("%v: append to the copy did not land", enc)
		}
		if s.Ones() != ones || s.Len() != n || s.Get(n) {
			t.Fatalf("%v: append to the copy reached the original", enc)
		}
		clone := testing.AllocsPerRun(10, func() { s.CloneFor(n + 1) })
		cloneAppend := testing.AllocsPerRun(10, func() { s.CloneFor(n + 1).AppendSet(n) })
		if cloneAppend != clone {
			t.Fatalf("%v: CloneFor takes %v allocations, plus its append %v", enc, clone, cloneAppend)
		}
	}
}

// TestMaybeCompressDemotes pins the lower hysteresis edge: a dense slice
// whose length outgrows its density demotes to a compressed form, and the
// 2x band keeps a demote/promote cycle from thrashing.
func TestMaybeCompressDemotes(t *testing.T) {
	s := NewDenseSlice(0)
	// 64 ones packed at the front; while the slice is short the window
	// test must keep it dense (payload comparable to the dense layout).
	for i := 0; i < 64; i++ {
		s.AppendSet(i)
		if r := s.MaybeCompress(); r != s {
			t.Fatalf("demoted at len %d, inside the band", s.Len())
		}
	}
	// One far-away bit stretches the length: 65 ones over 8192 bits is
	// deep inside the selection window, so the demote must fire.
	s.AppendSet(8191)
	r := s.MaybeCompress()
	if r == s || r.Encoding() == EncDense {
		t.Fatalf("encoding %v after length outgrew density, want compressed", r.Encoding())
	}
	if r.Ones() != 65 || r.Len() != 8192 {
		t.Fatalf("ones %d len %d across demotion, want 65/8192", r.Ones(), r.Len())
	}
	for i := 0; i < 64; i++ {
		if !r.Get(i) {
			t.Fatalf("bit %d lost across demotion", i)
		}
	}
	if !r.Get(8191) {
		t.Fatal("bit 8191 lost across demotion")
	}
	// Band check: the freshly demoted slice is nowhere near the promote
	// edge, so continued appends stick with the compressed encoding.
	r.AppendSet(8192)
	if r.Encoding() == EncDense {
		t.Fatal("demoted slice promoted straight back; hysteresis band broken")
	}
	if rr := r.MaybeCompress(); rr != r {
		t.Fatal("MaybeCompress re-encoded an already compressed slice")
	}
}

// TestOrIntoMatchesOrZX checks the Fold accumulation step per encoding.
func TestOrIntoMatchesOrZX(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		ref := clusteredVector(rng, 900, 5, 80)
		for _, enc := range allEncodings {
			s := encodeAs(t, ref, enc)
			dst := randomVector(rng, 1100, 0.2)
			want := dst.Clone()
			s.OrInto(dst)
			want.OrZX(s.Materialize())
			if !dst.Equal(want) {
				t.Fatalf("trial %d enc %v: OrInto differs from OrZX", trial, enc)
			}
		}
	}
}

// TestOrAtCopyRangeRoundTrip checks the block-order primitives at aligned
// and unaligned offsets: OrAt lays a block in bit for bit and leaves its
// neighbours alone, CopyRange reads the same block back out.
func TestOrAtCopyRangeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, at := range []int{0, 64, 65, 1, 63, 200} {
		for _, n := range []int{0, 1, 63, 64, 65, 130, 500} {
			src := randomVector(rng, n, 0.4)
			dst := randomVector(rng, at+n+70, 0.3)
			dst.Summarize()
			before := dst.Clone()
			dst.OrAt(src, at)
			if dst.Summarized() {
				t.Fatalf("at %d n %d: OrAt kept a stale summary", at, n)
			}
			for i := 0; i < dst.Len(); i++ {
				want := before.Get(i) || (i >= at && i < at+n && src.Get(i-at))
				if dst.Get(i) != want {
					t.Fatalf("at %d n %d: bit %d = %v, want %v", at, n, i, dst.Get(i), want)
				}
			}
			zero := New(at + n + 70)
			zero.OrAt(src, at)
			got := randomVector(rng, n, 0.5)
			got.CopyRange(zero, at)
			if !got.Equal(src) {
				t.Fatalf("at %d n %d: CopyRange did not read back what OrAt laid in", at, n)
			}
		}
	}
}

// TestRecompressSelection pins the encoding-selection rule and the 2x
// build-time margin.
func TestRecompressSelection(t *testing.T) {
	n := 4096 // 64 words, comfortably above compressMinWords
	t.Run("rare bits pick sparse", func(t *testing.T) {
		v := New(n)
		for i := 0; i < 20; i++ {
			v.Set(i * 199)
		}
		s := DenseSliceOf(v).Recompress(n, true)
		if s.Encoding() != EncSparse {
			t.Fatalf("encoding %v, want sparse", s.Encoding())
		}
	})
	t.Run("clustered bits pick the smaller of sparse and dense", func(t *testing.T) {
		for _, c := range []struct {
			start, end int
			want       Encoding
		}{
			{1000, 3000, EncDense},  // 2000 ones: ~2 KB of positions against 512 B of words
			{1000, 1150, EncSparse}, // 150 ones: 166 B of records, under half the words
		} {
			v := New(n)
			for i := c.start; i < c.end; i++ {
				v.Set(i)
			}
			if s := DenseSliceOf(v).Recompress(n, true); s.Encoding() != c.want {
				t.Fatalf("run [%d,%d): encoding %v, want %v", c.start, c.end, s.Encoding(), c.want)
			}
		}
	})
	t.Run("dense bits stay dense", func(t *testing.T) {
		rng := rand.New(rand.NewSource(3))
		s := DenseSliceOf(randomVector(rng, n, 0.5)).Recompress(n, true)
		if s.Encoding() != EncDense {
			t.Fatalf("encoding %v, want dense", s.Encoding())
		}
	})
	t.Run("inside the hysteresis band stays put", func(t *testing.T) {
		// One isolated bit every 12 positions: 342 ones and 16 count
		// bytes make a 358-byte sparse payload, between dense/2 (256) and
		// dense (512) — Recompress(true) keeps dense, and a sparse slice
		// of that shape would not promote on its next append either.
		v := New(n)
		for i := 0; i < n; i += 12 {
			v.Set(i)
		}
		if s := DenseSliceOf(v).Recompress(n, true); s.Encoding() != EncDense {
			t.Fatalf("dense slice left the band: %v", s.Encoding())
		}
		pos := make([]uint32, 0, n/12+1)
		for i := 0; i < n; i += 12 {
			pos = append(pos, uint32(i))
		}
		sp, err := SliceFromPositions(pos, n)
		if err != nil {
			t.Fatal(err)
		}
		if sp.Bytes() >= 8*int64(wordsFor(n)) {
			t.Skip("shape no longer inside the band; adjust the test")
		}
	})
	t.Run("tiny slices stay dense", func(t *testing.T) {
		v := New(64 * (compressMinWords - 1))
		v.Set(3)
		if s := DenseSliceOf(v).Recompress(v.Len(), true); s.Encoding() != EncDense {
			t.Fatalf("tiny slice compressed: %v", s.Encoding())
		}
	})
	t.Run("compress false always dense", func(t *testing.T) {
		s, err := SliceFromPositions([]uint32{1, 5}, n)
		if err != nil {
			t.Fatal(err)
		}
		d := s.Recompress(n, false)
		if d.Encoding() != EncDense || d.Ones() != 2 || !d.Get(1) || !d.Get(5) {
			t.Fatalf("decompress wrong: enc %v ones %d", d.Encoding(), d.Ones())
		}
	})
}

// TestRecompressRoundTrips materializes identically across every encoding
// transition.
func TestRecompressRoundTrips(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	ref := clusteredVector(rng, 2000, 8, 90)
	for _, from := range allEncodings {
		s := encodeAs(t, ref, from)
		for _, compress := range []bool{true, false} {
			r := s.Recompress(s.Len(), compress)
			if r.Ones() != ref.Count() {
				t.Fatalf("from %v compress %v: ones %d, want %d", from, compress, r.Ones(), ref.Count())
			}
			if !r.Materialize().Equal(ref) {
				t.Fatalf("from %v compress %v: contents differ", from, compress)
			}
		}
	}
}

// TestSliceDecodeValidation rejects malformed persisted payloads: position
// lists and record streams alike.
func TestSliceDecodeValidation(t *testing.T) {
	if _, err := SliceFromPositions([]uint32{3, 3}, 10); err == nil {
		t.Error("duplicate positions accepted")
	}
	if _, err := SliceFromPositions([]uint32{5, 4}, 10); err == nil {
		t.Error("descending positions accepted")
	}
	if _, err := SliceFromPositions([]uint32{10}, 10); err == nil {
		t.Error("position beyond length accepted")
	}
	// A position-free slice over the most rows a header may claim builds
	// no stream: its size follows the positions read, not the length.
	if s, err := SliceFromPositions(nil, 1<<32); err != nil || cap(s.sp) != 0 {
		t.Errorf("empty slice over 2^32 rows: err %v, stream capacity %d", err, cap(s.sp))
	}

	bitmap := func(ones int) []uint8 {
		rec := make([]uint8, 1+bitmapBytes)
		rec[0] = bitmapTag
		for i := 0; i < ones; i++ {
			rec[1+i>>3] |= 1 << uint(i&7)
		}
		return rec
	}
	for name, sp := range map[string][]uint8{
		"record cut short":     {3, 1, 2},
		"descending entries":   {2, 5, 3},
		"duplicate entries":    {2, 5, 5},
		"bitmap cut short":     bitmap(255)[:20],
		"sparse bitmap":        bitmap(254),
		"trailing empty chunk": {1, 5, 0},
		"position beyond n":    {0, 1, 3},
	} {
		if _, err := SliceFromRecords(sp, 256); err == nil {
			t.Errorf("%s: stream accepted", name)
		}
	}
	s, err := SliceFromRecords(append([]uint8{0, 1, 3}, bitmap(256)...), 3*chunkSize)
	if err != nil {
		t.Fatal(err)
	}
	if s.Ones() != 257 || s.tail != 3 || s.last != 3*chunkSize-1 {
		t.Errorf("ones %d tail %d last %d, want 257, 3 and %d", s.Ones(), s.tail, s.last, 3*chunkSize-1)
	}
}

// TestSliceGet cross-checks the per-encoding point reads, including the
// zero-extended region beyond Len.
func TestSliceGet(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	ref := clusteredVector(rng, 700, 5, 40)
	for _, enc := range allEncodings {
		s := encodeAs(t, ref, enc)
		for i := 0; i < ref.Len(); i++ {
			if s.Get(i) != ref.Get(i) {
				t.Fatalf("enc %v: Get(%d) = %v, want %v", enc, i, s.Get(i), ref.Get(i))
			}
		}
		if s.Get(ref.Len() + 100) {
			t.Fatalf("enc %v: bit beyond Len reads set", enc)
		}
	}
}

// BenchmarkAndCountIntoSparse measures the sparse-slice kernel against the
// materialize-then-AND baseline it replaces.
func BenchmarkAndCountIntoSparse(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	n := 1 << 16
	s := encodeAs(b, randomVector(rng, n, 0.001), EncSparse)
	dst := randomVector(rng, n, 0.3)
	scratch := dst.Clone()
	b.Run("direct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			scratch.CopyFrom(dst)
			s.AndCountInto(scratch)
		}
	})
	b.Run("materialized", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			scratch.CopyFrom(dst)
			scratch.AndCountZX(s.Materialize())
		}
	})
}

// TestSparseBytesIsTheStreamSize pins sparseBytes, the one sparse-size
// formula the encoding choice reads, to the payload a fresh encoding
// allocates: equal when the last chunk holds a set bit and no chunk is a
// bitmap record, smaller when some chunk is.
func TestSparseBytesIsTheStreamSize(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 50; trial++ {
		n := 2048 + rng.Intn(6000)
		v := randomVector(rng, n, 0.02)
		v.Set(n - 1)
		for _, s := range []*Slice{DenseSliceOf(v.Clone()).Recompress(n, true), encodeAs(t, v, EncSparse)} {
			if s.Encoding() != EncSparse {
				t.Fatalf("n=%d: %d ones picked %v", n, v.Count(), s.Encoding())
			}
			if got, want := s.Bytes(), sparseBytes(s.Ones(), n); got != want {
				t.Fatalf("n=%d ones=%d: Bytes %d, sparseBytes %d", n, s.Ones(), got, want)
			}
		}
	}
	full := New(4096)
	for i := 512; i < 768; i++ {
		full.Set(i) // chunk 2 is a bitmap record
	}
	full.Set(4095)
	if s := encodeAs(t, full, EncSparse); s.Bytes() != 16+1+bitmapBytes || s.Bytes() >= sparseBytes(s.Ones(), 4096) {
		t.Fatalf("a full chunk takes %d bytes, want %d", s.Bytes(), 16+1+bitmapBytes)
	}
}

// TestHysteresisEdges checks that chooseEncoding, MaybeCompress and
// maybePromote agree on the band's edges at n = 4096 (512 dense bytes,
// 16 chunks): a slice is chosen sparse up to 256 payload bytes (240 ones),
// and an appending sparse slice promotes at 512 (496 ones), not at 511.
func TestHysteresisEdges(t *testing.T) {
	const n = 4096
	spread := func(ones int) *Vector { // every chunk holds a set bit
		v := New(n)
		for i := 0; i < ones; i++ {
			v.Set(i * n / ones)
		}
		return v
	}
	for ones, want := range map[int]Encoding{240: EncSparse, 241: EncDense} {
		d := DenseSliceOf(spread(ones))
		if got := d.chooseEncoding(n, true); got != want {
			t.Errorf("%d ones: chooseEncoding %v, want %v", ones, got, want)
		}
		if got := d.MaybeCompress().Encoding(); got != want {
			t.Errorf("%d ones: MaybeCompress gives %v, want %v", ones, got, want)
		}
	}
	edge := DenseSliceOf(spread(240)).MaybeCompress()
	if edge.Bytes() != n/8/compressWinDiv {
		t.Fatalf("the lower edge's payload is %d bytes, want %d", edge.Bytes(), n/8/compressWinDiv)
	}
	s := encodeAs(t, spread(495), EncSparse)
	if s.Bytes() != n/8-1 {
		t.Fatalf("495 ones: %d bytes, want %d", s.Bytes(), n/8-1)
	}
	if s.AppendSet(n - 1); s.Encoding() != EncDense {
		t.Fatalf("496 ones: %v with %d bytes at the dense size, want dense", s.Encoding(), s.Bytes())
	}
}
