package bitvec

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
)

// FuzzSetWords drives deserialization with arbitrary word/length pairs.
func FuzzSetWords(f *testing.F) {
	f.Add([]byte{}, 0)
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, 64)
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, 3)
	f.Fuzz(func(t *testing.T, raw []byte, n int) {
		words := make([]uint64, len(raw)/8)
		for i := range words {
			for b := 0; b < 8; b++ {
				words[i] |= uint64(raw[i*8+b]) << (8 * b)
			}
		}
		var v Vector
		if err := v.SetWords(words, n); err != nil {
			return
		}
		// Valid deserializations must satisfy the length/count invariants.
		if v.Len() != n {
			t.Fatalf("Len = %d, want %d", v.Len(), n)
		}
		if c := v.Count(); c > n {
			t.Fatalf("Count %d exceeds length %d (tail not trimmed)", c, n)
		}
		// Round trip through Words.
		var u Vector
		if err := u.SetWords(v.Words(), v.Len()); err != nil {
			t.Fatalf("round trip SetWords failed: %v", err)
		}
		if !u.Equal(&v) {
			t.Fatal("round trip not equal")
		}
	})
}

// FuzzGrowAppend interleaves growth operations from fuzzed scripts and
// checks the vector never loses or invents bits.
func FuzzGrowAppend(f *testing.F) {
	f.Add([]byte{1, 0, 1, 1, 0})
	f.Add([]byte{100, 2, 3})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 256 {
			script = script[:256]
		}
		var v Vector
		var ref []bool
		for _, op := range script {
			switch {
			case op < 128:
				bit := op%2 == 1
				v.Append(bit)
				ref = append(ref, bit)
			default:
				extra := int(op % 32)
				v.Grow(v.Len() + extra)
				for i := 0; i < extra; i++ {
					ref = append(ref, false)
				}
			}
		}
		if v.Len() != len(ref) {
			t.Fatalf("Len = %d, want %d", v.Len(), len(ref))
		}
		for i, want := range ref {
			if v.Get(i) != want {
				t.Fatalf("bit %d = %v, want %v", i, v.Get(i), want)
			}
		}
	})
}

// FuzzSparseSlice builds a sparse slice from a fuzzed script and length and
// checks every sparse operation against a dense Vector model. Script bytes
// below 0xF0 step the cursor forward and set it; 0xF0–0xFD set a run of
// 8–112 bits; 0xFE fills the cursor's chunk but the cursor (255 entries,
// a bitmap record) and 0xFF the whole chunk (256). Lengths that are not a
// multiple of 256 end in a short tail chunk; page sizes of 8–128 bytes
// split the records of the cold payload across windows.
func FuzzSparseSlice(f *testing.F) {
	f.Add([]byte{}, uint16(0), uint8(0))
	f.Add([]byte{3, 9, 200, 1}, uint16(700), uint8(1))
	f.Add([]byte{0xFF, 0xFE, 0xF4, 7}, uint16(900), uint8(4))
	f.Add([]byte{250, 0xFF, 0xFF, 40, 0xFE}, uint16(1300), uint8(15))
	f.Add([]byte{0, 0xF8, 0, 0xFD, 0xFD, 0xFD}, uint16(1023), uint8(2))
	f.Fuzz(func(t *testing.T, script []byte, nraw uint16, page uint8) {
		if len(script) > 512 {
			script = script[:512]
		}
		n := 1 + int(nraw)%4096
		ref := New(n)
		p := 0
		for _, b := range script {
			switch {
			case b >= 0xFE:
				chunk := p &^ chunkMask
				for i := chunk; i < min(chunk+chunkSize, n); i++ {
					if b == 0xFF || i != p {
						ref.Set(i)
					}
				}
				p = chunk + chunkSize
			case b >= 0xF0:
				for end := min(p+8*int(b-0xEF), n); p < end; p++ {
					ref.Set(p)
				}
			default:
				if p += int(b); p < n {
					ref.Set(p)
				}
			}
			if p >= n {
				break
			}
		}
		var pos []uint32
		ref.ForEachSet(func(i int) bool {
			pos = append(pos, uint32(i))
			return true
		})
		s, err := SliceFromPositions(pos, n)
		if err != nil {
			t.Fatal(err)
		}
		if s.Ones() != len(pos) || s.Bytes() > sparseBytes(len(pos), n) {
			t.Fatalf("ones %d bytes %d, want %d and at most %d", s.Ones(), s.Bytes(), len(pos), sparseBytes(len(pos), n))
		}
		r, err := SliceFromRecords(bytes.Clone(s.sp), n)
		if err != nil {
			t.Fatalf("SliceFromRecords rejects a built stream: %v", err)
		}
		if r.Ones() != s.Ones() || r.tail != s.tail || r.last != s.last {
			t.Fatalf("SliceFromRecords: ones/tail/last %d/%d/%d, want %d/%d/%d",
				r.Ones(), r.tail, r.last, s.Ones(), s.tail, s.last)
		}
		if got := s.Positions(); len(got) != len(pos) || (len(pos) > 0 && !reflect.DeepEqual(got, pos)) {
			t.Fatalf("Positions %v, want %v", got, pos)
		}
		for i := 0; i < n+8; i++ {
			if s.Get(i) != (i < n && ref.Get(i)) {
				t.Fatalf("Get(%d) = %v", i, s.Get(i))
			}
		}

		rng := rand.New(rand.NewSource(int64(nraw)<<8 | int64(page)))
		accN := n + rng.Intn(300)
		acc := randomVector(rng, accN, []float64{0.02, 0.5, 0.95}[rng.Intn(3)])
		want := acc.Clone()
		wantCnt := want.AndCountZX(ref)
		ands := map[string]func(*Vector) int{
			"dense":      s.AndCountInto,
			"summarized": func(v *Vector) int { v.Summarize(); return s.AndCountInto(v) },
		}
		pageSize := 8 * (1 + int(page)%16)
		payload := s.EncodeCold()
		off := 8 * rng.Intn(pageSize/8)
		src := newMemPages(payload, pageSize, off)
		cold := NewColdSlice(EncSparse, n, s.Ones(), src, off, len(payload))
		ands["cold"] = cold.AndCountInto
		for name, and := range ands {
			got := acc.Clone()
			if cnt := and(got); cnt != wantCnt || !got.Equal(want) {
				t.Fatalf("%s AND: count %d, want %d (bits equal: %v)", name, cnt, wantCnt, got.Equal(want))
			}
			checkSummary(t, got)
		}
		if !src.balanced() {
			t.Fatal("cold kernel leaked page pins")
		}

		or := randomVector(rng, accN, 0.1)
		wantOr := or.Clone()
		wantOr.OrZX(ref)
		if s.OrInto(or); !or.Equal(wantOr) {
			t.Fatal("OrInto diverges")
		}

		d := s.Recompress(n, false)
		if d.Encoding() != EncDense || !d.Materialize().Equal(ref) {
			t.Fatalf("Recompress to dense: %v, bits equal %v", d.Encoding(), d.Materialize().Equal(ref))
		}
		if back := d.Recompress(n, true); back.Encoding() == EncSparse && !bytes.Equal(back.sp, s.sp) {
			t.Fatal("Recompress back to sparse builds a different stream")
		}

		// Appends continue the stream — on the slice, its clone and its
		// thawed cold copy alike — until the payload reaches the dense size
		// and the slice promotes.
		from := n - 1 - rng.Intn(min(n, 4))
		if len(pos) > 0 {
			from = max(from, int(pos[len(pos)-1])) // appends never go back
		}
		for name, a := range map[string]*Slice{"slice": s, "clone": s.CloneFor(n + 1), "thawed": cold.Thaw()} {
			model := ref.Clone()
			for i := from; a.Encoding() == EncSparse; i++ {
				model.Grow(i + 1)
				if a.AppendSet(i) == model.Get(i) {
					t.Fatalf("%s: AppendSet(%d) newly-set disagrees with the model", name, i)
				}
				model.Set(i)
			}
			m := a.Materialize()
			if a.Ones() != model.Count() || !m.Equal(model) {
				t.Fatalf("%s: appends diverge from the model after promotion", name)
			}
		}
	})
}

// FuzzDenseSliceSnapshots scripts appends to a dense slice with header
// copies taken at fuzzed points, the way a served index snapshots its
// slices between write batches. Script bytes:
//
//	0x00–0x7F  advance the cursor by b%70 (0 keeps it) and AppendSet it:
//	           steps cross 64-bit word edges and skip whole words;
//	0x80–0xBF  AppendSet 5·(b-0x80) bits below the last one, inside the
//	           full words every copy shares;
//	0xC0–0xDF  retain a CloneFor copy and go on appending to the source;
//	0xE0–0xEF  retain the source and go on appending to a CloneFor copy,
//	           as sigfile's copy-on-write does;
//	0xF0–0xFF  append to the newest retained slice at its own next bit, so
//	           two headers over one word array both append.
//
// At the end every retained slice and the live one must hold exactly its
// model's bits, and AND into a dense accumulator — plain and summarized —
// as the padded model does.
func FuzzDenseSliceSnapshots(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{1, 0xC0, 63, 0xE0, 1, 0x85, 69, 0xF0, 0xF0, 2}, uint8(65))
	f.Add([]byte{64, 0xE0, 0, 0xE1, 0x81, 0xC1, 69, 69, 0xF5, 0x80}, uint8(63))
	f.Add([]byte{0xC0, 0xF0, 0xE0, 0xF0, 3, 0xC0, 0x8F, 0xF0, 0xF0}, uint8(127))
	f.Fuzz(func(t *testing.T, script []byte, start uint8) {
		if len(script) > 512 {
			script = script[:512]
		}
		type tracked struct {
			s     *Slice
			model *Vector
		}
		live := tracked{NewDenseSlice(int(start)), New(int(start))}
		var kept []tracked
		set := func(x *tracked, i int) {
			x.model.Grow(i + 1)
			if x.s.AppendSet(i) == x.model.Get(i) {
				t.Fatalf("AppendSet(%d) newly-set disagrees with the model", i)
			}
			x.model.Set(i)
		}
		next := func(x tracked) int { return max(0, x.s.Len()-1) }
		for _, b := range script {
			switch {
			case b < 0x80:
				set(&live, next(live)+int(b)%70)
			case b < 0xC0:
				if i := next(live) - 5*int(b-0x80); i >= 0 {
					set(&live, i)
				}
			case b < 0xE0:
				kept = append(kept, tracked{live.s.CloneFor(live.s.Len() + 1), live.model.Clone()})
			case b < 0xF0:
				kept = append(kept, tracked{live.s, live.model.Clone()})
				live.s = live.s.CloneFor(live.s.Len() + 1)
			case len(kept) > 0:
				x := &kept[len(kept)-1]
				set(x, next(*x)+1)
			}
		}
		rng := rand.New(rand.NewSource(int64(len(script))<<8 | int64(start)))
		for k, x := range append(kept, live) {
			n := x.model.Len()
			if x.s.Encoding() != EncDense || x.s.Len() != n || x.s.Ones() != x.model.Count() {
				t.Fatalf("slice %d: %v, len %d, ones %d; want dense, %d, %d",
					k, x.s.Encoding(), x.s.Len(), x.s.Ones(), n, x.model.Count())
			}
			if !x.s.Materialize().Equal(x.model) {
				t.Fatalf("slice %d: bits diverge from the model", k)
			}
			if got, want := x.s.AppendDense(nil), DenseSliceOf(x.model.Clone()).AppendDense(nil); !bytes.Equal(got, want) {
				t.Fatalf("slice %d: AppendDense diverges from the model's words", k)
			}
			accN := n + rng.Intn(200)
			for _, summarized := range []bool{false, true} {
				acc := randomVector(rng, accN, 0.6)
				want := acc.Clone()
				wantCnt := want.AndCount(padTo(x.model, accN))
				if summarized {
					acc.Summarize()
				}
				if cnt := x.s.AndCountInto(acc); cnt != wantCnt || !acc.Equal(want) {
					t.Fatalf("slice %d summarized=%v: AND count %d, want %d (bits equal: %v)",
						k, summarized, cnt, wantCnt, acc.Equal(want))
				}
			}
		}
	})
}
