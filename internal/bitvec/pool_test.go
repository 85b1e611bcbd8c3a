package bitvec

import (
	"sync"
	"testing"
)

func TestPoolGetPut(t *testing.T) {
	p := NewPool(130)
	if p.Len() != 130 {
		t.Fatalf("Len() = %d, want 130", p.Len())
	}
	v := p.Get()
	if v.Len() != 130 {
		t.Fatalf("Get().Len() = %d, want 130", v.Len())
	}
	v.SetAll()
	p.Put(v)
	// Contents of pooled vectors are unspecified; the caller must overwrite.
	w := p.Get()
	if w.Len() != 130 {
		t.Fatalf("recycled vector has length %d, want 130", w.Len())
	}
	p.Put(nil)     // dropped, no panic
	p.Put(New(64)) // wrong length: dropped
	got := p.Get()
	if got.Len() != 130 {
		t.Fatalf("pool handed out wrong-length vector (%d bits)", got.Len())
	}
	// w and got are out; the nil and wrong-length puts returned nothing.
	if n := p.Outstanding(); n != 2 {
		t.Fatalf("Outstanding() = %d with two vectors on loan", n)
	}
	p.Put(w)
	p.Put(got)
	if n := p.Outstanding(); n != 0 {
		t.Fatalf("Outstanding() = %d after everything came back", n)
	}
}

func TestPoolNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewPool(-1) did not panic")
		}
	}()
	NewPool(-1)
}

// TestPoolConcurrent hammers Get/Put from several goroutines; -race proves
// the pool safe to share across mining workers.
func TestPoolConcurrent(t *testing.T) {
	p := NewPool(512)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				v := p.Get()
				v.Reset()
				v.Set((g*200 + i) % 512)
				if v.Count() != 1 {
					t.Errorf("scratch vector not private: count %d", v.Count())
					return
				}
				p.Put(v)
			}
		}(g)
	}
	wg.Wait()
}
