package txdb

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"reflect"
	"runtime"
	"testing"
)

// hugeCountRecord is a record whose item count says 1<<40 and whose three
// remaining bytes could hold three items at most.
func hugeCountRecord() []byte {
	return append(binary.AppendUvarint(binary.AppendUvarint(nil, 7), 1<<40), 1, 2, 3)
}

// TestDecodeRecordRejectsHugeCount: a count the buffer cannot hold is an
// error, found before the item slice is sized by it.
func TestDecodeRecordRejectsHugeCount(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := decodeRecord(hugeCountRecord())
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("decoded a record whose count exceeds its length")
	}
	if grown := after.TotalAlloc - before.TotalAlloc; grown > 1<<12 {
		t.Errorf("rejecting the record allocated %d bytes", grown)
	}
}

// FuzzDecodeRecord checks that arbitrary bytes never panic the decoder and
// that every record the encoder produces round-trips.
func FuzzDecodeRecord(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x01, 0x02, 0x03, 0x01})
	f.Add(appendRecord(nil, NewTransaction(42, []Item{1, 5, 9})))
	f.Add(appendRecord(nil, Transaction{TID: 0}))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Add(hugeCountRecord())

	f.Fuzz(func(t *testing.T, data []byte) {
		// Must not panic; errors are fine.
		tx, err := decodeRecord(data)
		if err != nil {
			return
		}
		// A successfully decoded record with valid invariants must
		// re-encode to a prefix-compatible record.
		if tx.Validate() != nil {
			return
		}
		enc := appendRecord(nil, tx)
		dec, err := decodeRecord(enc)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if dec.TID != tx.TID || !reflect.DeepEqual(dec.Items, tx.Items) {
			t.Fatalf("round trip mismatch: %+v vs %+v", tx, dec)
		}
	})
}

// FuzzReadRecord drives the streaming reader with arbitrary bytes.
func FuzzReadRecord(f *testing.F) {
	f.Add(appendRecord(nil, NewTransaction(7, []Item{2, 3})))
	f.Add([]byte{0x80})
	f.Add([]byte{0x05, 0xff, 0xff, 0xff, 0xff, 0x7f})

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bufio.NewReader(bytes.NewReader(data))
		for i := 0; i < 100; i++ {
			if _, err := readRecord(r); err != nil {
				return
			}
		}
	})
}
