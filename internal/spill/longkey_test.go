package spill

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
)

// TestAddRefusesLongKey: Add refuses a key of more than MaxKeyLen bytes
// with an ErrLongKey that names its length, and adds nothing: the buffer
// — folding or not, spilling or not — goes on to hold and drain what a
// buffer that never saw the key holds.
func TestAddRefusesLongKey(t *testing.T) {
	for _, fold := range []bool{false, true} {
		for _, budget := range []int64{0, 64} {
			t.Run(fmt.Sprintf("fold=%v budget=%d", fold, budget), func(t *testing.T) {
				cfg := Config{Parts: 2, Budget: budget, Size: testSize, Dir: t.TempDir()}
				if fold {
					cfg.Fold, cfg.TypedFold = sumTyped{}.Fold, sumTyped{}
				}
				b, ref := NewBuffer(cfg), NewBuffer(cfg)
				defer b.Close()
				defer ref.Close()
				for i := 0; i < 40; i++ {
					key := fmt.Sprint("k", i%7)
					for _, buf := range []*Buffer{b, ref} {
						if err := buf.Add(i%2, key, int64(i)); err != nil {
							t.Fatal(err)
						}
					}
					if i%10 == 0 {
						err := b.Add(i%2, "k"+strings.Repeat("x", MaxKeyLen), int64(i))
						if !errors.Is(err, ErrLongKey) || !strings.Contains(err.Error(), "9-byte key") {
							t.Fatalf("Add of a 9-byte key: %v, want an ErrLongKey naming 9 bytes", err)
						}
						if b.Stats() != ref.Stats() {
							t.Fatalf("the refused record changed the buffer: %+v, want %+v", b.Stats(), ref.Stats())
						}
					}
				}
				if budget > 0 && b.Stats().Runs == 0 {
					t.Fatal("nothing spilled")
				}
				gk, gv := drainAll(t, b, 2)
				wk, wv := drainAll(t, ref, 2)
				if !reflect.DeepEqual(gk, wk) || !reflect.DeepEqual(gv, wv) {
					t.Fatalf("drained %v %v, want %v %v", gk, gv, wk, wv)
				}
			})
		}
	}
}

// TestSpilledLongKeyRefused: a spill frame whose key is longer than
// MaxKeyLen is a decode error — not a truncation to read further for, and
// not a panic — and the records before it decode.
func TestSpilledLongKeyRefused(t *testing.T) {
	var file []byte
	for _, key := range []string{"12345678", "123456789"} {
		var err error
		if file, err = AppendRecord(file, key, int64(1)); err != nil {
			t.Fatal(err)
		}
		file = binary.AppendUvarint(file, uint64(testSize(key, nil)))
	}
	f, err := os.CreateTemp(t.TempDir(), "run")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write(file); err != nil {
		t.Fatal(err)
	}
	keys, _, err := readSegs(f, segment{end: int64(len(file)), records: 2})
	if !errors.Is(err, ErrLongKey) || errors.Is(err, errTruncated) || !reflect.DeepEqual(keys, []string{"12345678"}) {
		t.Fatalf("decoded %q, err = %v; want the 8-byte key's record, then ErrLongKey", keys, err)
	}
}
