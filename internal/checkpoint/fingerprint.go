package checkpoint

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"

	"fsjoin/internal/spill"
)

// Fingerprint accumulates a stage identity — pipeline name, caller
// configuration salt, stage position, job name, and the stage's full
// input content — into one SHA-256 digest. Every field is length-framed
// before hashing so distinct field sequences can never collide by
// concatenation. Input values are hashed in their spill encoding; a value
// with no codec poisons the fingerprint, and Err reports spill.ErrNoCodec.
type Fingerprint struct {
	h       hash.Hash
	scratch []byte
	err     error
}

// NewFingerprint starts an empty fingerprint.
func NewFingerprint() *Fingerprint {
	return &Fingerprint{h: sha256.New()}
}

// Str folds one length-framed string field into the fingerprint.
func (f *Fingerprint) Str(s string) {
	f.scratch = binary.AppendUvarint(f.scratch[:0], uint64(len(s)))
	f.h.Write(f.scratch)
	f.h.Write([]byte(s))
}

// I64 folds one integer field into the fingerprint.
func (f *Fingerprint) I64(n int64) {
	f.scratch = binary.AppendVarint(f.scratch[:0], n)
	f.h.Write(f.scratch)
}

// KV folds one input pair into the fingerprint: the key as a string field
// and the value in its length-framed spill encoding.
func (f *Fingerprint) KV(key string, v any) {
	if f.err != nil {
		return
	}
	f.Str(key)
	val, err := spill.AppendEncoded(f.scratch[:0], v)
	if err != nil {
		f.err = fmt.Errorf("checkpoint: stage input: %w", err)
		return
	}
	f.scratch = val
	var lead [binary.MaxVarintLen64]byte
	f.h.Write(lead[:binary.PutUvarint(lead[:], uint64(len(val)))])
	f.h.Write(val)
}

// Err returns the error of the first input value that could not be
// encoded, nil while there is none.
func (f *Fingerprint) Err() error { return f.err }

// Hex returns the accumulated digest ("" once Err is set).
func (f *Fingerprint) Hex() string {
	if f.err != nil {
		return ""
	}
	return hex.EncodeToString(f.h.Sum(nil))
}
