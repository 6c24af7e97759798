// Bitmap signature filter (Sandes, Teodoro, Melo — "Bitmap Filter:
// Speeding up Exact Set Similarity Joins with Bitwise Operations", arXiv
// 1711.07295): every record/segment gets a fixed-width hashed token bitmap
// built once, and candidate pairs are rejected with one XOR + popcount
// before any postings walk, token merge or verification.
//
// The bound: with presence bitmaps (bit h(t) set for every token t), a bit
// set in sig(A) but not sig(B) proves at least one token of A∖B, and
// distinct bits prove distinct tokens. Hence
//
//	|AΔB| ≥ popcount(sig(A) XOR sig(B))
//	|A∩B| ≤ ⌊(|A| + |B| − popcount(XOR)) / 2⌋
//
// regardless of hash collisions — collisions only loosen the bound, never
// break it, so the filter is exact: it rejects only pairs that true
// verification would reject too. The threshold algebra is shared with the
// paper's filters: the upper bound feeds the same SegI/SegD inequalities
// (Jaccard, Dice, Cosine via similarity.Func.MinOverlap*), turning a
// similarity threshold into a minimum-popcount reject test.
package filters

import (
	"fmt"
	"math/bits"
	"os"
)

// BitmapMode selects how the bitmap signature filter is applied.
type BitmapMode uint8

const (
	// BitmapAuto enables the filter with the width chosen from length
	// statistics; the FSJOIN_BITMAP environment variable may override it
	// (CI's env matrix forces it off; the default run has it on).
	BitmapAuto BitmapMode = iota
	// BitmapOn forces the filter on, ignoring the environment.
	BitmapOn
	// BitmapOff disables the filter, ignoring the environment.
	BitmapOff
)

// String implements fmt.Stringer.
func (m BitmapMode) String() string {
	switch m {
	case BitmapAuto:
		return "auto"
	case BitmapOn:
		return "on"
	case BitmapOff:
		return "off"
	default:
		return fmt.Sprintf("BitmapMode(%d)", int(m))
	}
}

// ParseBitmapMode parses "auto", "on" or "off".
func ParseBitmapMode(s string) (BitmapMode, error) {
	switch s {
	case "auto", "":
		return BitmapAuto, nil
	case "on":
		return BitmapOn, nil
	case "off":
		return BitmapOff, nil
	default:
		return 0, fmt.Errorf("filters: bitmap mode %q (want auto, on or off)", s)
	}
}

// BitmapConfig configures the signature filter for one join.
type BitmapConfig struct {
	// Mode toggles the filter (default BitmapAuto: enabled).
	Mode BitmapMode
	// Width forces the signature width in bits (64, 128 or 256); 0 picks
	// the width per fragment/group from its mean set length.
	Width int
}

// Counter names every bitmap-filter call site increments, surfaced through
// fsjoin.Stats and the benchmark's filters.* metrics (bench/README.md).
const (
	// CtrBitmapBuilt counts signatures built (one per segment or record
	// occurrence in a reduce group).
	CtrBitmapBuilt = "bitmap.built"
	// CtrBitmapRejected counts candidate pairs the popcount bound rejected
	// before any exact intersection or verification. A candidate pair is a
	// joinable one — ridpairs and all three fragjoin kernels screen a pair
	// only once origin and horizontal role allow it (the inverted-list
	// kernels at its first shared posting).
	CtrBitmapRejected = "bitmap.rejected"
	// CtrBitmapPassed counts candidate pairs that survived the bound and
	// went on to exact work; in the inverted-list fragjoin kernels that is
	// fragjoin.comparisons.
	CtrBitmapPassed = "bitmap.passed"
	// CtrVerifyCandidates counts candidate pairs reaching exact
	// verification, so the bitmap filter's verified-candidate delta is a
	// number, and so are the verification volumes of all five algorithms:
	// ridpairs increments it per verifyOverlap call, FS-Join and
	// V-Smart-Join per aggregated pair reaching result.Verifier, MassJoin
	// and ApproxLSHJoin per pair result.Score intersects.
	CtrVerifyCandidates = "verify.candidates"
)

// Validate rejects unsupported widths.
func (c BitmapConfig) Validate() error {
	switch c.Width {
	case 0, 64, 128, 256:
		return nil
	default:
		return fmt.Errorf("filters: bitmap width %d (want 0, 64, 128 or 256)", c.Width)
	}
}

// Resolve applies the FSJOIN_BITMAP test switch ("on"/"off") to an
// auto-mode config, mirroring FSJOIN_MEMORY_BUDGET: an explicit Mode wins,
// auto defers to the environment. A value ParseBitmapMode refuses is an
// error naming it: a mistyped switch must not run the default path and
// pass. Call once per pipeline, not per reduce group.
func (c BitmapConfig) Resolve() (BitmapConfig, error) {
	if c.Mode != BitmapAuto {
		return c, nil
	}
	s := os.Getenv("FSJOIN_BITMAP")
	m, err := ParseBitmapMode(s)
	if err != nil {
		return c, fmt.Errorf("filters: FSJOIN_BITMAP=%q (want auto, on or off)", s)
	}
	c.Mode = m
	return c, nil
}

// ResolveEnv is Resolve for a caller with no error to return, which leaves
// c as it is on a malformed switch. Joins and indexes resolve through
// Resolve.
func (c BitmapConfig) ResolveEnv() BitmapConfig {
	r, _ := c.Resolve()
	return r
}

// Enabled reports whether signatures should be built at all.
func (c BitmapConfig) Enabled() bool { return c.Mode != BitmapOff }

// SigMaxWords is the storage capacity of a Signature: 256 bits.
const SigMaxWords = 4

// Signature is one fixed-width hashed token bitmap. Only the first w words
// (as returned by BitmapConfig.Words) are meaningful; both sides of a
// comparison must use the same w.
type Signature [SigMaxWords]uint64

// Words picks the signature width in 64-bit words for sets of the given
// mean length. The bound loosens as the load factor |set|/bits grows (every
// collision hides one symmetric-difference token), so the width tracks
// roughly 3 bits per expected token, clamped to the supported 64/128/256
// range: DESIGN.md §11 derives the ≲⅓ load-factor target.
func (c BitmapConfig) Words(meanLen float64) int {
	switch {
	case c.Width != 0:
		return c.Width / 64
	case meanLen <= 24:
		return 1
	case meanLen <= 88:
		return 2
	default:
		return SigMaxWords
	}
}

// sigShift maps a mixed 64-bit hash to a bit index in a w-word signature
// by keeping its top 6 (w=1), 7 (w=2) or 8 (w=4) bits.
func sigShift(w int) uint {
	switch w {
	case 1:
		return 58
	case 2:
		return 57
	default:
		return 56
	}
}

// sigMix is the Fibonacci-hashing multiplier (2^64/φ); token ids are dense
// dictionary ranks, so consecutive ids must spread across the word.
const sigMix = 0x9E3779B97F4A7C15

// BuildSignature fills sig with the w-word hashed bitmap of toks.
// Duplicate, unsorted or empty inputs are all safe: duplicates land on one
// bit, order is irrelevant, empty builds the zero signature.
func BuildSignature(sig *Signature, toks []uint32, w int) {
	*sig = Signature{}
	shift := sigShift(w)
	for _, t := range toks {
		idx := (uint64(t) * sigMix) >> shift
		sig[idx>>6] |= 1 << (idx & 63)
	}
}

// SigOverlapUB returns the signature upper bound on |A∩B| for sets of
// sizes la, lb: ⌊(la+lb − popcount(a XOR b))/2⌋, additionally clamped to
// min(la, lb). The true overlap never exceeds it.
func SigOverlapUB(a, b *Signature, w, la, lb int) int {
	x := 0
	for i := 0; i < w; i++ {
		x += bits.OnesCount64(a[i] ^ b[i])
	}
	ub := (la + lb - x) / 2
	if m := min(la, lb); ub > m {
		ub = m
	}
	if ub < 0 {
		ub = 0
	}
	return ub
}

// SigPrune reports whether the popcount bound alone proves the pair cannot
// reach the required overlap — the minimum-popcount reject test: it is
// equivalent to popcount(XOR) > la + lb − 2·required.
func SigPrune(a, b *Signature, w, la, lb, required int) bool {
	return SigOverlapUB(a, b, w, la, lb) < required
}
