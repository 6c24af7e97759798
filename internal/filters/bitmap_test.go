package filters

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"fsjoin/internal/similarity"
)

// exactOverlap is the reference |A∩B| for possibly-duplicated inputs,
// counted over the deduplicated sets like the signature bound is.
func exactOverlap(a, b []uint32) (c, la, lb int) {
	sa := map[uint32]bool{}
	for _, t := range a {
		sa[t] = true
	}
	sb := map[uint32]bool{}
	for _, t := range b {
		sb[t] = true
	}
	for t := range sa {
		if sb[t] {
			c++
		}
	}
	return c, len(sa), len(sb)
}

func dedup(toks []uint32) []uint32 {
	seen := map[uint32]bool{}
	out := toks[:0]
	for _, t := range toks {
		if !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	return out
}

// TestSigBoundNeverBelowTrueOverlap is the filter's soundness property: for
// random token sets, every width and every similarity function, the
// popcount upper bound is ≥ the true overlap, so SigPrune never rejects a
// pair the exact filters would keep.
func TestSigBoundNeverBelowTrueOverlap(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	prop := func(rawA, rawB []uint32, span16 uint16) bool {
		// Confine tokens to a smallish span so overlaps actually happen.
		span := uint32(span16)%4096 + 8
		for i := range rawA {
			rawA[i] %= span
		}
		for i := range rawB {
			rawB[i] %= span
		}
		a, b := dedup(rawA), dedup(rawB)
		c, la, lb := exactOverlap(a, b)
		for _, w := range []int{1, 2, 4} {
			var sa, sb Signature
			BuildSignature(&sa, a, w)
			BuildSignature(&sb, b, w)
			ub := SigOverlapUB(&sa, &sb, w, la, lb)
			if ub < c {
				t.Logf("w=%d: ub %d < true overlap %d (la=%d lb=%d)", w, ub, c, la, lb)
				return false
			}
			if ub > min(la, lb) {
				t.Logf("w=%d: ub %d above min(la,lb)=%d", w, ub, min(la, lb))
				return false
			}
			// SigPrune must agree with the bound, and never fire when the
			// true overlap meets the requirement.
			for _, fn := range []similarity.Func{similarity.Jaccard, similarity.Cosine, similarity.Dice} {
				theta := 0.5 + rng.Float64()/2
				req := fn.MinOverlap(theta, la, lb)
				if SigPrune(&sa, &sb, w, la, lb, req) && c >= req {
					t.Logf("w=%d %v θ=%g: pruned pair with overlap %d ≥ required %d", w, fn, theta, c, req)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 400, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

// TestSigIdenticalSetsPassthrough pins the no-collision-harm direction: a
// set compared against itself has XOR zero, so the bound is min(la,lb)
// and SigPrune can only fire when even full overlap is insufficient.
func TestSigIdenticalSetsPassthrough(t *testing.T) {
	toks := []uint32{3, 9, 77, 1024, 99999}
	for _, w := range []int{1, 2, 4} {
		var s Signature
		BuildSignature(&s, toks, w)
		if ub := SigOverlapUB(&s, &s, w, len(toks), len(toks)); ub != len(toks) {
			t.Fatalf("w=%d: self bound %d, want %d", w, ub, len(toks))
		}
		if SigPrune(&s, &s, w, len(toks), len(toks), len(toks)) {
			t.Fatalf("w=%d: self pair pruned at required=%d", w, len(toks))
		}
		if !SigPrune(&s, &s, w, len(toks), len(toks), len(toks)+1) {
			t.Fatalf("w=%d: impossible requirement not pruned", w)
		}
	}
}

// TestBuildSignatureSetsEveryTokenBit checks membership: every token's
// hashed bit is set, and only the first w words are ever touched.
func TestBuildSignatureSetsEveryTokenBit(t *testing.T) {
	toks := []uint32{0, 1, 2, 500, 1 << 20, 4294967295}
	for _, w := range []int{1, 2, 4} {
		var s Signature
		BuildSignature(&s, toks, w)
		shift := sigShift(w)
		for _, tok := range toks {
			idx := (uint64(tok) * sigMix) >> shift
			if s[idx>>6]&(1<<(idx&63)) == 0 {
				t.Fatalf("w=%d: token %d bit not set", w, tok)
			}
		}
		for i := w; i < SigMaxWords; i++ {
			if s[i] != 0 {
				t.Fatalf("w=%d: word %d written outside width", w, i)
			}
		}
	}
}

func TestBitmapWords(t *testing.T) {
	var c BitmapConfig
	for _, tc := range []struct {
		mean float64
		want int
	}{{0, 1}, {10, 1}, {24, 1}, {25, 2}, {88, 2}, {89, 4}, {1000, 4}} {
		if got := c.Words(tc.mean); got != tc.want {
			t.Fatalf("Words(%g) = %d, want %d", tc.mean, got, tc.want)
		}
	}
	for _, tc := range []struct{ width, want int }{{64, 1}, {128, 2}, {256, 4}} {
		pinned := BitmapConfig{Width: tc.width}
		if got := pinned.Words(1000); got != tc.want {
			t.Fatalf("pinned Words(width=%d) = %d, want %d", tc.width, got, tc.want)
		}
	}
}

func TestBitmapModeStringParse(t *testing.T) {
	for _, m := range []BitmapMode{BitmapAuto, BitmapOn, BitmapOff} {
		got, err := ParseBitmapMode(m.String())
		if err != nil || got != m {
			t.Fatalf("round trip %v: got %v, %v", m, got, err)
		}
	}
	if m, err := ParseBitmapMode(""); err != nil || m != BitmapAuto {
		t.Fatalf("empty mode: %v, %v", m, err)
	}
	if _, err := ParseBitmapMode("sometimes"); err == nil {
		t.Fatal("bad mode accepted")
	}
	if BitmapMode(9).String() != "BitmapMode(9)" {
		t.Fatal("unknown mode name")
	}
}

func TestBitmapConfigValidate(t *testing.T) {
	for _, w := range []int{0, 64, 128, 256} {
		if err := (BitmapConfig{Width: w}).Validate(); err != nil {
			t.Fatalf("width %d rejected: %v", w, err)
		}
	}
	for _, w := range []int{1, 32, 63, 65, 512, -64} {
		if err := (BitmapConfig{Width: w}).Validate(); err == nil {
			t.Fatalf("width %d accepted", w)
		}
	}
}

func TestBitmapResolveEnv(t *testing.T) {
	t.Setenv("FSJOIN_BITMAP", "off")
	got := BitmapConfig{}.ResolveEnv()
	if got.Mode != BitmapOff || got.Width != 0 {
		t.Fatalf("auto config ignored environment: %+v", got)
	}
	// Explicit mode wins over the environment entirely.
	got = (BitmapConfig{Mode: BitmapOn}).ResolveEnv()
	if got.Mode != BitmapOn || got.Width != 0 {
		t.Fatalf("explicit mode overridden: %+v", got)
	}
	// An explicit width survives the switch.
	got = (BitmapConfig{Width: 64}).ResolveEnv()
	if got.Mode != BitmapOff || got.Width != 64 {
		t.Fatalf("explicit width overridden: %+v", got)
	}
	// Invalid environment values are ignored, never an error.
	t.Setenv("FSJOIN_BITMAP", "banana")
	got = BitmapConfig{}.ResolveEnv()
	if got.Mode != BitmapAuto || got.Width != 0 {
		t.Fatalf("invalid environment applied: %+v", got)
	}
	if !got.Enabled() {
		t.Fatal("auto mode should be enabled")
	}
	if (BitmapConfig{Mode: BitmapOff}).Enabled() {
		t.Fatal("off mode should be disabled")
	}
}

// TestBitmapResolve: Resolve applies the switch as ResolveEnv does, and a
// value ParseBitmapMode refuses is an error that names the variable and
// the value, unless an explicit mode makes the switch moot.
func TestBitmapResolve(t *testing.T) {
	t.Setenv("FSJOIN_BITMAP", "off")
	if got, err := (BitmapConfig{Width: 64}).Resolve(); err != nil || got.Mode != BitmapOff || got.Width != 64 {
		t.Fatalf("Resolve under off: %+v, %v", got, err)
	}
	t.Setenv("FSJOIN_BITMAP", "of")
	if _, err := (BitmapConfig{}).Resolve(); err == nil || !strings.Contains(err.Error(), `FSJOIN_BITMAP="of"`) {
		t.Fatalf("malformed switch: error %v, want one naming FSJOIN_BITMAP and its value", err)
	}
	if got, err := (BitmapConfig{Mode: BitmapOn}).Resolve(); err != nil || got.Mode != BitmapOn {
		t.Fatalf("explicit mode under a malformed switch: %+v, %v", got, err)
	}
}
