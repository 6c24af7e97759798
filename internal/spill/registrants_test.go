package spill_test

// Every package that registers a shuffle value type, linked into this
// package's test binary so that the tests which walk the registry — the
// golden wire table, the trailing-byte table, the typed-column encoding —
// see the whole of it.
import (
	_ "fsjoin/internal/fragjoin"
	_ "fsjoin/internal/massjoin"
	_ "fsjoin/internal/minhash"
	_ "fsjoin/internal/order"
	_ "fsjoin/internal/result"
	_ "fsjoin/internal/rsinput"
)
