// Package mapreduce implements the shared-nothing execution substrate the
// paper assumes: a MapReduce engine with mappers, combiners, reducers, a
// deterministic sort-based shuffle, user counters, and a cluster cost model
// that converts measured per-task work into a simulated distributed
// makespan.
//
// The engine runs in-process. This is the documented substitution for the
// paper's Hadoop/EC2 testbed (see DESIGN.md §2): every quantity the paper's
// comparisons depend on — map output records, shuffle bytes, duplication
// factors, per-reducer skew, comparison counts — is measured exactly from
// real algorithm executions; only the conversion to "cluster seconds" is
// modelled.
package mapreduce

// KV is a key/value pair flowing through a MapReduce job. Keys are strings
// (binary-safe); values are arbitrary. Values crossing the shuffle should
// either implement Sized or be one of the natively sized kinds so that
// shuffle-byte accounting stays meaningful.
type KV struct {
	// Key groups values in the shuffle.
	Key string
	// Value is the payload delivered to reducers.
	Value any
}

// Sized lets shuffle values report their serialized size in bytes for cost
// accounting. Aggregate types used as shuffle values should implement it.
type Sized interface {
	// SizeBytes returns the approximate wire size of the value.
	SizeBytes() int
}

// sizeOf estimates the wire size of a value for shuffle accounting.
func sizeOf(v any) int {
	switch x := v.(type) {
	case nil:
		return 0
	case Sized:
		return x.SizeBytes()
	case string:
		return len(x)
	case []byte:
		return len(x)
	case bool, int8, uint8:
		return 1
	case int16, uint16:
		return 2
	case int32, uint32, float32:
		return 4
	case int, int64, uint, uint64, float64:
		return 8
	case []uint32:
		return 4 * len(x)
	case []int32:
		return 4 * len(x)
	case []int:
		return 8 * len(x)
	case []string:
		n := 0
		for _, s := range x {
			n += len(s) + 4
		}
		return n
	default:
		// Unknown aggregate: charge a conservative flat cost so that
		// accounting never silently reports zero.
		return 16
	}
}

// recordBytes, the engine's one size function, is the accounted wire size of
// a pair: key, value and a small per-record framing overhead (Hadoop writes
// key/value lengths).
func recordBytes(key string, v any) int64 { return int64(len(key) + sizeOf(v) + 8) }
