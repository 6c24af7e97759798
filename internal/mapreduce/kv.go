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
// (binary-safe) of at most spill.MaxKeyLen bytes. An emitted value is of a
// registered type (spill.Register), accounted at its Codec.Size, and of one
// type within a shuffle partition or a task's output: else the job fails
// with spill.ErrNoCodec or spill.ErrMixedValues, spilling or not.
type KV struct {
	// Key groups values in the shuffle.
	Key string
	// Value is the payload delivered to reducers.
	Value any
}

// recordBytes, the engine's one size function, is the accounted wire size of
// a pair whose value is accounted at size (spill.Sizer): key, value and a
// small per-record framing overhead (Hadoop writes key/value lengths).
func recordBytes(key string, size int) int64 { return int64(len(key) + size + 8) }
