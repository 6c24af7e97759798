package spill

// Every wire tag, builtin and registered, in one list: a value is stored as
// one of these bytes followed by a tag-specific payload, so a number here is
// part of the format of every spill run and checkpoint snapshot ever
// written and is never reused or renumbered. The first three
// are whole values — a tag and no payload; every other tag is installed by
// one Register call, the builtin kinds' from this package's init and the rest
// from the init of the package that declares the type.
const (
	tagNil byte = iota
	tagFalse
	tagTrue
	tagInt
	tagInt8
	tagInt16
	tagInt32
	tagInt64
	tagUint
	tagUint8
	tagUint16
	tagUint32
	tagUint64
	tagFloat32
	tagFloat64
	tagString
	tagBytes
	tagU32Slice
	tagI32Slice
	tagIntSlice
	tagStringSlice
)

// Retired, never to be reused: 53 (massjoin's rid list) and 59 (minhash's
// partner rid), both replaced by order.Routed.
const (
	TagSeg         byte = 40 // fragjoin.Seg
	TagOverlap     byte = 41 // result.Overlap
	TagRSRecord    byte = 42 // rsinput.Record
	TagPosting     byte = 46 // rsinput.Posting
	TagSigEntry    byte = 50 // massjoin.sigEntry
	TagCandidate   byte = 51 // result.Candidate
	TagScored      byte = 54 // result.Scored
	TagRecordValue byte = 61 // order.RecordValue
	TagRouted      byte = 62 // order.Routed
)
