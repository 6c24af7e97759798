// Package tokens defines the record model shared by every join algorithm in
// this repository: raw text records, tokenizers that turn text into token
// sets, and a dictionary that encodes tokens as dense integer ids.
//
// All join algorithms operate on Record values whose Tokens slice is a
// duplicate-free set of token ids sorted ascending by the global ordering
// (see package order). Keeping records in this canonical form makes segment
// splitting, prefix extraction and intersection counting O(n) everywhere.
package tokens

import (
	"fmt"
	"slices"
	"strings"
)

// ID is a dictionary-encoded token identifier. After global ordering is
// applied (package order), smaller IDs denote globally rarer tokens.
type ID = uint32

// Record is a set of tokens with a record identifier. Tokens must be sorted
// ascending and duplicate-free; NewRecord enforces this.
type Record struct {
	// RID identifies the record within its collection. RIDs are unique per
	// collection but two collections joined R-S style may reuse values.
	RID int32
	// Tokens is the sorted, duplicate-free token-id set.
	Tokens []ID
}

// NewRecord builds a canonical Record from possibly unsorted, possibly
// duplicated token ids. The input slice is not retained.
func NewRecord(rid int32, ids []ID) Record {
	return NewRecordOwned(rid, append(make([]ID, 0, len(ids)), ids...))
}

// NewRecordOwned is NewRecord for a caller that hands ids over: the slice
// is sorted and deduplicated in place and becomes the record's Tokens.
func NewRecordOwned(rid int32, ids []ID) Record {
	slices.Sort(ids)
	return Record{RID: rid, Tokens: dedupSorted(ids)}
}

// Len returns the number of tokens in the record (|s| in the paper).
func (r Record) Len() int { return len(r.Tokens) }

// Clone returns a deep copy of the record.
func (r Record) Clone() Record {
	ts := make([]ID, len(r.Tokens))
	copy(ts, r.Tokens)
	return Record{RID: r.RID, Tokens: ts}
}

// Validate reports an error when the token slice is not strictly increasing.
func (r Record) Validate() error {
	for i := 1; i < len(r.Tokens); i++ {
		if r.Tokens[i-1] >= r.Tokens[i] {
			return fmt.Errorf("tokens: record %d not strictly sorted at %d (%d >= %d)",
				r.RID, i, r.Tokens[i-1], r.Tokens[i])
		}
	}
	return nil
}

// String renders the record compactly for debugging.
func (r Record) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "r%d{", r.RID)
	for i, t := range r.Tokens {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d", t)
	}
	b.WriteByte('}')
	return b.String()
}

// Intersect returns |a ∩ b| for two canonical records using a linear merge.
func Intersect(a, b []ID) int {
	i, j, n := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			n++
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return n
}

// Collection is an ordered list of canonical records.
type Collection struct {
	// Records holds the canonical records in RID order.
	Records []Record
}

// Len returns the number of records.
func (c *Collection) Len() int { return len(c.Records) }

// TotalTokens returns Σ|s_i| over the collection.
func (c *Collection) TotalTokens() int {
	n := 0
	for _, r := range c.Records {
		n += len(r.Tokens)
	}
	return n
}

// MaxToken returns the largest token id present, or 0 for an empty
// collection. The token domain U is [0, MaxToken].
func (c *Collection) MaxToken() ID {
	var m ID
	for _, r := range c.Records {
		if n := len(r.Tokens); n > 0 && r.Tokens[n-1] > m {
			m = r.Tokens[n-1]
		}
	}
	return m
}

// Clone deep-copies the collection.
func (c *Collection) Clone() *Collection {
	out := &Collection{Records: make([]Record, len(c.Records))}
	for i, r := range c.Records {
		out.Records[i] = r.Clone()
	}
	return out
}

// Validate checks every record's canonical form and RID uniqueness.
func (c *Collection) Validate() error {
	seen := make(map[int32]bool, len(c.Records))
	for _, r := range c.Records {
		if err := r.Validate(); err != nil {
			return err
		}
		if seen[r.RID] {
			return fmt.Errorf("tokens: duplicate rid %d", r.RID)
		}
		seen[r.RID] = true
	}
	return nil
}

func dedupSorted(ts []ID) []ID {
	if len(ts) == 0 {
		return ts
	}
	w := 1
	for i := 1; i < len(ts); i++ {
		if ts[i] != ts[i-1] {
			ts[w] = ts[i]
			w++
		}
	}
	return ts[:w]
}
