package fsjoin

import (
	"errors"
	"fmt"
	"time"

	"fsjoin/internal/probeindex"
)

// ErrNoIndex is returned by LoadIndex when the directory holds no usable
// index for the given options — nothing saved, a different configuration,
// or a corrupt file. The caller should BuildIndex and Save.
var ErrNoIndex = errors.New("fsjoin: no usable index (build and save one)")

// ErrDurability is wrapped into the error of a durable Insert/Delete whose
// write-ahead-log append or fsync failed. The mutation was neither applied
// nor acknowledged, and the log stays poisoned (every later mutation fails
// the same way) until the index is reloaded — a torn tail is never
// appended to.
var ErrDurability = errors.New("fsjoin: durable mutation failed (not applied, not acknowledged)")

// publishIndexErr folds the internal typed WAL failure into the public
// sentinel so callers outside the module can errors.Is against it.
func publishIndexErr(err error) error {
	var we *probeindex.WALError
	if errors.As(err, &we) {
		return fmt.Errorf("%w: %v", ErrDurability, err)
	}
	return err
}

// IndexOptions configures a probe index. The similarity predicate is fixed
// at build time: one index answers exactly one (function, threshold,
// bitmap) configuration — the bitmap filter's as the FSJOIN_BITMAP test
// switch resolves it — and LoadIndex refuses an index saved under any
// other.
type IndexOptions struct {
	// Threshold is the similarity threshold θ in (0, 1]. Required.
	Threshold float64
	// Function is the similarity function (default Jaccard).
	Function Similarity
}

func (o IndexOptions) internal() (probeindex.Options, error) {
	fn, err := o.Function.internal()
	if err != nil {
		return probeindex.Options{}, err
	}
	if o.Threshold <= 0 || o.Threshold > 1 {
		return probeindex.Options{}, fmt.Errorf("fsjoin: Threshold %v outside (0, 1]", o.Threshold)
	}
	return probeindex.Options{Fn: fn, Theta: o.Threshold}, nil
}

// WALSyncMode selects when write-ahead-log appends reach stable storage on
// a durable index (see Index.Persist).
type WALSyncMode int

const (
	// WALSyncAlways fsyncs every append before the mutation is
	// acknowledged: an acknowledged Insert/Delete survives power loss.
	WALSyncAlways WALSyncMode = iota
	// WALSyncInterval group-commits: appends hit the OS immediately but are
	// fsynced at most once per interval, so a crash can lose up to one
	// interval of acknowledged mutations — never reorder or corrupt them.
	WALSyncInterval
	// WALSyncNever leaves syncing to the OS (and to Close/compaction).
	WALSyncNever
)

// AutoCompact configures a durable index's self-maintenance: when the
// side-log overlay outgrows these thresholds, the index folds it into a
// fresh snapshot generation and rotates its WAL. The zero value disables
// auto-compaction (manual Compact still checkpoints).
type AutoCompact struct {
	// LogFraction triggers compaction when the overlay reaches this
	// fraction of the live record count; 0 disables the fractional trigger.
	LogFraction float64
	// MaxLogRecords triggers compaction at this absolute overlay size; 0
	// disables the absolute trigger.
	MaxLogRecords int
	// MinInterval spaces automatic compactions; 0 means no spacing.
	MinInterval time.Duration
}

// Durability configures Index.Persist.
type Durability struct {
	// WALSync is the fsync policy for acknowledged mutations (default
	// WALSyncAlways).
	WALSync WALSyncMode
	// WALSyncInterval is the group-commit window under WALSyncInterval;
	// 0 means 100ms.
	WALSyncInterval time.Duration
	// AutoCompact is the self-maintenance policy, evaluated by
	// Server.MaintainIndex (or any caller of the index's maintenance).
	AutoCompact AutoCompact
}

func (d Durability) internal() (probeindex.DurableOptions, error) {
	var mode probeindex.SyncMode
	switch d.WALSync {
	case WALSyncAlways:
		mode = probeindex.SyncAlways
	case WALSyncInterval:
		mode = probeindex.SyncInterval
	case WALSyncNever:
		mode = probeindex.SyncNever
	default:
		return probeindex.DurableOptions{}, fmt.Errorf("fsjoin: unknown WALSync mode %d", int(d.WALSync))
	}
	return probeindex.DurableOptions{
		Sync: probeindex.SyncPolicy{Mode: mode, Interval: d.WALSyncInterval},
		AutoCompact: probeindex.AutoCompactPolicy{
			LogFraction:   d.AutoCompact.LogFraction,
			MaxLogRecords: d.AutoCompact.MaxLogRecords,
			MinInterval:   d.AutoCompact.MinInterval,
		},
	}, nil
}

// Match is one probe hit: an indexed record similar to the probe set.
type Match struct {
	// RID is the matched record's id: its position in the collection the
	// index was built from, or the id Insert returned.
	RID int
	// Common is the exact intersection size.
	Common int
	// Similarity is the exact score, computed by the same kernel the batch
	// joins use.
	Similarity float64
}

// IndexStats snapshots an index's serving counters.
type IndexStats struct {
	// Probes, Candidates and Hits are cumulative (they survive Save/Load):
	// probes served, postings/overlay candidates examined, matches
	// returned.
	Probes     int64
	Candidates int64
	Hits       int64
	// LogSize is the current side-log overlay size: records inserted plus
	// records tombstoned since the last build or Compact.
	LogSize int64
	// Records is the number of live records probes can match.
	Records int64
	// Compactions counts Compact calls; AutoCompactions is the
	// policy-triggered subset.
	Compactions     int64
	AutoCompactions int64
	// Durability counters, all zero for a purely in-memory index:
	// acknowledged mutations appended to the WAL, WAL bytes fsynced, WAL
	// frames replayed at load, torn WAL tails truncated at load, and the
	// size of the current snapshot generation on disk.
	WALAppends         int64
	WALSyncedBytes     int64
	WALReplayed        int64
	WALTruncatedFrames int64
	SnapshotBytes      int64
	// Generation is the current snapshot generation (0 until persisted).
	Generation int64
}

// IndexLoadRejects snapshots the process-wide index.load.rejects.<reason>
// counters ("corrupt", "stale", "invariant", "wal"), incremented each time
// LoadIndex discards an unusable generation — so operators can tell
// corruption from an ordinary configuration change.
func IndexLoadRejects() map[string]int64 { return probeindex.LoadRejects() }

// Index is a persistent probe index: the batch pipeline's filter stack
// (global token order, prefix postings with positions, bitmap signatures)
// built once over a collection and then served read-many. Probe answers a
// single-record similarity query in microseconds with results
// byte-identical to a full join restricted to that record. All methods are
// safe for concurrent use.
type Index struct {
	ix *probeindex.Index
}

// BuildIndex builds a probe index over a prepared collection. The
// collection's record ids (positions) become Match.RID values.
func BuildIndex(c *Collection, opt IndexOptions) (*Index, error) {
	iopt, err := opt.internal()
	if err != nil {
		return nil, err
	}
	if c == nil {
		return nil, errors.New("fsjoin: nil collection")
	}
	ix, err := probeindex.Build(c.t, c.c.d.Token, iopt)
	if err != nil {
		return nil, err
	}
	return &Index{ix: ix}, nil
}

// LoadIndex restores an index previously saved into dir with Index.Save.
// The options must match the saved configuration; any mismatch, missing or
// damaged file returns an error wrapping ErrNoIndex (the loader verifies
// every checksum of the file and every structural invariant before serving
// from it — a corrupt index is discarded, never trusted).
func LoadIndex(dir string, opt IndexOptions) (*Index, error) {
	iopt, err := opt.internal()
	if err != nil {
		return nil, err
	}
	ix, err := probeindex.Load(dir, iopt)
	if err != nil {
		if errors.Is(err, probeindex.ErrNoIndex) {
			return nil, fmt.Errorf("%w: %v", ErrNoIndex, err)
		}
		return nil, err
	}
	return &Index{ix: ix}, nil
}

// Save atomically persists the index (records, tombstones and side-log)
// into dir, so a later LoadIndex skips the build. Derived structures are
// rebuilt at load; every section of the file is checksummed. Save is a one-shot
// snapshot of an in-memory index; a Persist-ed index checkpoints through
// Compact instead.
func (x *Index) Save(dir string) error { return x.ix.Save(dir) }

// Persist makes the index durable in dir: the current state is written as
// a fresh snapshot generation and a write-ahead log is opened next to it.
// From then on every acknowledged Insert/Delete is WAL-logged (synced per
// d.WALSync) before it is applied, so LoadIndex after a crash recovers
// exactly the acknowledged mutation history; a WAL write failure returns
// an error wrapping ErrDurability and the mutation is neither applied nor
// acknowledged. Close releases the WAL; the on-disk state stays loadable.
func (x *Index) Persist(dir string, d Durability) error {
	dopt, err := d.internal()
	if err != nil {
		return err
	}
	return x.ix.Persist(dir, dopt)
}

// Close flushes and closes the index's write-ahead log, detaching it from
// its directory. Safe (and a no-op) on a never-persisted index.
func (x *Index) Close() error { return x.ix.Close() }

// Durable reports whether the index currently has an attached WAL.
func (x *Index) Durable() bool { return x.ix.Durable() }

// Maintain runs one maintenance pass: pending group-commit WAL bytes are
// flushed and the auto-compaction policy is evaluated. Server.MaintainIndex
// drives this periodically; callers without a Server may run it on their
// own schedule.
func (x *Index) Maintain() error { return x.ix.Maintain() }

// Probe returns every live indexed record whose similarity with the given
// token set reaches the index threshold, sorted by RID. The set may be
// unsorted, contain duplicates, or contain tokens the corpus never saw.
func (x *Index) Probe(set []string) []Match {
	return publishMatches(x.ix.Probe(set))
}

// ProbeBatch probes each set independently; element i of the result
// answers set i.
func (x *Index) ProbeBatch(sets [][]string) [][]Match {
	out := make([][]Match, len(sets))
	for i, set := range sets {
		out[i] = x.Probe(set)
	}
	return out
}

// ProbeRecord probes with an indexed record's own token set, excluding the
// record itself — the self-join result row for that record.
func (x *Index) ProbeRecord(rid int) ([]Match, error) {
	ms, err := x.ix.ProbeRecord(int32(rid))
	if err != nil {
		return nil, err
	}
	return publishMatches(ms), nil
}

// Insert adds a record to the index's side-log overlay and returns its new
// RID. The record is immediately probeable. On a durable index the insert
// is WAL-logged before it is acknowledged; a WAL failure leaves the index
// unchanged and returns the typed error.
func (x *Index) Insert(set []string) (int, error) {
	rid, err := x.ix.Insert(set)
	return int(rid), publishIndexErr(err)
}

// Delete removes a record (built, loaded or inserted) from the index,
// following the same WAL-before-acknowledge contract as Insert.
func (x *Index) Delete(rid int) error { return publishIndexErr(x.ix.Delete(int32(rid))) }

// Compact folds the side-log overlay back into the index's CSR base,
// recomputing the global token order and postings. Probe results are
// unchanged; serving pauses only for the rebuild. On a durable index
// Compact also checkpoints: a fresh snapshot generation is written
// atomically and the WAL rotated.
func (x *Index) Compact() error { return x.ix.Compact() }

// Len returns the number of live records.
func (x *Index) Len() int { return x.ix.Len() }

// Stats snapshots the serving counters.
func (x *Index) Stats() IndexStats {
	s := x.ix.Stats()
	return IndexStats{
		Probes:             s.Probes,
		Candidates:         s.Candidates,
		Hits:               s.Hits,
		LogSize:            s.LogSize,
		Records:            s.Records,
		Compactions:        s.Compactions,
		AutoCompactions:    s.AutoCompactions,
		WALAppends:         s.WALAppends,
		WALSyncedBytes:     s.WALSyncedBytes,
		WALReplayed:        s.WALReplayed,
		WALTruncatedFrames: s.WALTruncatedFrames,
		SnapshotBytes:      s.SnapshotBytes,
		Generation:         s.Generation,
	}
}

func publishMatches(ms []probeindex.Match) []Match {
	if ms == nil {
		return nil
	}
	out := make([]Match, len(ms))
	for i, m := range ms {
		out[i] = Match{RID: int(m.RID), Common: int(m.Common), Similarity: m.Sim}
	}
	return out
}
