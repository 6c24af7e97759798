// Index persistence rides the internal/checkpoint codec: one atomically
// published framed file (DESIGN.md §16) per generation holding the token table, the
// CSR base records, the tombstone set and the live side-log, with the
// checkpoint stage number doubling as the generation. Derived structure —
// postings, signatures, the rank map — is rebuilt at load rather than
// trusted from disk, so a file that decodes but lies about derived state
// cannot make probes return wrong results: everything that influences a
// probe answer is either validated against the record data or recomputed
// from it (rebuild-never-trust, DESIGN.md §13).
//
// Generations (DESIGN.md §14): `stage-%03d-index.ckpt` is generation g's
// snapshot, `wal.g%08d` its write-ahead log. Load scans generations newest
// first, restores the first loadable snapshot and replays its WAL on top
// (truncate-to-last-valid), so a crash anywhere in the compaction protocol
// recovers from either the old generation (snapshot + WAL) or the new one —
// never a mix. Each rejected generation is counted under
// index.load.rejects.<reason> and woven into the returned error, so
// operators can tell corruption from a config change.
//
// The checkpoint fingerprint covers only the serving configuration
// (format version, similarity function, threshold, resolved bitmap mode
// and width), so Load can decide hit/stale before reading a record, and an
// index saved under one θ can never answer probes for another.

package probeindex

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"

	"fsjoin/internal/checkpoint"
	"fsjoin/internal/filters"
	"fsjoin/internal/similarity"
)

// ErrNoIndex reports that a directory holds no usable index for the given
// options: nothing saved yet, a stale configuration, a corrupt file, or a
// body that decoded but failed validation. Callers rebuild and Save. The
// returned error also wraps the per-generation reason sentinel
// (ErrCorruptSnapshot, ErrStaleConfig, ErrInvariant, ErrWALRejected), so
// errors.Is can separate corruption from an ordinary config change.
var ErrNoIndex = errors.New("probeindex: no usable index")

// Load rejection reasons, wrapped into the ErrNoIndex error and counted
// under index.load.rejects.<reason> (see LoadRejects).
var (
	// ErrCorruptSnapshot: the snapshot is not a valid framed file (which
	// includes one written by an earlier format) or could not be decoded.
	// Reason "corrupt".
	ErrCorruptSnapshot = errors.New("corrupt snapshot")
	// ErrStaleConfig: the snapshot is valid but was written under a
	// different serving configuration (fn, θ, bitmap mode/width or format
	// version). Reason "stale".
	ErrStaleConfig = errors.New("config fingerprint mismatch")
	// ErrInvariant: the snapshot decoded but its content failed structural
	// validation (the checksum proves the bytes, not the semantics). Reason
	// "invariant".
	ErrInvariant = errors.New("snapshot invariant failure")
	// ErrWALRejected: the generation's WAL exists but its header does not
	// bind to this snapshot (wrong magic, generation or fingerprint), or
	// the file cannot be read; the whole log is ignored. Reason "wal".
	ErrWALRejected = errors.New("wal rejected")
)

const (
	persistPipeline = "probeindex"
	persistJob      = "index"
	// persistVersion must change whenever the record layout or the file
	// format under it does; 2 is the first on internal/frame.
	persistVersion = 2
)

// Process-wide load-rejection counters: index.load.rejects.<reason>. They
// outlive any single Index because a rejected load returns no Index to
// hang a counter on.
var (
	rejectMu  sync.Mutex
	rejectCtr = map[string]int64{}
)

func noteReject(reason string) {
	rejectMu.Lock()
	rejectCtr["index.load.rejects."+reason]++
	rejectMu.Unlock()
}

// LoadRejects snapshots the process-wide index.load.rejects.<reason>
// counters ("corrupt", "stale", "invariant", "wal"). Empty until a Load
// has rejected something.
func LoadRejects() map[string]int64 {
	rejectMu.Lock()
	defer rejectMu.Unlock()
	out := make(map[string]int64, len(rejectCtr))
	for k, v := range rejectCtr {
		out[k] = v
	}
	return out
}

// persistMeta is the JSON "meta" record: the scalars the record frames
// cannot carry.
type persistMeta struct {
	Version int     `json:"version"`
	Fn      int     `json:"fn"`
	Theta   float64 `json:"theta"`
	NextRID int32   `json:"next_rid"`
	LogN    int     `json:"log_n"`
}

// fingerprint keys the checkpoint by serving configuration. The bitmap
// config is environment-resolved first, so flipping FSJOIN_BITMAP between
// runs reads as Stale (rebuild) rather than silently serving with a
// mismatched filter. Durability knobs (sync policy, compaction thresholds)
// are deliberately excluded: they shape when bytes hit disk, not what an
// index answers.
func fingerprint(fn similarity.Func, theta float64, bm filters.BitmapConfig) string {
	f := checkpoint.NewFingerprint()
	f.Str(fmt.Sprintf("probeindex/v%d", persistVersion))
	f.I64(int64(fn))
	f.Str(strconv.FormatFloat(theta, 'g', -1, 64))
	f.Str(bm.Mode.String())
	f.I64(int64(bm.Width))
	return f.Hex()
}

// snapshotPath names generation gen's snapshot file; it must agree with
// the checkpoint store's naming for stage=gen, job=persistJob.
func snapshotPath(dir string, gen int) string {
	return filepath.Join(dir, fmt.Sprintf("stage-%03d-%s.ckpt", gen, persistJob))
}

// genOf parses a snapshot or WAL file name into its generation.
func genOf(name string) (int, bool) {
	var digits string
	if rest, ok := strings.CutPrefix(name, "stage-"); ok {
		digits, ok = strings.CutSuffix(rest, "-"+persistJob+".ckpt")
		if !ok {
			return 0, false
		}
	} else if digits, ok = strings.CutPrefix(name, "wal.g"); !ok {
		return 0, false
	}
	g, err := strconv.Atoi(digits)
	if err != nil || g < 0 {
		return 0, false
	}
	return g, true
}

// eachGeneration calls visit for every snapshot and WAL file in dir with
// its generation (a crash can leave one without the other).
func eachGeneration(dir string, visit func(name string, gen int)) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range ents {
		if g, ok := genOf(e.Name()); ok {
			visit(e.Name(), g)
		}
	}
}

// maxGeneration is the highest generation present in dir as either a
// snapshot or a WAL; 0 when the directory holds neither.
func maxGeneration(dir string) int {
	top := 0
	eachGeneration(dir, func(_ string, g int) { top = max(top, g) })
	return top
}

// retireGenerations removes every snapshot and WAL older than keep. Best
// effort: a straggler only wastes disk, it can never be loaded over a
// newer valid generation.
func retireGenerations(dir string, keep int) {
	eachGeneration(dir, func(name string, g int) {
		if g < keep {
			os.Remove(filepath.Join(dir, name))
		}
	})
}

// Save atomically persists the index into dir as a fresh generation
// (checkpoint.Store.Save) and retires older generations.
// Cumulative counters travel in the manifest so a restart keeps its
// history. Save serves the in-memory index; a durable one checkpoints
// through Compact, which also rotates the WAL.
func (ix *Index) Save(dir string) error {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if ix.wal != nil {
		return errors.New("probeindex: Save on a durable index (use Compact)")
	}
	gen, err := ix.writeGenerationLocked(dir)
	if err != nil {
		return err
	}
	retireGenerations(dir, gen)
	return nil
}

// writeGenerationLocked writes the current state into dir as the snapshot
// of the generation one past the newest there, and returns that
// generation. Callers hold at least the read lock.
func (ix *Index) writeGenerationLocked(dir string) (int, error) {
	st, err := checkpoint.Open(dir)
	if err != nil {
		return 0, err
	}
	gen := maxGeneration(dir) + 1
	var deleted []int32
	for s, d := range ix.dead {
		if d {
			deleted = append(deleted, ix.recRID[s])
		}
	}
	var logRIDs []int32
	var logToks [][]uint32
	for li := range ix.log {
		if !ix.log[li].dead {
			logRIDs = append(logRIDs, ix.log[li].rid)
			logToks = append(logToks, ix.log[li].toks)
		}
	}
	meta, err := json.Marshal(persistMeta{
		Version: persistVersion,
		Fn:      int(ix.fn),
		Theta:   ix.theta,
		NextRID: ix.nextRID,
		LogN:    len(logRIDs),
	})
	if err != nil {
		return 0, fmt.Errorf("probeindex: %w", err)
	}
	recs := []checkpoint.Record{
		{Key: "meta", Value: string(meta)},
		{Key: "tokens", Value: ix.tokStr},
		{Key: "recoff", Value: ix.recOff},
		{Key: "rectok", Value: ix.recTok},
		{Key: "recrid", Value: ix.recRID},
		{Key: "deleted", Value: deleted},
		{Key: "logrid", Value: logRIDs},
	}
	for i, ts := range logToks {
		recs = append(recs, checkpoint.Record{Key: logKey(i), Value: ts})
	}
	m := checkpoint.Manifest{
		Pipeline:    persistPipeline,
		Stage:       gen,
		Job:         persistJob,
		Fingerprint: fingerprint(ix.fn, ix.theta, ix.bitmap),
		Counters: map[string]int64{
			CtrProbes:                ix.probes.Load(),
			CtrCandidates:            ix.candidates.Load(),
			CtrHits:                  ix.hits.Load(),
			CtrCompactions:           ix.compactions.Load(),
			CtrCompactions + ".auto": ix.autoCompactions.Load(),
			CtrWALAppends:            ix.walAppends.Load(),
			CtrWALSyncedBytes:        ix.walSynced.Load(),
		},
	}
	if err := st.Save(m, recs); err != nil {
		return 0, err
	}
	if fi, err := os.Stat(snapshotPath(dir, gen)); err == nil {
		ix.snapshotBytes.Store(fi.Size())
	}
	return gen, nil
}

func logKey(i int) string { return fmt.Sprintf("log.%08d", i) }

// Load reconstructs an index saved into dir under the same serving
// configuration: generations are tried newest first, the first loadable
// snapshot is restored, and its write-ahead log is replayed on top
// (truncating the log at the first torn or invalid frame), so recovery
// after a crash yields exactly the acknowledged mutation prefix. A
// generation that fails — corrupt file, stale fingerprint, invariant
// failure, rejected WAL — is counted, discarded and the next older one
// tried. When nothing loads, the error wraps ErrNoIndex and every
// generation's reason sentinel, directing the caller to rebuild.
//
// The returned index is in-memory (no WAL attached); call Persist to make
// it durable again — which rolls a fresh generation forward, bounding WAL
// growth across restarts.
func Load(dir string, opt Options) (*Index, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	st, err := checkpoint.Open(dir)
	if err != nil {
		return nil, err
	}
	probe := newIndex(opt)
	fp := fingerprint(probe.fn, probe.theta, probe.bitmap)

	var reasons []error
	for gen := maxGeneration(dir); gen >= 1; gen-- {
		if _, err := os.Stat(snapshotPath(dir, gen)); errors.Is(err, os.ErrNotExist) {
			continue // generation present only as an orphan WAL
		}
		ix := newIndex(opt)
		snap, status := st.Load(gen, persistJob, fp)
		switch status {
		case checkpoint.Hit:
		case checkpoint.Miss:
			continue
		case checkpoint.Stale:
			noteReject("stale")
			reasons = append(reasons, fmt.Errorf("gen %d: %w", gen, ErrStaleConfig))
			continue
		default: // Corrupt
			noteReject("corrupt")
			reasons = append(reasons, fmt.Errorf("gen %d: %w", gen, ErrCorruptSnapshot))
			continue
		}
		if err := ix.restore(snap); err != nil {
			noteReject("invariant")
			os.Remove(snapshotPath(dir, gen))
			reasons = append(reasons, fmt.Errorf("gen %d: %w: %v", gen, ErrInvariant, err))
			continue
		}
		replayed, truncated, werr := replayWAL(dir, gen, fp, ix.applyWALOp)
		if werr != nil {
			// The log cannot bind to this snapshot (foreign header) or
			// cannot be read at all. The snapshot itself is good: recover
			// it with an empty replayed prefix rather than rejecting the
			// whole index, and count the rejected log.
			noteReject("wal")
			reasons = append(reasons, fmt.Errorf("gen %d: %w: %v", gen, ErrWALRejected, werr))
			truncated = true
			os.Remove(walPath(dir, gen))
		}
		ix.walReplayed.Store(replayed)
		if truncated {
			ix.walTruncated.Add(1)
		}
		if fi, err := os.Stat(snapshotPath(dir, gen)); err == nil {
			ix.snapshotBytes.Store(fi.Size())
		}
		ix.gen = gen
		return ix, nil
	}
	if len(reasons) == 0 {
		return nil, fmt.Errorf("%w: checkpoint miss in %s", ErrNoIndex, dir)
	}
	return nil, fmt.Errorf("%w: %w", ErrNoIndex, errors.Join(reasons...))
}

// applyWALOp replays one decoded WAL frame onto the restoring index. An
// op that cannot apply — an insert off the rid sequence, a delete of a
// dead rid — was never acknowledged in this history; the error makes
// replayWAL truncate there.
func (ix *Index) applyWALOp(op walOp) error {
	switch op.op {
	case walOpInsert:
		if op.rid != ix.nextRID {
			return fmt.Errorf("insert rid %d off sequence (want %d)", op.rid, ix.nextRID)
		}
		ix.applyInsertLocked(op.rid, op.set)
		return nil
	case walOpDelete:
		return ix.applyDeleteLocked(op.rid)
	default:
		return fmt.Errorf("unknown op %d", op.op)
	}
}

// restore rebuilds the index from a decoded snapshot, validating every
// structural invariant the probe path relies on. The checksum only proves
// the bytes are what Save wrote; this proves the content is an index.
func (ix *Index) restore(snap *checkpoint.Snapshot) error {
	vals := make(map[string]any, len(snap.Records))
	for _, r := range snap.Records {
		if _, dup := vals[r.Key]; dup {
			return fmt.Errorf("duplicate record %q", r.Key)
		}
		vals[r.Key] = r.Value
	}
	metaStr, ok := vals["meta"].(string)
	if !ok {
		return errors.New("missing meta record")
	}
	var meta persistMeta
	dec := json.NewDecoder(strings.NewReader(metaStr))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&meta); err != nil {
		return fmt.Errorf("meta: %v", err)
	}
	if meta.Version != persistVersion {
		return fmt.Errorf("version %d (want %d)", meta.Version, persistVersion)
	}
	if meta.Fn != int(ix.fn) || meta.Theta != ix.theta {
		return errors.New("meta disagrees with fingerprint")
	}
	tokStr, ok := vals["tokens"].([]string)
	if !ok {
		return errors.New("missing tokens record")
	}
	recOff, ok := vals["recoff"].([]int)
	if !ok {
		return errors.New("missing recoff record")
	}
	recTok, ok := vals["rectok"].([]uint32)
	if !ok {
		return errors.New("missing rectok record")
	}
	recRID, ok := vals["recrid"].([]int32)
	if !ok {
		return errors.New("missing recrid record")
	}
	deleted, ok := vals["deleted"].([]int32)
	if !ok {
		return errors.New("missing deleted record")
	}
	logRIDs, ok := vals["logrid"].([]int32)
	if !ok {
		return errors.New("missing logrid record")
	}
	if meta.LogN != len(logRIDs) {
		return errors.New("log count disagrees with logrid")
	}

	// Token table: strings must be unique (the rank map inverts them).
	tokRank := make(map[string]uint32, len(tokStr))
	for r, s := range tokStr {
		if _, dup := tokRank[s]; dup {
			return fmt.Errorf("duplicate token %q", s)
		}
		tokRank[s] = uint32(r)
	}

	// Every stored record, base or side-log: ranks inside the table and
	// strictly increasing, rid unique.
	maxRID := int32(-1)
	seenRID := make(map[int32]bool, len(recRID)+len(logRIDs))
	checkRecord := func(what string, i int, rid int32, ts []uint32) error {
		for j, t := range ts {
			if int(t) >= len(tokStr) {
				return fmt.Errorf("%s %d rank %d outside token table", what, i, t)
			}
			if j > 0 && ts[j-1] >= t {
				return fmt.Errorf("%s %d tokens not strictly increasing", what, i)
			}
		}
		if seenRID[rid] {
			return fmt.Errorf("duplicate rid %d", rid)
		}
		seenRID[rid] = true
		maxRID = max(maxRID, rid)
		return nil
	}

	// CSR shape: monotone offsets bracketing rectok.
	if len(recOff) == 0 || recOff[0] != 0 || recOff[len(recOff)-1] != len(recTok) {
		return errors.New("recoff does not bracket rectok")
	}
	if len(recRID) != len(recOff)-1 {
		return errors.New("recrid length disagrees with recoff")
	}
	recs := make([]baseRec, len(recRID))
	for s := range recRID {
		lo, hi := recOff[s], recOff[s+1]
		if lo > hi || hi > len(recTok) {
			return fmt.Errorf("recoff not monotone at slot %d", s)
		}
		if err := checkRecord("slot", s, recRID[s], recTok[lo:hi]); err != nil {
			return err
		}
		recs[s] = baseRec{rid: recRID[s], toks: recTok[lo:hi]}
	}

	// Rebuild derived structure (postings, signatures, maps) from the
	// validated records, then replay the overlay the way mutations build it.
	ix.tokStr = tokStr
	ix.tokRank = tokRank
	ix.assemble(recs)

	for _, rid := range deleted {
		if err := ix.applyDeleteLocked(rid); err != nil {
			return fmt.Errorf("tombstone: %w", err)
		}
	}
	for i, rid := range logRIDs {
		ts, ok := vals[logKey(i)].([]uint32)
		if !ok {
			return fmt.Errorf("missing log record %d", i)
		}
		if err := checkRecord("log", i, rid, ts); err != nil {
			return err
		}
		ix.admitLocked(rid, ts)
	}
	if meta.NextRID <= maxRID {
		return fmt.Errorf("next_rid %d not past max rid %d", meta.NextRID, maxRID)
	}
	ix.nextRID = meta.NextRID

	ix.probes.Store(snap.Manifest.Counters[CtrProbes])
	ix.candidates.Store(snap.Manifest.Counters[CtrCandidates])
	ix.hits.Store(snap.Manifest.Counters[CtrHits])
	ix.compactions.Store(snap.Manifest.Counters[CtrCompactions])
	ix.autoCompactions.Store(snap.Manifest.Counters[CtrCompactions+".auto"])
	ix.walAppends.Store(snap.Manifest.Counters[CtrWALAppends])
	ix.walSynced.Store(snap.Manifest.Counters[CtrWALSyncedBytes])
	return nil
}
