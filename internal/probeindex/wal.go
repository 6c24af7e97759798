// Write-ahead log for probe-index mutations (DESIGN.md §14). The snapshot
// (persist.go) is the durable base; every acknowledged Insert/Delete after
// the snapshot is appended here as one section of a framed log
// (internal/frame, DESIGN.md §16), so a crash of a long-lived server loses
// nothing it acknowledged. Records are *logical* — token strings and rids,
// never ranks or slots — so a replay is independent of the in-memory
// layout and stays valid even after the live index compacts without
// managing to write its next snapshot.
//
// File wal.g<gen>, next to the snapshot generations:
//
//	header:  generation and serving-configuration fingerprint (walBinding)
//	section: op byte (1=insert, 2=delete) · uvarint rid
//	         · insert only: uvarint n · n × (uvarint len · token bytes)
//
// The header binds the log to one snapshot generation and serving
// configuration: wal.g3 can never replay onto snapshot g4, and a log
// written under another θ is ignored wholesale. Replay walks sections until
// the first torn or invalid one and truncates the file there
// (truncate-to-last-valid): the tail of a crashed append is never trusted,
// and recovery yields exactly the durable prefix of acknowledged
// mutations.
package probeindex

import (
	"encoding/binary"
	"errors"
	"fmt"
	"path/filepath"
	"time"

	"fsjoin/internal/frame"
	"fsjoin/internal/spill"
)

// WAL op codes.
const (
	walOpInsert byte = 1
	walOpDelete byte = 2
)

// SyncMode selects when WAL appends reach stable storage.
type SyncMode int

const (
	// SyncAlways fsyncs every append before the mutation is acknowledged:
	// an acknowledged mutation survives power loss. The fsync sits on the
	// mutation path (and, since mutations hold the index write lock, briefly
	// blocks probes).
	SyncAlways SyncMode = iota
	// SyncInterval group-commits: appends are written immediately but
	// fsynced at most once per Interval (opportunistically on the next
	// append, and from Maintain). A crash can lose up to Interval of
	// acknowledged mutations — never reorder or corrupt them.
	SyncInterval
	// SyncNever leaves syncing to the OS (and to Close/compaction, which
	// always sync). Fastest; weakest.
	SyncNever
)

// String implements fmt.Stringer.
func (m SyncMode) String() string {
	switch m {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNever:
		return "never"
	default:
		return fmt.Sprintf("SyncMode(%d)", int(m))
	}
}

// SyncPolicy is a SyncMode plus its interval.
type SyncPolicy struct {
	Mode SyncMode
	// Interval is the maximum age of unsynced appends under SyncInterval;
	// 0 defaults to 100ms. Ignored by the other modes.
	Interval time.Duration
}

func (p SyncPolicy) validate() error {
	switch p.Mode {
	case SyncAlways, SyncInterval, SyncNever:
	default:
		return fmt.Errorf("probeindex: unknown sync mode %d", int(p.Mode))
	}
	if p.Interval < 0 {
		return fmt.Errorf("probeindex: negative sync interval %v", p.Interval)
	}
	return nil
}

func (p SyncPolicy) interval() time.Duration {
	if p.Interval > 0 {
		return p.Interval
	}
	return 100 * time.Millisecond
}

// WALError is the typed failure of a durable mutation: the WAL append or
// fsync failed, so the mutation was NOT applied and NOT acknowledged. The
// log is marked broken — every later mutation fails the same way until the
// index is reopened — because a partially written frame makes the tail
// position untrustworthy.
type WALError struct {
	// Op is the failing operation ("append", "sync", "create", "rotate").
	Op string
	// Err is the underlying failure.
	Err error
}

// Error implements error.
func (e *WALError) Error() string {
	return fmt.Sprintf("probeindex: wal %s: %v", e.Op, e.Err)
}

// Unwrap exposes the cause.
func (e *WALError) Unwrap() error { return e.Err }

// errWALBroken poisons a log after its first write failure.
var errWALBroken = errors.New("log broken by an earlier write failure; reopen the index")

// wal is one open, appendable log generation. All methods are called with
// the owning Index's write lock held, so the struct needs no locking of
// its own.
type wal struct {
	log    *frame.Log
	policy SyncPolicy
	broken bool

	pending  int64 // bytes appended since the last successful sync
	acked    int64 // file size covering only acknowledged appends
	lastSync time.Time
}

// walName names generation gen's log file.
func walName(gen int) string { return fmt.Sprintf("wal.g%08d", gen) }

// walPath names generation gen's log file inside dir.
func walPath(dir string, gen int) string { return filepath.Join(dir, walName(gen)) }

// walBinding is the log header: the snapshot generation and serving
// configuration the log's mutations apply to.
func walBinding(gen int, fingerprint string) []byte {
	return fmt.Appendf(nil, "probeindex-wal gen=%d fp=%s", gen, fingerprint)
}

// createWAL publishes a fresh, empty log for generation gen; the log
// itself survives a crash that follows.
func createWAL(dir string, gen int, fingerprint string, policy SyncPolicy) (*wal, error) {
	log, err := frame.CreateLog(dir, walName(gen), walBinding(gen, fingerprint))
	if err != nil {
		return nil, &WALError{Op: "create", Err: err}
	}
	return &wal{log: log, policy: policy, acked: log.Size(), lastSync: time.Now()}, nil
}

// poison marks the log unusable after a failed append or sync and makes a
// best effort to erase the unacknowledged tail: the file is truncated back
// to the last acknowledged frame, so even if the failing write reached the
// platter, recovery cannot surface a mutation whose caller saw an error.
// The broken flag stays set regardless — after an I/O failure the file
// state is unknowable, so no further append is trusted until reopen.
func (w *wal) poison() {
	w.broken = true
	_ = w.log.Truncate(w.acked)
}

// append writes one op as a log section and applies the sync policy.
// synced reports how many buffered bytes an fsync made durable (0 when the
// policy deferred it). On any failure the log is poisoned: the tail may
// hold a torn section, so no further append can be trusted to land at a
// valid offset — recovery (replay + truncate) is the only way back.
func (w *wal) append(op []byte) (synced int64, err error) {
	if w.broken {
		return 0, &WALError{Op: "append", Err: errWALBroken}
	}
	n, err := w.log.Append(op)
	if err != nil {
		w.poison()
		return 0, &WALError{Op: "append", Err: err}
	}
	w.pending += n
	deferred := w.policy.Mode == SyncNever ||
		w.policy.Mode == SyncInterval && time.Since(w.lastSync) < w.policy.interval()
	if !deferred {
		if err := w.log.Sync(); err != nil {
			w.poison()
			return 0, &WALError{Op: "sync", Err: err}
		}
		w.lastSync = time.Now()
		synced, w.pending = w.pending, 0
	}
	w.acked += n
	return synced, nil
}

// flush syncs any pending appends (interval mode's group commit; also the
// final sync in Close). Returns the bytes made durable.
func (w *wal) flush() (int64, error) {
	if w.broken {
		return 0, &WALError{Op: "sync", Err: errWALBroken}
	}
	if w.pending == 0 {
		return 0, nil
	}
	if err := w.log.Sync(); err != nil {
		w.broken = true
		return 0, &WALError{Op: "sync", Err: err}
	}
	w.lastSync = time.Now()
	synced := w.pending
	w.pending = 0
	return synced, nil
}

// close syncs (best effort when already broken) and closes the file.
func (w *wal) close() error {
	var err error
	if !w.broken {
		_, err = w.flush()
	}
	if cerr := w.log.Close(); err == nil {
		err = cerr
	}
	return err
}

// encodeInsert renders one acknowledged Insert.
func encodeInsert(rid int32, set []string) []byte {
	p := []byte{walOpInsert}
	p = binary.AppendUvarint(p, uint64(uint32(rid)))
	p = binary.AppendUvarint(p, uint64(len(set)))
	for _, tok := range set {
		p = binary.AppendUvarint(p, uint64(len(tok)))
		p = append(p, tok...)
	}
	return p
}

// encodeDelete renders one acknowledged Delete.
func encodeDelete(rid int32) []byte {
	return binary.AppendUvarint([]byte{walOpDelete}, uint64(uint32(rid)))
}

// walOp is one decoded frame.
type walOp struct {
	op  byte
	rid int32
	set []string // insert only
}

// decodeFrame parses one payload. Errors mean corruption: the caller
// truncates at this frame.
func decodeFrame(payload []byte) (walOp, error) {
	d := spill.NewDec(payload)
	op := d.Byte()
	rid := int32(uint32(d.Uvarint()))
	var out walOp
	switch op {
	case walOpInsert:
		n := d.Uvarint()
		if d.Err() != nil || n > uint64(len(payload)) {
			return out, errors.New("bad insert token count")
		}
		set := make([]string, 0, n)
		for i := uint64(0); i < n; i++ {
			set = append(set, d.String())
		}
		if d.Err() != nil || d.Rest() != 0 {
			return out, errors.New("bad insert frame")
		}
		return walOp{op: op, rid: rid, set: set}, nil
	case walOpDelete:
		if d.Err() != nil || d.Rest() != 0 {
			return out, errors.New("bad delete frame")
		}
		return walOp{op: op, rid: rid}, nil
	default:
		return out, fmt.Errorf("unknown op %d", op)
	}
}

// replayWAL applies every valid op of generation gen's log in order
// through apply (frame.ReplayLog: the first torn or invalid section ends
// the replay and the file is truncated there). An op that does not decode
// or that apply refuses is corruption too — a logical op that cannot apply
// was never acknowledged in this history: same truncation. Missing file:
// zero ops, no error. A log that cannot be read or whose header does not
// bind to this snapshot and configuration is an error, and none of it is
// replayed — it belongs to another index state.
func replayWAL(dir string, gen int, fingerprint string, apply func(walOp) error) (replayed int64, truncated bool, err error) {
	return frame.ReplayLog(walPath(dir, gen), walBinding(gen, fingerprint), func(payload []byte) error {
		op, err := decodeFrame(payload)
		if err != nil {
			return err
		}
		return apply(op)
	})
}
