// Write-ahead log for probe-index mutations (DESIGN.md §14). The snapshot
// (persist.go) is the durable base; every acknowledged Insert/Delete after
// the snapshot is appended here as one length-prefixed, CRC-framed record,
// so a crash of a long-lived server loses nothing it acknowledged. Records
// are *logical* — token strings and rids, never ranks or slots — so a
// replay is independent of the in-memory layout and stays valid even after
// the live index compacts without managing to write its next snapshot.
//
// File layout (wal.g<gen> next to the snapshot generations):
//
//	magic "FSWAL001"
//	header: uvarint gen · uvarint len(fingerprint) · fingerprint
//	        · crc32c(header)
//	frames: u32le len(payload) · u32le crc32c(payload) · payload
//	payload: op byte (1=insert, 2=delete) · uvarint rid
//	         · insert only: uvarint n · n × (uvarint len · token bytes)
//
// The header binds the log to one snapshot generation and serving
// configuration: wal.g3 can never replay onto snapshot g4, and a log
// written under another θ is ignored wholesale. Replay walks frames until
// the first torn or invalid one and truncates the file there
// (truncate-to-last-valid): the tail of a crashed append is never trusted,
// and recovery yields exactly the durable prefix of acknowledged
// mutations.
package probeindex

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"time"

	"fsjoin/internal/checkpoint"
	"fsjoin/internal/spill"
)

// walMagic opens every WAL file; the trailing digits are the format
// version and must change whenever the header or frame layout does.
const walMagic = "FSWAL001"

// walMaxFrame bounds a frame payload; a length prefix beyond it is treated
// as corruption, so fabricated lengths cannot force huge allocations.
const walMaxFrame = 64 << 20

// WAL op codes.
const (
	walOpInsert byte = 1
	walOpDelete byte = 2
)

// crcTable is the Castagnoli table shared by header and frame checksums.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

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

// killHook, when non-nil, is invoked at every durability boundary with a
// named kill point; the crash-kill harness sets it to panic mid-protocol
// and then reopens the directory to prove recovery. Test-only: nil in
// production, so the hot path pays one predictable branch.
var killHook func(point string)

func kill(point string) {
	if killHook != nil {
		killHook(point)
	}
}

// testWALErr, when non-nil, injects a failure into WAL file operations
// (op is "write" or "sync"). Test-only.
var testWALErr func(op string) error

// wal is one open, appendable log generation. All methods are called with
// the owning Index's write lock held, so the struct needs no locking of
// its own.
type wal struct {
	f      *os.File
	path   string
	policy SyncPolicy
	broken bool

	pending  int64 // bytes appended since the last successful sync
	acked    int64 // file size covering only acknowledged appends
	lastSync time.Time
}

// walPath names generation gen's log file inside dir.
func walPath(dir string, gen int) string {
	return filepath.Join(dir, fmt.Sprintf("wal.g%08d", gen))
}

// walHeader renders the file header (magic through header CRC).
func walHeader(gen int, fingerprint string) []byte {
	buf := []byte(walMagic)
	var body []byte
	body = binary.AppendUvarint(body, uint64(gen))
	body = binary.AppendUvarint(body, uint64(len(fingerprint)))
	body = append(body, fingerprint...)
	buf = append(buf, body...)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(body, crcTable))
	return buf
}

// createWAL writes a fresh, empty log for generation gen, syncing the file
// and its directory so the log itself survives a crash that follows.
func createWAL(dir string, gen int, fingerprint string, policy SyncPolicy) (*wal, error) {
	path := walPath(dir, gen)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o600)
	if err != nil {
		return nil, &WALError{Op: "create", Err: err}
	}
	if _, err := f.Write(walHeader(gen, fingerprint)); err == nil {
		err = f.Sync()
	} else {
		f.Close()
		os.Remove(path)
		return nil, &WALError{Op: "create", Err: err}
	}
	if err := checkpoint.SyncDir(dir); err != nil {
		f.Close()
		os.Remove(path)
		return nil, &WALError{Op: "create", Err: err}
	}
	return &wal{f: f, path: path, policy: policy, acked: int64(len(walHeader(gen, fingerprint))), lastSync: time.Now()}, nil
}

// write appends raw bytes, honouring the injected-failure hook.
func (w *wal) write(b []byte) error {
	if testWALErr != nil {
		if err := testWALErr("write"); err != nil {
			return err
		}
	}
	_, err := w.f.Write(b)
	return err
}

// sync flushes the file, honouring the injected-failure hook.
func (w *wal) sync() error {
	if testWALErr != nil {
		if err := testWALErr("sync"); err != nil {
			return err
		}
	}
	return w.f.Sync()
}

// poison marks the log unusable after a failed append or sync and makes a
// best effort to erase the unacknowledged tail: the file is truncated back
// to the last acknowledged frame, so even if the failing write reached the
// platter, recovery cannot surface a mutation whose caller saw an error.
// The broken flag stays set regardless — after an I/O failure the file
// state is unknowable, so no further append is trusted until reopen.
func (w *wal) poison() {
	w.broken = true
	_ = os.Truncate(w.path, w.acked)
}

// append writes one framed record and applies the sync policy. synced
// reports how many buffered bytes an fsync made durable (0 when the policy
// deferred it). On any failure the log is poisoned: the tail may hold a
// torn frame, so no further append can be trusted to land at a valid
// offset — recovery (replay + truncate) is the only way back.
func (w *wal) append(frame []byte) (synced int64, err error) {
	if w.broken {
		return 0, &WALError{Op: "append", Err: errWALBroken}
	}
	kill("wal.append.pre")
	if killHook != nil && len(frame) > 1 {
		// Two writes with a kill point between them, so the harness can die
		// with a genuinely torn frame on disk.
		h := len(frame) / 2
		if err = w.write(frame[:h]); err == nil {
			kill("wal.append.mid")
			err = w.write(frame[h:])
		}
	} else {
		err = w.write(frame)
	}
	if err != nil {
		w.poison()
		return 0, &WALError{Op: "append", Err: err}
	}
	w.pending += int64(len(frame))

	switch w.policy.Mode {
	case SyncAlways:
		if err := w.sync(); err != nil {
			w.poison()
			return 0, &WALError{Op: "sync", Err: err}
		}
	case SyncInterval:
		if time.Since(w.lastSync) < w.policy.interval() {
			w.acked += int64(len(frame))
			return 0, nil
		}
		if err := w.sync(); err != nil {
			w.poison()
			return 0, &WALError{Op: "sync", Err: err}
		}
	case SyncNever:
		w.acked += int64(len(frame))
		return 0, nil
	}
	w.lastSync = time.Now()
	w.acked += int64(len(frame))
	synced, w.pending = w.pending, 0
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
	if err := w.sync(); err != nil {
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
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// encodeInsertFrame frames one acknowledged Insert.
func encodeInsertFrame(rid int32, set []string) []byte {
	var p []byte
	p = append(p, walOpInsert)
	p = binary.AppendUvarint(p, uint64(uint32(rid)))
	p = binary.AppendUvarint(p, uint64(len(set)))
	for _, tok := range set {
		p = binary.AppendUvarint(p, uint64(len(tok)))
		p = append(p, tok...)
	}
	return frameBytes(p)
}

// encodeDeleteFrame frames one acknowledged Delete.
func encodeDeleteFrame(rid int32) []byte {
	var p []byte
	p = append(p, walOpDelete)
	p = binary.AppendUvarint(p, uint64(uint32(rid)))
	return frameBytes(p)
}

func frameBytes(payload []byte) []byte {
	buf := make([]byte, 0, 8+len(payload))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(payload, crcTable))
	return append(buf, payload...)
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

// walReplayResult summarises one replay.
type walReplayResult struct {
	// replayed counts frames applied.
	replayed int64
	// truncated counts invalid tails dropped (0 or 1 per file; the torn
	// tail is one undecodable region, not a countable number of frames).
	truncated int64
	// validSize is the offset of the last valid byte; the file is
	// truncated to it when it is shorter than the file.
	validSize int64
}

// errWALHeader reports a log whose header does not match the snapshot it
// sits next to (wrong magic, generation, or fingerprint): the whole file
// is ignored — it belongs to another index state and replaying any of it
// would mix generations.
var errWALHeader = errors.New("wal header mismatch")

// replayWAL reads path and applies every valid frame in order through
// apply. The first torn or invalid frame ends the replay and the file is
// truncated to the end of the last valid one, so a later append continues
// from a trustworthy tail. An apply error is corruption too (a logical op
// that cannot apply was never acknowledged in this history): same
// truncation. Missing file: zero ops, no error.
func replayWAL(path string, gen int, fingerprint string, apply func(walOp) error) (walReplayResult, error) {
	var res walReplayResult
	raw, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return res, nil
	}
	if err != nil {
		return res, &WALError{Op: "read", Err: err}
	}

	// Header: magic, gen, fingerprint, CRC.
	if len(raw) < len(walMagic) || string(raw[:len(walMagic)]) != walMagic {
		return res, errWALHeader
	}
	body := raw[len(walMagic):]
	d := spill.NewDec(body)
	hgen := d.Uvarint()
	fpLen := d.Uvarint()
	if d.Err() != nil || fpLen > uint64(d.Rest()) {
		return res, errWALHeader
	}
	headerLen := len(body) - d.Rest() + int(fpLen)
	if headerLen+4 > len(body) {
		return res, errWALHeader
	}
	fp := string(body[len(body)-d.Rest() : headerLen])
	gotCRC := binary.LittleEndian.Uint32(body[headerLen : headerLen+4])
	if crc32.Checksum(body[:headerLen], crcTable) != gotCRC {
		return res, errWALHeader
	}
	if hgen != uint64(gen) || fp != fingerprint {
		return res, errWALHeader
	}
	off := len(walMagic) + headerLen + 4
	res.validSize = int64(off)

	// Frames: stop at the first torn or invalid one.
	for off < len(raw) {
		if off+8 > len(raw) {
			break // torn length/CRC prefix
		}
		plen := binary.LittleEndian.Uint32(raw[off : off+4])
		pcrc := binary.LittleEndian.Uint32(raw[off+4 : off+8])
		if plen == 0 || plen > walMaxFrame || off+8+int(plen) > len(raw) {
			break // impossible or torn payload
		}
		payload := raw[off+8 : off+8+int(plen)]
		if crc32.Checksum(payload, crcTable) != pcrc {
			break // bit rot or torn write inside the payload
		}
		op, err := decodeFrame(payload)
		if err != nil {
			break
		}
		if err := apply(op); err != nil {
			break // logically impossible op: not part of this history
		}
		off += 8 + int(plen)
		res.replayed++
		res.validSize = int64(off)
	}
	if int64(len(raw)) > res.validSize {
		res.truncated = 1
		// Best effort: a read-only reopen still recovered the valid prefix
		// even when the truncate itself cannot be persisted.
		_ = os.Truncate(path, res.validSize)
	}
	return res, nil
}
