// Package frame is the one module that knows how a durable file is laid
// out, published and read back (DESIGN.md §16). Checkpoint snapshots, the
// probe-index snapshot and the probe-index write-ahead log are all framed
// files:
//
//	"FSFRAME1"                      magic; the last byte is the version
//	section 0                       the header: the owner's binding (fingerprint, …)
//	sections 1..n                   the owner's payloads
//	0xFFFFFFFF · u32le n            end marker — closed files only, a log has none
//
//	section = u32le len · u32le crc32c(payload) · payload, 1 ≤ len ≤ 64 MiB
//
// A closed file is written by Publish (temp in the same directory → write →
// fsync → close → rename → fsync the directory) and read by Read, which
// checks every byte before it hands out a payload. A Log is the same file
// without the end marker, appended to in place; ReplayLog walks it to the
// last valid section and truncates what follows. What the sections mean is
// the owner's business; Writer.Record and File.Records cover the one
// payload all owners share, a stream of shuffle records in
// spill.AppendRecord's form that may run across sections, so no record is
// too large to write.
package frame

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"

	"fsjoin/internal/spill"
)

const (
	magic   = "FSFRAME1"
	endMark = 0xFFFFFFFF

	// maxSection bounds a section payload. A longer length field is
	// corruption, so a fabricated one can never size an allocation.
	maxSection = 64 << 20

	// TempPrefix names every in-flight Publish; SweepTemps removes what
	// writers that died left behind.
	TempPrefix = ".tmp-frame-"

	// chunkBytes is where Record closes a section of records.
	chunkBytes = 1 << 20

	// A record section opens with one of these: recLast when it ends on a
	// record boundary, recMore when its bytes continue in the next section.
	recLast, recMore = 0, 1
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Test seams, nil in production. The kill hook is called with the name of
// every durability boundary ("save.start" once the temp file exists,
// "save.synced" before the rename, "save.renamed" after it,
// "wal.append.pre" and "wal.append.mid" around a log write — the names the
// checkpoint and WAL crash matrices have always used — and whatever owners
// pass to Kill); crash harnesses panic or exit from it. The fail
// hook is consulted before every write and fsync of a framed file (op
// "write" or "sync", name the file's final base name) and its error is
// returned in place of doing the operation.
var (
	killHook func(point string)
	failHook func(op, name string) error
)

// SetKillHook installs (or, with nil, removes) the kill-point hook.
func SetKillHook(fn func(point string)) { killHook = fn }

// SetFailHook installs (or, with nil, removes) the write/sync failure hook.
func SetFailHook(fn func(op, name string) error) { failHook = fn }

// Kill marks a named durability boundary of a protocol built on framed
// files, so one hook covers the envelope's boundaries and its owners'.
func Kill(point string) {
	if killHook != nil {
		killHook(point)
	}
}

// hooked is a framed file being written; every write and fsync passes the
// fail hook under the file's final name.
type hooked struct {
	f    *os.File
	name string
}

func (h hooked) Write(p []byte) (int, error) {
	if failHook != nil {
		if err := failHook("write", h.name); err != nil {
			return 0, err
		}
	}
	return h.f.Write(p)
}

func (h hooked) Sync() error {
	if failHook != nil {
		if err := failHook("sync", h.name); err != nil {
			return err
		}
	}
	return h.f.Sync()
}

// prefix is the length and checksum words that open a section.
func prefix(payload []byte) (pre [8]byte) {
	binary.LittleEndian.PutUint32(pre[:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(pre[4:], crc32.Checksum(payload, castagnoli))
	return pre
}

func checkSize(n int) error {
	if n < 1 || n > maxSection {
		return fmt.Errorf("frame: section of %d bytes (want 1..%d)", n, maxSection)
	}
	return nil
}

// Writer fills a file inside Publish.
type Writer struct {
	bw    *bufio.Writer
	n     int    // sections written, header included
	chunk []byte // flag byte and records not yet closed into a section
	limit int    // maxSection; where flush cuts a longer chunk
}

// Section writes one payload section, after any pending records.
func (w *Writer) Section(payload []byte) error {
	if err := w.flush(); err != nil {
		return err
	}
	return w.put(payload)
}

func (w *Writer) put(payload []byte) error {
	if err := checkSize(len(payload)); err != nil {
		return err
	}
	pre := prefix(payload)
	if _, err := w.bw.Write(pre[:]); err != nil {
		return err
	}
	_, err := w.bw.Write(payload)
	w.n++
	return err
}

// Record adds one shuffle record; records are packed into sections of
// about a megabyte that File.Records decodes. A value with no codec fails
// it with spill.ErrNoCodec.
func (w *Writer) Record(key string, v any) error {
	if len(w.chunk) == 0 {
		w.chunk = append(w.chunk, recLast)
	}
	chunk, err := spill.AppendRecord(w.chunk, key, v)
	if err != nil {
		return fmt.Errorf("frame: %w", err)
	}
	if w.chunk = chunk; len(chunk) >= chunkBytes {
		return w.flush()
	}
	return nil
}

// flush closes the pending records into a section, so that what follows
// starts a new one — or into several when a record is longer than a
// section may be: every piece but the last is full and flagged recMore.
func (w *Writer) flush() error {
	b := w.chunk
	w.chunk = w.chunk[:0]
	for len(b) > w.limit {
		b[0] = recMore
		if err := w.put(b[:w.limit]); err != nil {
			return err
		}
		// The piece's last byte is written; its slot holds the next flag.
		b = b[w.limit-1:]
		b[0] = recLast
	}
	if len(b) == 0 {
		return nil
	}
	return w.put(b)
}

// Publish atomically and durably makes dir/name a closed framed file with
// the given header and whatever fill writes: readers see the old file or
// the whole new one, no error path leaves the temp file behind, and two
// fsyncs (file before the rename, directory after) make the publish
// survive power loss.
func Publish(dir, name string, header []byte, fill func(*Writer) error) error {
	return publish(dir, name, header, true, fill)
}

func publish(dir, name string, header []byte, closed bool, fill func(*Writer) error) (err error) {
	f, err := os.CreateTemp(dir, TempPrefix+"*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(tmp)
		}
	}()
	Kill("save.start")
	h := hooked{f, name}
	w := &Writer{bw: bufio.NewWriterSize(h, 64<<10), limit: maxSection}
	w.bw.WriteString(magic)
	if err = w.put(header); err == nil && fill != nil {
		if err = fill(w); err == nil {
			err = w.flush()
		}
	}
	if err == nil && closed {
		var end [8]byte
		binary.LittleEndian.PutUint32(end[:4], endMark)
		binary.LittleEndian.PutUint32(end[4:], uint32(w.n-1))
		_, err = w.bw.Write(end[:])
	}
	if err == nil {
		err = w.bw.Flush()
	}
	if err == nil {
		err = h.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	Kill("save.synced")
	if err = os.Rename(tmp, filepath.Join(dir, name)); err != nil {
		return err
	}
	Kill("save.renamed")
	return SyncDir(dir)
}

// SyncDir fsyncs a directory so a created or renamed entry survives a
// crash. Filesystems that refuse to sync directories are tolerated (their
// rename durability is their own contract).
func SyncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if errors.Is(err, os.ErrInvalid) || errors.Is(err, os.ErrPermission) {
		return nil
	}
	return err
}

// SweepTemps removes in-flight temp files in dir — and, when recursive, in
// every directory below it, which is only safe once nothing underneath is
// still publishing — leaving published files in place. A missing dir, or an
// entry that vanishes during the walk, is not an error.
func SweepTemps(dir string, recursive bool) error {
	return filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if os.IsNotExist(err) {
			return nil
		}
		if err != nil {
			return err
		}
		if d.IsDir() {
			if !recursive && path != dir {
				return filepath.SkipDir
			}
		} else if strings.HasPrefix(d.Name(), TempPrefix) {
			os.Remove(path)
		}
		return nil
	})
}

// Section locates one validated payload inside its file.
type Section struct {
	Off, Len int64
	Sum      uint32
}

func (s Section) of(data []byte) []byte { return data[s.Off : s.Off+s.Len] }

// File is a validated closed file.
type File struct {
	Header   []byte
	Sections []Section // payload sections, header excluded
	data     []byte
}

// Payload returns section i's bytes, valid as long as the File.
func (f *File) Payload(i int) []byte { return f.Sections[i].of(f.data) }

// scan walks an image's sections, header first, up to the first one that
// is torn, outside the size guard or fails its checksum, and returns them
// with the offset it stopped at. An image without the magic has none.
func scan(data []byte) (secs []Section, off int) {
	if !bytes.HasPrefix(data, []byte(magic)) {
		return nil, 0
	}
	off = len(magic)
	for len(data)-off >= 8 {
		n := binary.LittleEndian.Uint32(data[off:])
		s := Section{Off: int64(off) + 8, Len: int64(n), Sum: binary.LittleEndian.Uint32(data[off+4:])}
		if n < 1 || n > maxSection || int(n) > len(data)-off-8 || crc32.Checksum(s.of(data), castagnoli) != s.Sum {
			break
		}
		secs, off = append(secs, s), int(s.Off+s.Len)
	}
	return secs, off
}

// Read reads and validates the closed file at path.
func Read(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Parse(data)
}

// Parse validates a closed file's image: magic, every section's bounds and
// checksum, the end marker's section count, and nothing after it. A torn,
// truncated, extended or bit-flipped image is an error, never a File.
func Parse(data []byte) (*File, error) {
	secs, off := scan(data)
	if len(secs) == 0 || len(data)-off != 8 ||
		binary.LittleEndian.Uint32(data[off:]) != endMark ||
		binary.LittleEndian.Uint32(data[off+4:]) != uint32(len(secs)-1) {
		return nil, fmt.Errorf("frame: invalid or incomplete file at offset %d", off)
	}
	return &File{Header: secs[0].of(data), Sections: secs[1:], data: data}, nil
}

// Records decodes the payload sections as one stream of records written
// through Writer.Record, and reports how many records it emitted. A torn
// record, trailing bytes or a stream that stops inside a record is an error.
func (f *File) Records(emit func(key string, v any)) (n int64, err error) {
	var carry []byte // the bytes of recMore sections, until the section that ends them
	for _, s := range f.Sections {
		p := s.of(f.data)
		if len(p) == 0 || p[0] > recMore {
			return n, errors.New("frame: not a record section")
		}
		more, body := p[0] == recMore, p[1:]
		if more || len(carry) > 0 {
			carry = append(carry, body...)
			if more {
				continue
			}
			body, carry = carry, nil
		}
		for d := spill.NewDec(body); d.Rest() > 0; n++ {
			key, v := d.Record()
			if d.Err() != nil {
				return n, d.Err()
			}
			emit(key, v)
		}
	}
	if len(carry) > 0 {
		return n, errors.New("frame: record stream ends inside a record")
	}
	return n, nil
}

// Log is an open framed file being appended to: header, then sections, no
// end marker. It does not lock; its owner serialises calls.
type Log struct {
	f    hooked
	path string
	size int64
	buf  []byte
}

// CreateLog publishes a fresh log holding only its header (durably — the
// log exists after a crash that follows) and opens it for appending.
func CreateLog(dir, name string, header []byte) (*Log, error) {
	if err := publish(dir, name, header, false, nil); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, name)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		os.Remove(path)
		SyncDir(dir)
		return nil, err
	}
	return &Log{f: hooked{f, name}, path: path, size: int64(len(magic) + 8 + len(header))}, nil
}

// Size returns the bytes written so far, header included.
func (l *Log) Size() int64 { return l.size }

// Append writes one section in a single write and returns its size on
// disk. It does not sync.
func (l *Log) Append(payload []byte) (int64, error) {
	if err := checkSize(len(payload)); err != nil {
		return 0, err
	}
	pre := prefix(payload)
	l.buf = append(append(l.buf[:0], pre[:]...), payload...)
	Kill("wal.append.pre")
	var err error
	if killHook != nil {
		// Two writes with a kill point between them, so a harness can die
		// with a torn section on disk.
		h := len(l.buf) / 2
		if _, err = l.f.Write(l.buf[:h]); err == nil {
			Kill("wal.append.mid")
			_, err = l.f.Write(l.buf[h:])
		}
	} else {
		_, err = l.f.Write(l.buf)
	}
	if err != nil {
		return 0, err
	}
	l.size += int64(len(l.buf))
	return int64(len(l.buf)), nil
}

// Sync makes every appended section durable.
func (l *Log) Sync() error { return l.f.Sync() }

// Truncate cuts the file back to size bytes — how an owner erases a tail
// it never acknowledged.
func (l *Log) Truncate(size int64) error {
	l.size = min(l.size, size)
	return os.Truncate(l.path, size)
}

// Close closes the file without syncing.
func (l *Log) Close() error { return l.f.f.Close() }

// ReplayLog reads the log at path, whose header must equal header, and
// hands every valid section to visit in order. The first section that is
// torn, oversized, fails its checksum or is refused by visit ends the
// replay, and the file is truncated there (best effort: a read-only reopen
// still recovers the valid prefix), so a later append continues from a
// trustworthy tail. It returns the number of sections replayed and whether
// a tail was cut. A missing file replays nothing; a file that cannot be
// read, is not a log or carries another header is an error and is left
// untouched.
func ReplayLog(path string, header []byte, visit func(payload []byte) error) (n int64, truncated bool, err error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return 0, false, nil
	}
	if err != nil {
		return 0, false, err
	}
	secs, _ := scan(data)
	if len(secs) == 0 || !bytes.Equal(secs[0].of(data), header) {
		return 0, false, errors.New("frame: not a log, or the log of another owner")
	}
	end := secs[0].Off + secs[0].Len
	for _, s := range secs[1:] {
		if visit(s.of(data)) != nil {
			break
		}
		end = s.Off + s.Len
		n++
	}
	if end < int64(len(data)) {
		truncated = true
		_ = os.Truncate(path, end)
	}
	return n, truncated, nil
}
