package spill

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// A run is one spill file: every partition's records in partition order,
// each partition's slice sorted by key (stable, so equal keys keep their
// emission order). Records are in AppendRecord's form, and a per-partition
// segment index (offset, end, record count) kept in memory lets each
// reduce task read exactly its partition's byte range through an
// independent SectionReader.
type run struct {
	f    *os.File
	segs []segment
}

type segment struct {
	off     int64
	end     int64
	records int64
}

// close removes the run's file. Safe to call once per run.
func (r *run) close() {
	if r.f == nil {
		return
	}
	name := r.f.Name()
	r.f.Close()
	os.Remove(name)
	r.f = nil
}

// runWriter streams one run to disk. Partitions must be written in
// non-decreasing order.
type runWriter struct {
	f       *os.File
	w       *bufio.Writer
	off     int64
	segs    []segment
	scratch []byte
}

func newRunWriter(dir string, seq, parts int) (*runWriter, error) {
	f, err := os.OpenFile(filepath.Join(dir, fmt.Sprintf("run-%06d", seq)),
		os.O_CREATE|os.O_EXCL|os.O_RDWR, 0o600)
	if err != nil {
		return nil, err
	}
	return &runWriter{f: f, w: bufio.NewWriterSize(f, 64<<10), segs: make([]segment, parts)}, nil
}

// add appends one record to partition p.
func (w *runWriter) add(p int, key string, v any) error {
	var err error
	if w.scratch, err = AppendRecord(w.scratch[:0], key, v); err != nil {
		return err
	}
	return w.write(p)
}

// addAt appends record i of r to partition p, encoded out of its columns.
func (w *runWriter) addAt(p int, r *Records, i int) error {
	var err error
	if w.scratch, err = r.Frame(w.scratch[:0], i); err != nil {
		return err
	}
	return w.write(p)
}

// write appends the record in scratch to partition p.
func (w *runWriter) write(p int) error {
	n, err := w.w.Write(w.scratch)
	if err != nil {
		return err
	}
	seg := &w.segs[p]
	if seg.records == 0 {
		seg.off = w.off
	}
	w.off += int64(n)
	seg.end = w.off
	seg.records++
	return nil
}

// finish flushes and returns the completed run, which keeps the file open
// for reading.
func (w *runWriter) finish() (*run, error) {
	if err := w.w.Flush(); err != nil {
		w.abort()
		return nil, err
	}
	return &run{f: w.f, segs: w.segs}, nil
}

// abort discards a partially written run.
func (w *runWriter) abort() {
	name := w.f.Name()
	w.f.Close()
	os.Remove(name)
}

// cursor iterates one partition's records within a run, in stored (key)
// order, decoding them out of a window it slides along the segment.
type cursor struct {
	r   *io.SectionReader
	buf []byte // buf[pos:] is read from the segment and not yet decoded
	pos int
	eof bool
	// d reads buf[pos:]. A field, because a local handed to a codec's Read
	// would be allocated once per record.
	d Dec
}

// open returns a cursor over partition p, or nil when the run holds no
// records for it. Cursors over distinct partitions are independent, so
// concurrent reduce tasks can read the same run file. The window is sized
// by the segment: a job has one cursor per (run, partition), and most
// segments are far smaller than 32 KiB.
func (r *run) open(p int) *cursor {
	seg := r.segs[p]
	if seg.records == 0 {
		return nil
	}
	size := seg.end - seg.off
	return &cursor{r: io.NewSectionReader(r.f, seg.off, size), buf: make([]byte, 0, min(32<<10, size))}
}

// next returns the cursor's next record; ok is false at the end of the
// segment.
func (c *cursor) next() (key string, v any, ok bool, err error) {
	for {
		c.d = dec(c.buf[c.pos:])
		if key, v = c.d.Record(); c.d.err == nil {
			c.pos = len(c.buf) - c.d.Rest()
			return key, v, true, nil
		}
		if c.d.err != errTruncated {
			return "", nil, false, c.d.err
		}
		if c.eof {
			if c.pos == len(c.buf) {
				return "", nil, false, nil
			}
			return "", nil, false, fmt.Errorf("spill: truncated record: %w", io.ErrUnexpectedEOF)
		}
		if err := c.fill(); err != nil {
			return "", nil, false, err
		}
	}
}

// fill moves the undecoded tail to the front of the window — doubling it
// first when one record already fills it — and reads on from the segment.
func (c *cursor) fill() error {
	rest := c.buf[c.pos:]
	if len(rest) == cap(c.buf) {
		c.buf = make([]byte, 0, 2*cap(c.buf))
	}
	c.buf = c.buf[:copy(c.buf[:cap(c.buf)], rest)]
	c.pos = 0
	n, err := io.ReadFull(c.r, c.buf[len(c.buf):cap(c.buf)])
	c.buf = c.buf[:len(c.buf)+n]
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		c.eof, err = true, nil
	}
	return err
}
