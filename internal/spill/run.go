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
// non-decreasing order. A buffer has one, and its write buffer serves each
// of the buffer's runs in turn.
type runWriter struct {
	f       *os.File
	w       *bufio.Writer
	off     int64
	segs    []segment
	scratch []byte
}

// start begins run seq of a buffer of parts partitions, in a new file in
// dir.
func (w *runWriter) start(dir string, seq, parts int) error {
	f, err := os.OpenFile(filepath.Join(dir, fmt.Sprintf("run-%06d", seq)),
		os.O_CREATE|os.O_EXCL|os.O_RDWR, 0o600)
	if err != nil {
		return err
	}
	if w.w == nil {
		w.w = bufio.NewWriterSize(f, 64<<10)
	} else {
		w.w.Reset(f)
	}
	w.f, w.off, w.segs = f, 0, make([]segment, parts)
	return nil
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

// window is what a fetch reads a partition's segments through, one run
// after another: a buffer it slides along each segment, decoding records
// out of it.
type window struct {
	r   io.SectionReader
	buf []byte // read from the segment; d reads what is not yet decoded
	eof bool
	// d reads buf. A field, because a local handed to a codec's Read would
	// be allocated once per record; and it is set only when buf changes, so
	// that a record costs no pointer write.
	d Dec
}

// fit makes w at least as large as the largest of partition p's segments
// in runs, up to 32 KiB: most segments are far smaller.
func (w *window) fit(runs []*run, p int) {
	size := int64(1)
	for _, r := range runs {
		size = max(size, r.segs[p].end-r.segs[p].off)
	}
	if size = min(32<<10, size); int64(cap(w.buf)) < size {
		w.buf = make([]byte, 0, size)
	}
}

// open points w at partition p's segment in r. Windows over distinct
// partitions are independent, so concurrent reduce tasks can read the same
// run file.
func (w *window) open(r *run, p int) {
	seg := r.segs[p]
	w.r = *io.NewSectionReader(r.f, seg.off, seg.end-seg.off)
	w.buf, w.eof = w.buf[:0], false
	w.d = dec(w.buf)
}

// next returns the segment's next record, its key in w's bytes until the
// next call; ok is false at the end of the segment.
func (w *window) next() (key []byte, v any, ok bool, err error) {
	for {
		at := w.d.at
		if key, v = w.d.record(); w.d.err == nil {
			return key, v, true, nil
		}
		if w.d.err != errTruncated {
			return nil, nil, false, w.d.err
		}
		if w.eof {
			if at == len(w.buf) {
				return nil, nil, false, nil
			}
			return nil, nil, false, fmt.Errorf("spill: truncated record: %w", io.ErrUnexpectedEOF)
		}
		if err := w.fill(at); err != nil {
			return nil, nil, false, err
		}
	}
}

// fill moves the undecoded bytes, buf[at:], to the front of the window —
// doubling it first when they already fill it — and reads on from the
// segment.
func (w *window) fill(at int) error {
	rest := w.buf[at:]
	if len(rest) == cap(w.buf) {
		w.buf = make([]byte, 0, 2*cap(w.buf))
	}
	w.buf = w.buf[:copy(w.buf[:cap(w.buf)], rest)]
	n, err := io.ReadFull(&w.r, w.buf[len(w.buf):cap(w.buf)])
	w.buf = w.buf[:len(w.buf)+n]
	w.d = dec(w.buf)
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		w.eof, err = true, nil
	}
	return err
}
