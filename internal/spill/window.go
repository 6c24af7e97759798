package spill

import (
	"encoding/binary"
	"fmt"
	"io"
)

// A segment is one spill's records of one partition: bytes [off, end) of
// the buffer's spill file, in the order they were emitted, each a spill
// frame (appendSpilled). A partition's segments are kept in memory, so
// each reduce task reads exactly its partition's byte ranges through an
// independent SectionReader.
type segment struct {
	off     int64
	end     int64
	records int64
}

// window is what a fetch reads a partition's segments through, one after
// another: a buffer it slides along each segment, decoding records out of
// it.
type window struct {
	r   io.SectionReader
	buf []byte // read from the segment; d reads what is not yet decoded
	eof bool
	// d reads buf. A field, because a local handed to a codec's Read would
	// be allocated once per record; and it is set only when buf changes, so
	// that a record costs no pointer write.
	d Dec
}

// fit makes w at least as large as the largest of segs, up to 32 KiB:
// most segments are far smaller.
func (w *window) fit(segs []segment) {
	size := int64(1)
	for _, s := range segs {
		size = max(size, s.end-s.off)
	}
	if size = min(32<<10, size); int64(cap(w.buf)) < size {
		w.buf = make([]byte, 0, size)
	}
}

// open points w at segment s of f. Windows over distinct segments are
// independent, so concurrent reduce tasks can read the same spill file.
func (w *window) open(f io.ReaderAt, s segment) {
	w.r = *io.NewSectionReader(f, s.off, s.end-s.off)
	w.buf, w.eof = w.buf[:0], false
	w.d = dec(w.buf)
}

// next decodes the segment's next record onto out; ok is false at the end
// of the segment.
func (w *window) next(out *Records) (ok bool, err error) {
	for {
		at := w.d.at
		if w.d.spilled(out); w.d.err == nil {
			return true, nil
		}
		if w.d.err != errTruncated {
			return false, w.d.err
		}
		if w.eof {
			if at == len(w.buf) {
				return false, nil
			}
			return false, fmt.Errorf("spill: truncated record: %w", io.ErrUnexpectedEOF)
		}
		if err := w.fill(at); err != nil {
			return false, err
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

// appendSpilled appends record i of r as a spill file holds it: the record
// in AppendRecord's form, then its accounted size as a uvarint, so that a
// fetch accounts the decoded record without sizing its value again. The
// size never leaves the process that wrote it: a spill file is read only
// by the job that spilled it. On error buf is returned as given.
func appendSpilled(buf []byte, r *Records, i int) ([]byte, error) {
	out, err := r.Frame(buf, i)
	if err != nil {
		return buf, err
	}
	return binary.AppendUvarint(out, uint64(r.heads.At(i).bytes())), nil
}

// spilled consumes one frame appendSpilled wrote and appends its record
// to out (Records.decode). A frame that ends early fails d with
// errTruncated and appends nothing; a key longer than MaxKeyLen, or a value
// that is short or bad inside a whole frame, fails it with another error,
// never taken for errTruncated.
func (d *Dec) spilled(out *Records) {
	key := d.frame()
	val := d.frame()
	end := d.at
	bytes := d.Uvarint()
	if d.err != nil {
		return
	}
	if d.err = CheckKey(key); d.err != nil {
		return
	}
	// The value is read by this Dec, cut off where the value ends.
	next, rest := d.at, d.end
	d.at, d.end = end-len(val), end
	if out.decode(MakeKeyIndex(key, 0), d, int64(bytes)); d.err != nil {
		d.err = fmt.Errorf("spill: record value: %w", d.err)
		return
	}
	d.at, d.end = next, rest
}
