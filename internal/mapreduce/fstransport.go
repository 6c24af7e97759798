package mapreduce

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"fsjoin/internal/checkpoint"
	"fsjoin/internal/frame"
	"fsjoin/internal/spill"
)

// FSTransport is the filesystem shuffle transport (DESIGN.md §15): every
// committed task becomes one framed file (internal/frame, DESIGN.md §16)
// under a root directory, bound to the job's fingerprint and published
// atomically. The engine commits each task once, and every job has a fresh
// stage directory, so a task has exactly one frame file, named after it:
// a reader finds the whole frame or none.
//
// One FSTransport value serves a whole pipeline: each stage's Open gets
// the next stage sequence number, hence its own stage directory.
type FSTransport struct {
	root string
	seq  atomic.Int64
}

// NewFSTransport returns a transport rooted at dir. Each job removes its
// stage directory when it closes, and nothing resumes from one, so frames
// are published atomically but never fsynced.
func NewFSTransport(dir string) *FSTransport {
	return &FSTransport{root: dir}
}

// Open implements Transport.
func (f *FSTransport) Open(spec TransportSpec) (JobTransport, error) {
	seq := f.seq.Add(1)
	dir := filepath.Join(f.root, fmt.Sprintf("s%03d-%s", seq, checkpoint.SafeName(spec.Job)))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("transport: %w", err)
	}
	return &fsJob{
		dir:    dir,
		spec:   spec,
		fp:     spec.fingerprint(),
		frames: make(map[string]*fsFrame),
	}, nil
}

// Frame file sections, after a header that binds the job fingerprint
// (name|mN|rN), the kind (map partitions or task output) and the task:
//
//	record sections (frame.Writer.Record), partition by partition
//	index: parts · per partition: count ways sections · len(meta) meta JSON
//
// The index comes last so partitions stream out of the sink without being
// held. Record byte accounting is recomputed at fetch with the engine's
// size function, so frames carry no sizes.
//
// A frame's file name is its kind followed by the task number (taskName).
const (
	fsKindMap    = 'm'
	fsKindOutput = 'o'
)

// fsJob is one job's window onto the shared transport directory.
type fsJob struct {
	dir  string
	spec TransportSpec
	fp   string

	mu     sync.Mutex
	frames map[string]*fsFrame // validated frame by taskName
}

// fsPart is one partition of a validated frame: its record count, the
// merge fan-in that produced it and the sections that hold it.
type fsPart struct {
	count, ways int64
	secs        []frame.Section
}

// fsFrame is a validated frame file's index.
type fsFrame struct {
	path  string
	parts []fsPart
	meta  TaskMeta
}

// taskName names a task's frame file: its kind, then the task number.
func taskName(kind byte, t int) string { return fmt.Sprintf("%c%d", kind, t) }

// path is the file of a task's frame.
func (j *fsJob) path(kind byte, t int) string { return filepath.Join(j.dir, taskName(kind, t)) }

// CommitMap implements JobTransport: the sink is drained into a frame,
// partition by partition, recording the drain's merge fan-in so
// reduce-side spill accounting is identical to the in-memory path — and
// the transport owns (closes) the sink from here.
func (j *fsJob) CommitMap(t int, sink *shuffleSink, meta TaskMeta) error {
	defer sink.close()
	if err := j.commitFrame(fsKindMap, t, j.spec.ReduceTasks, meta, sink.buf.Drain); err != nil {
		return fmt.Errorf("transport: commit map task %d: %w", t, err)
	}
	return nil
}

// CommitOutput implements JobTransport.
func (j *fsJob) CommitOutput(t int, out *spill.Records, meta TaskMeta) error {
	err := j.commitFrame(fsKindOutput, t, 1, meta, func(_ int, add func(string, any, int64)) (int, error) {
		out.Each(func(key string, v any, bytes int64) bool { add(key, v, bytes); return true })
		return 0, nil
	})
	if err != nil {
		return fmt.Errorf("transport: commit output %d: %w", t, err)
	}
	return nil
}

// header binds a frame to its job, kind and task.
func (j *fsJob) header(kind byte, t int) []byte {
	return fmt.Appendf(nil, "shuffle %s %s", j.fp, taskName(kind, t))
}

// commitFrame atomically publishes a task's frame: each partition's
// records as drain(r) emits them (spill.Buffer.Drain's shape; the
// accounted size is not stored), then the index.
func (j *fsJob) commitFrame(kind byte, t, parts int, meta TaskMeta, drain func(r int, emit func(key string, v any, bytes int64)) (ways int, err error)) error {
	mj, err := json.Marshal(meta)
	if err != nil {
		return fmt.Errorf("meta: %w", err)
	}
	return frame.Publish(j.dir, taskName(kind, t), j.header(kind, t), false, func(w *frame.Writer) error {
		index := binary.AppendUvarint(nil, uint64(parts))
		for r := 0; r < parts; r++ {
			var count uint64
			var addErr error
			before := w.Sections()
			ways, err := drain(r, func(key string, v any, _ int64) {
				if addErr == nil {
					addErr = w.Record(key, v)
					count++
				}
			})
			if err == nil {
				err = addErr
			}
			if err == nil {
				err = w.Flush()
			}
			if err != nil {
				return err
			}
			index = binary.AppendUvarint(index, count)
			index = binary.AppendUvarint(index, uint64(ways))
			index = binary.AppendUvarint(index, uint64(w.Sections()-before))
		}
		index = binary.AppendUvarint(index, uint64(len(mj)))
		return w.Section(append(index, mj...))
	})
}

// frame returns a task's validated frame. The parsed index is cached: a
// published frame is never replaced.
func (j *fsJob) frame(kind byte, t int) (*fsFrame, error) {
	name := taskName(kind, t)
	j.mu.Lock()
	fr, ok := j.frames[name]
	j.mu.Unlock()
	if ok {
		return fr, nil
	}
	fr, err := j.validateFrame(j.path(kind, t), kind, t)
	if err != nil {
		return nil, fmt.Errorf("transport: no valid frame for task %d: %w", t, err)
	}
	j.mu.Lock()
	j.frames[name] = fr
	j.mu.Unlock()
	return fr, nil
}

// validateFrame reads one frame file end-to-end (frame.Read checks every
// byte), matches its header and parses the index into the partitions'
// section lists.
func (j *fsJob) validateFrame(path string, kind byte, t int) (*fsFrame, error) {
	f, err := frame.Read(path)
	if err != nil {
		return nil, err
	}
	if want := j.header(kind, t); string(f.Header) != string(want) {
		return nil, fmt.Errorf("%s: fingerprint %q, want %q", path, f.Header, want)
	}
	wantParts := j.spec.ReduceTasks
	if kind == fsKindOutput {
		wantParts = 1
	}
	if len(f.Sections) == 0 {
		return nil, fmt.Errorf("%s: no index section", path)
	}
	secs := f.Sections[:len(f.Sections)-1]
	d := spill.NewDec(f.Payload(len(secs)))
	if n := d.Uvarint(); d.Err() != nil || n != uint64(wantParts) {
		return nil, fmt.Errorf("%s: %d partitions, want %d", path, n, wantParts)
	}
	fr := &fsFrame{path: path, parts: make([]fsPart, wantParts)}
	for r := range fr.parts {
		// Values past what the file can hold (2^63−1, say) are refused
		// here, before anything is sliced or sized by them.
		count, ways, n := d.Uvarint(), d.Uvarint(), d.Uvarint()
		if d.Err() != nil || n > uint64(len(secs)) || ways > math.MaxInt32 {
			return nil, fmt.Errorf("%s: bad index entry for partition %d", path, r)
		}
		var size int64
		for _, s := range secs[:n] {
			size += s.Len
		}
		if count > uint64(size) {
			return nil, fmt.Errorf("%s: partition %d claims %d records in %d bytes", path, r, count, size)
		}
		fr.parts[r] = fsPart{count: int64(count), ways: int64(ways), secs: secs[:n]}
		secs = secs[n:]
	}
	meta := d.String()
	if d.Err() != nil || d.Rest() != 0 || len(secs) != 0 {
		return nil, fmt.Errorf("%s: index does not cover the frame", path)
	}
	if err := json.Unmarshal([]byte(meta), &fr.meta); err != nil {
		return nil, fmt.Errorf("%s: meta: %w", path, err)
	}
	return fr, nil
}

// FetchPartition implements JobTransport: the partition's sections are
// re-read from the committed frame, checksum-verified, decoded through the
// spill codec and appended to dst with byte accounting recomputed by the
// engine's size function — identical to what the in-memory sink reports.
func (j *fsJob) FetchPartition(t, r int, dst *spill.Records) (spill.Source, int, error) {
	fr, err := j.frame(fsKindMap, t)
	if err != nil {
		return spill.Source{}, 0, err
	}
	if r < 0 || r >= len(fr.parts) {
		return spill.Source{}, 0, fmt.Errorf("transport: partition %d out of range", r)
	}
	lo := dst.Len()
	if err := readRecords(fr, r, dst); err != nil {
		return spill.Source{}, 0, fmt.Errorf("transport: task %d partition %d: %w", t, r, err)
	}
	return spill.Source{Recs: dst, Lo: lo, Hi: dst.Len()}, int(fr.parts[r].ways), nil
}

// readRecords reads one partition's sections again and appends its records
// to dst, each sized by recordBytes.
func readRecords(fr *fsFrame, r int, dst *spill.Records) error {
	var sz spill.Sizer
	got, err := frame.ReadRecords(fr.path, fr.parts[r].secs, func(key string, v any) { dst.Append(key, v, recordBytes(key, sz.Size(v))) })
	if err == nil && got != fr.parts[r].count {
		err = fmt.Errorf("%d records, index says %d", got, fr.parts[r].count)
	}
	return err
}

// ReleasePartition implements JobTransport. A frame holds every partition
// of its task, so release is a no-op; Close reclaims the stage directory.
func (j *fsJob) ReleasePartition(t, r int) {}

// MapMeta implements JobTransport.
func (j *fsJob) MapMeta(t int) (TaskMeta, error) {
	fr, err := j.frame(fsKindMap, t)
	if err != nil {
		return TaskMeta{}, err
	}
	return fr.meta, nil
}

// FetchOutput implements JobTransport.
func (j *fsJob) FetchOutput(t int) (*spill.Records, TaskMeta, error) {
	fr, err := j.frame(fsKindOutput, t)
	if err != nil {
		return nil, TaskMeta{}, err
	}
	out := new(spill.Records)
	if err := readRecords(fr, 0, out); err != nil {
		return nil, TaskMeta{}, fmt.Errorf("transport: output %d: %w", t, err)
	}
	return out, fr.meta, nil
}

// Close implements JobTransport.
func (j *fsJob) Close() {
	j.mu.Lock()
	clear(j.frames)
	j.mu.Unlock()
	os.RemoveAll(j.dir)
}
