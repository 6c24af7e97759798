package mapreduce

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"fsjoin/internal/checkpoint"
	"fsjoin/internal/frame"
	"fsjoin/internal/spill"
)

// FSTransport is the filesystem shuffle transport (DESIGN.md §15): every
// committed task becomes one framed file (internal/frame, DESIGN.md §16)
// under a root directory, bound to the job's fingerprint and published
// atomically. Commits are generation-stamped and reads are
// newest-complete-wins, so a duplicate delivery (Redeliver) is harmless by
// construction: tasks are deterministic, hence every complete generation
// of a task carries identical bytes.
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
// A frame's kind is also the first letter of its file name.
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
	frames map[string]*fsFrame // validated newest frame by taskPrefix
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

// taskFileName names one committed generation; gen orders deliveries
// (newest-complete-wins).
func taskFileName(kind byte, task int, gen int64) string {
	return fmt.Sprintf("%sg%d", taskPrefix(kind, task), gen)
}

// parseGen extracts gen from a task file name, reporting ok=false for temp
// files and aliens.
func parseGen(name string) (gen int64, ok bool) {
	i := strings.IndexByte(name, 'g')
	if i < 0 || !strings.Contains(name[:i], ".") {
		return 0, false
	}
	g, err := strconv.ParseInt(name[i+1:], 10, 64)
	if err != nil {
		return 0, false
	}
	return g, true
}

// CommitMap implements JobTransport: the sink is drained into a frame,
// partition by partition, recording the drain's merge fan-in so
// reduce-side spill accounting is identical to the in-memory path — and
// the transport owns (closes) the sink from here.
func (j *fsJob) CommitMap(t int, sink *shuffleSink, meta TaskMeta) (CommitInfo, error) {
	defer sink.close()
	info, err := j.commitFrame(fsKindMap, t, j.spec.ReduceTasks, meta, sink.buf.Drain)
	if err != nil {
		return info, fmt.Errorf("transport: commit map task %d: %w", t, err)
	}
	return info, nil
}

// CommitOutput implements JobTransport.
func (j *fsJob) CommitOutput(t int, out *spill.Records, meta TaskMeta) (CommitInfo, error) {
	info, err := j.commitFrame(fsKindOutput, t, 1, meta, func(_ int, add func(string, any, int64)) (int, error) {
		out.Each(func(key string, v any, bytes int64) bool { add(key, v, bytes); return true })
		return 0, nil
	})
	if err != nil {
		return info, fmt.Errorf("transport: commit output %d: %w", t, err)
	}
	return info, nil
}

// header binds a frame to its job, kind and task.
func (j *fsJob) header(kind byte, t int) []byte {
	return fmt.Appendf(nil, "shuffle %s %s", j.fp, taskPrefix(kind, t))
}

// commitFrame publishes one frame as the task's next generation: each
// partition's records as drain(r) emits them (spill.Buffer.Drain's shape;
// the accounted size is not stored), then the index. It reports whether a
// complete generation already existed (a redelivery).
func (j *fsJob) commitFrame(kind byte, t, parts int, meta TaskMeta, drain func(r int, emit func(key string, v any, bytes int64)) (ways int, err error)) (CommitInfo, error) {
	mj, err := json.Marshal(meta)
	if err != nil {
		return CommitInfo{}, fmt.Errorf("meta: %w", err)
	}
	redelivered, err := j.publish(kind, t, func(w *frame.Writer) error {
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
	return CommitInfo{Redelivered: redelivered, Partitions: parts}, err
}

// publish makes what fill writes the task's next generation, so a reader
// only ever sees complete frames. It reports whether a generation already
// existed (the publish is a redelivery).
func (j *fsJob) publish(kind byte, t int, fill func(*frame.Writer) error) (redelivered bool, err error) {
	var gen int64
	if c := j.candidates(kind, t); len(c) > 0 {
		gen = c[0].gen // newest first
	}
	name := taskFileName(kind, t, gen+1)
	return gen > 0, frame.Publish(j.dir, name, j.header(kind, t), false, fill)
}

// fsCandidate is one on-disk generation of a task.
type fsCandidate struct {
	path string
	gen  int64
}

// candidates lists a task's committed generations, newest first.
func (j *fsJob) candidates(kind byte, t int) []fsCandidate {
	prefix := taskPrefix(kind, t)
	entries, err := os.ReadDir(j.dir)
	if err != nil {
		return nil
	}
	var out []fsCandidate
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, prefix) {
			continue
		}
		gen, ok := parseGen(name)
		if !ok {
			continue
		}
		out = append(out, fsCandidate{path: filepath.Join(j.dir, name), gen: gen})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].gen > out[b].gen })
	return out
}

// taskPrefix is the file-name prefix shared by all of a task's
// generations, dot-terminated so task 1 does not match task 12.
func taskPrefix(kind byte, t int) string { return fmt.Sprintf("%c%d.", kind, t) }

// frame returns the validated newest complete frame for a task,
// falling back to older generations when the newest fails validation
// (newest-complete-wins). The parsed index is cached: once a complete
// generation is visible its content is final — later generations are
// byte-identical by the determinism contract.
func (j *fsJob) frame(kind byte, t int) (*fsFrame, error) {
	key := taskPrefix(kind, t)
	j.mu.Lock()
	fr, ok := j.frames[key]
	j.mu.Unlock()
	if ok {
		return fr, nil
	}
	var lastErr error
	for _, c := range j.candidates(kind, t) {
		fr, err := j.validateFrame(c.path, kind, t)
		if err != nil {
			lastErr = err
			continue
		}
		j.mu.Lock()
		j.frames[key] = fr
		j.mu.Unlock()
		return fr, nil
	}
	if lastErr != nil {
		return nil, fmt.Errorf("transport: no valid frame for task %d: %w", t, lastErr)
	}
	return nil, fmt.Errorf("transport: task %d has no committed frame", t)
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
// spill codec and stored with byte accounting recomputed by the engine's
// size function — identical to what the in-memory sink reports.
func (j *fsJob) FetchPartition(t, r int, dst *spill.Records) (int, error) {
	fr, err := j.frame(fsKindMap, t)
	if err != nil {
		return 0, err
	}
	if r < 0 || r >= len(fr.parts) {
		return 0, fmt.Errorf("transport: partition %d out of range", r)
	}
	if err := readRecords(fr, r, dst); err != nil {
		return 0, fmt.Errorf("transport: task %d partition %d: %w", t, r, err)
	}
	return int(fr.parts[r].ways), nil
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

// Redeliver implements JobTransport: the newest complete generation is
// re-published verbatim as the next generation — what a reassigned
// worker's re-execution would deliver, without re-executing.
func (j *fsJob) Redeliver(t int) (CommitInfo, error) {
	fr, err := j.frame(fsKindMap, t)
	if err != nil {
		return CommitInfo{}, err
	}
	old, err := frame.Read(fr.path)
	if err != nil {
		return CommitInfo{}, fmt.Errorf("transport: %w", err)
	}
	_, err = j.publish(fsKindMap, t, func(w *frame.Writer) error {
		for i := range old.Sections {
			if err := w.Section(old.Payload(i)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return CommitInfo{}, fmt.Errorf("transport: %w", err)
	}
	return CommitInfo{Redelivered: true, Partitions: len(fr.parts)}, nil
}

// ReleasePartition implements JobTransport. Frames must outlive any one
// consumer (a reassigned reduce task may re-fetch), so release is a no-op;
// Close reclaims the stage directory.
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
