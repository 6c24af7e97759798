package mapreduce

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"fsjoin/internal/checkpoint"
	"fsjoin/internal/spill"
)

// FSTransport is the filesystem shuffle transport (DESIGN.md §15): every
// committed task becomes one frame file under a shared root, written with
// the spill codec's value encoding, a per-partition CRC32 and a job
// fingerprint, and published atomically (write-temp → fsync → rename —
// the probeindex WAL discipline). Commits are generation-stamped and
// reads are newest-complete-wins, so duplicate deliveries from
// reassigned or raced workers are harmless by construction: tasks are
// deterministic, hence every complete generation of a task carries
// identical bytes.
//
// One FSTransport value serves a whole pipeline: each stage's Open gets
// the next stage sequence number, and because every SPMD participant
// replays the same stages in the same order, participants agree on stage
// directories with no coordination beyond determinism.
type FSTransport struct {
	root string
	keep bool
	seq  atomic.Int64
}

// NewFSTransport returns a transport rooted at dir. keep leaves committed
// frames on disk when a job transport closes — required for multi-process
// runs, where partitions must outlive any single participant and the
// driver removes the root when the run ends; in-process uses pass false
// and each job cleans up after itself.
func NewFSTransport(dir string, keep bool) *FSTransport {
	return &FSTransport{root: dir, keep: keep}
}

// Open implements Transport.
func (f *FSTransport) Open(spec TransportSpec) (JobTransport, error) {
	seq := f.seq.Add(1)
	dir := filepath.Join(f.root, fmt.Sprintf("s%03d-%s", seq, checkpoint.SafeName(spec.Job)))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("transport: %w", err)
	}
	return &fsJob{
		dir:  dir,
		keep: f.keep,
		spec: spec,
		fp:   spec.fingerprint(),
	}, nil
}

// Frame file layout. All integers are uvarints unless noted; CRCs are
// 4-byte little-endian IEEE CRC32 over the preceding blob.
//
//	magic "FSSHUF1\x00"
//	fpLen fp                      job fingerprint (name|mN|rN)
//	kind                          0 = map partitions, 1 = task output
//	task                          task index
//	parts                         partition count (1 for outputs)
//	per partition: count ways blobLen blob crc32
//	metaLen metaJSON crc32
//	magic "FSSHUFE\x00"
//
// A record inside a blob is in spill.AppendRecord's form. Record byte
// accounting is recomputed at fetch with the engine's size function, so
// frames carry no sizes.
const (
	fsFrameMagic   = "FSSHUF1\x00"
	fsFrameTrailer = "FSSHUFE\x00"
	fsKindMap      = 0
	fsKindOutput   = 1
)

// fsJob is one job's window onto the shared transport directory.
type fsJob struct {
	dir  string
	keep bool
	spec TransportSpec
	fp   string

	mu      sync.Mutex
	mapIdx  map[int]*fsFrame // validated newest frame per map task
	outIdx  map[int]*fsFrame // validated newest frame per output task
	genSeen int64            // bumps per commit for unique temp names
}

// fsPart is one partition's location inside a validated frame.
type fsPart struct {
	off   int64
	blen  int64
	count int64
	ways  int64
	crc   uint32
}

// fsFrame is a validated frame file's index.
type fsFrame struct {
	path  string
	parts []fsPart
	meta  TaskMeta
}

// taskFileName names one committed generation. gen orders deliveries
// (newest-complete-wins); pid breaks ties between racing processes —
// safely, because racing commits of one task are byte-identical.
func taskFileName(kind byte, task int, gen int64, pid int) string {
	prefix := "m"
	if kind == fsKindOutput {
		prefix = "o"
	}
	return fmt.Sprintf("%s%d.g%d-%d", prefix, task, gen, pid)
}

// parseGen extracts (gen, pid) from a task file name, reporting ok=false
// for temp files and aliens.
func parseGen(name string) (gen, pid int64, ok bool) {
	i := strings.IndexByte(name, 'g')
	if i < 0 || !strings.Contains(name[:i], ".") {
		return 0, 0, false
	}
	rest := name[i+1:]
	j := strings.IndexByte(rest, '-')
	if j < 0 {
		return 0, 0, false
	}
	g, err1 := strconv.ParseInt(rest[:j], 10, 64)
	p, err2 := strconv.ParseInt(rest[j+1:], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, 0, false
	}
	return g, p, true
}

// CommitMap implements JobTransport: the sink is drained into a frame —
// one blob per reduce partition, recording the drain's merge fan-in so
// reduce-side spill accounting is identical to the in-memory path — and
// the transport owns (closes) the sink from here.
func (j *fsJob) CommitMap(t int, sink *shuffleSink, meta TaskMeta) (CommitInfo, error) {
	defer sink.close()
	parts := make([]fsPartData, j.spec.ReduceTasks)
	for r := range parts {
		p := &parts[r]
		var encErr error
		ways, err := sink.drain(r, func(key string, v any, _ int64) {
			if encErr == nil {
				encErr = p.add(key, v)
			}
		})
		if err == nil {
			err = encErr
		}
		if err != nil {
			return CommitInfo{}, fmt.Errorf("transport: commit map task %d: %w", t, err)
		}
		p.ways = int64(ways)
	}
	return j.commitFrame(fsKindMap, t, parts, meta)
}

// CommitOutput implements JobTransport.
func (j *fsJob) CommitOutput(t int, out *spill.List[KV], meta TaskMeta) (CommitInfo, error) {
	var p fsPartData
	for i := 0; i < out.Len(); i++ {
		if err := p.add(out.At(i).Key, out.At(i).Value); err != nil {
			return CommitInfo{}, fmt.Errorf("transport: commit output %d: %w", t, err)
		}
	}
	return j.commitFrame(fsKindOutput, t, []fsPartData{p}, meta)
}

// fsPartData is one partition being assembled for a commit.
type fsPartData struct {
	blob  []byte
	count int64
	ways  int64
}

// add appends one record to the partition's blob.
func (p *fsPartData) add(key string, v any) (err error) {
	p.blob, err = spill.AppendRecord(p.blob, key, v)
	p.count++
	return err
}

// commitFrame encodes and atomically publishes one frame as the task's
// next generation.
func (j *fsJob) commitFrame(kind byte, t int, parts []fsPartData, meta TaskMeta) (CommitInfo, error) {
	buf := []byte(fsFrameMagic)
	buf = binary.AppendUvarint(buf, uint64(len(j.fp)))
	buf = append(buf, j.fp...)
	buf = append(buf, kind)
	buf = binary.AppendUvarint(buf, uint64(t))
	buf = binary.AppendUvarint(buf, uint64(len(parts)))
	for _, p := range parts {
		buf = binary.AppendUvarint(buf, uint64(p.count))
		buf = binary.AppendUvarint(buf, uint64(p.ways))
		buf = binary.AppendUvarint(buf, uint64(len(p.blob)))
		buf = append(buf, p.blob...)
		buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(p.blob))
	}
	mj, err := json.Marshal(meta)
	if err != nil {
		return CommitInfo{}, fmt.Errorf("transport: meta: %w", err)
	}
	buf = binary.AppendUvarint(buf, uint64(len(mj)))
	buf = append(buf, mj...)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(mj))
	buf = append(buf, fsFrameTrailer...)

	redelivered, err := j.publish(kind, t, buf)
	if err != nil {
		return CommitInfo{}, err
	}
	return CommitInfo{Redelivered: redelivered, Partitions: len(parts)}, nil
}

// publish makes data the task's next generation: written under a temp
// name, fsynced, then renamed into place, so a reader only ever sees
// complete frames. It reports whether a complete generation already
// existed (the publish is a redelivery).
func (j *fsJob) publish(kind byte, t int, data []byte) (redelivered bool, err error) {
	gen, redelivered := j.nextGen(kind, t)
	pid := os.Getpid()
	j.mu.Lock()
	j.genSeen++
	tmpSeq := j.genSeen
	j.mu.Unlock()
	tmp := filepath.Join(j.dir, fmt.Sprintf(".tmp-%d-%d-%d", pid, t, tmpSeq))
	if err := writeFileSync(tmp, data); err != nil {
		return false, fmt.Errorf("transport: %w", err)
	}
	final := filepath.Join(j.dir, taskFileName(kind, t, gen, pid))
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return false, fmt.Errorf("transport: %w", err)
	}
	if err := checkpoint.SyncDir(j.dir); err != nil {
		return false, fmt.Errorf("transport: %w", err)
	}
	return redelivered, nil
}

// writeFileSync writes data and fsyncs before closing — the frame must be
// durable before the rename publishes it.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(path)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(path)
		return err
	}
	return f.Close()
}

// nextGen picks the next generation number for a task and reports whether
// a complete generation already exists (the commit is a redelivery).
func (j *fsJob) nextGen(kind byte, t int) (int64, bool) {
	var max int64
	for _, c := range j.candidates(kind, t) {
		if c.gen > max {
			max = c.gen
		}
	}
	return max + 1, max > 0
}

// fsCandidate is one on-disk generation of a task.
type fsCandidate struct {
	path string
	gen  int64
	pid  int64
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
		gen, pid, ok := parseGen(name)
		if !ok {
			continue
		}
		out = append(out, fsCandidate{path: filepath.Join(j.dir, name), gen: gen, pid: pid})
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].gen != out[b].gen {
			return out[a].gen > out[b].gen
		}
		return out[a].pid > out[b].pid
	})
	return out
}

// taskPrefix is the file-name prefix shared by all of a task's
// generations, dot-terminated so task 1 does not match task 12.
func taskPrefix(kind byte, t int) string {
	if kind == fsKindOutput {
		return fmt.Sprintf("o%d.", t)
	}
	return fmt.Sprintf("m%d.", t)
}

// frame returns the validated newest complete frame for a task,
// falling back to older generations when the newest fails validation
// (newest-complete-wins). The parsed index is cached: once a complete
// generation is visible its content is final — later generations are
// byte-identical by the determinism contract.
func (j *fsJob) frame(kind byte, t int) (*fsFrame, error) {
	j.mu.Lock()
	cache := &j.mapIdx
	if kind == fsKindOutput {
		cache = &j.outIdx
	}
	if *cache != nil {
		if fr, ok := (*cache)[t]; ok {
			j.mu.Unlock()
			return fr, nil
		}
	}
	j.mu.Unlock()
	var lastErr error
	for _, c := range j.candidates(kind, t) {
		fr, err := j.validateFrame(c.path, kind, t)
		if err != nil {
			lastErr = err
			continue
		}
		j.mu.Lock()
		if *cache == nil {
			*cache = make(map[int]*fsFrame)
		}
		(*cache)[t] = fr
		j.mu.Unlock()
		return fr, nil
	}
	if lastErr != nil {
		return nil, fmt.Errorf("transport: no valid frame for task %d: %w", t, lastErr)
	}
	return nil, fmt.Errorf("transport: task %d has no committed frame", t)
}

// validateFrame reads one frame file end-to-end, verifying magic,
// fingerprint, structure, every CRC and the trailer, and returns its
// partition index.
func (j *fsJob) validateFrame(path string, kind byte, t int) (*fsFrame, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	p := &frameParser{data: data}
	if string(p.take(len(fsFrameMagic))) != fsFrameMagic {
		return nil, fmt.Errorf("%s: bad magic", path)
	}
	fp := string(p.take(int(p.uvarint())))
	if p.err == nil && fp != j.fp {
		return nil, fmt.Errorf("%s: fingerprint %q, want %q", path, fp, j.fp)
	}
	gotKind := p.take(1)
	if p.err == nil && gotKind[0] != kind {
		return nil, fmt.Errorf("%s: frame kind %d, want %d", path, gotKind[0], kind)
	}
	gotTask := p.uvarint()
	if p.err == nil && int(gotTask) != t {
		return nil, fmt.Errorf("%s: frame task %d, want %d", path, gotTask, t)
	}
	nparts := int(p.uvarint())
	wantParts := j.spec.ReduceTasks
	if kind == fsKindOutput {
		wantParts = 1
	}
	if p.err == nil && nparts != wantParts {
		return nil, fmt.Errorf("%s: %d partitions, want %d", path, nparts, wantParts)
	}
	fr := &fsFrame{path: path, parts: make([]fsPart, 0, nparts)}
	for r := 0; r < nparts && p.err == nil; r++ {
		count := p.uvarint()
		ways := p.uvarint()
		blen := p.uvarint()
		off := int64(p.pos)
		blob := p.take(int(blen))
		crc := p.u32()
		if p.err == nil && crc32.ChecksumIEEE(blob) != crc {
			return nil, fmt.Errorf("%s: partition %d CRC mismatch", path, r)
		}
		fr.parts = append(fr.parts, fsPart{off: off, blen: int64(blen), count: int64(count), ways: int64(ways), crc: crc})
	}
	mj := p.take(int(p.uvarint()))
	mcrc := p.u32()
	if p.err == nil && crc32.ChecksumIEEE(mj) != mcrc {
		return nil, fmt.Errorf("%s: meta CRC mismatch", path)
	}
	if p.err == nil && string(p.take(len(fsFrameTrailer))) != fsFrameTrailer {
		return nil, fmt.Errorf("%s: missing trailer (incomplete frame)", path)
	}
	if p.err == nil && p.pos != len(p.data) {
		return nil, fmt.Errorf("%s: %d trailing bytes", path, len(p.data)-p.pos)
	}
	if p.err != nil {
		return nil, fmt.Errorf("%s: %w", path, p.err)
	}
	if err := json.Unmarshal(mj, &fr.meta); err != nil {
		return nil, fmt.Errorf("%s: meta: %w", path, err)
	}
	return fr, nil
}

// frameParser is a bounds-checked cursor over a frame file.
type frameParser struct {
	data []byte
	pos  int
	err  error
}

func (p *frameParser) take(n int) []byte {
	if p.err != nil || n < 0 || p.pos+n > len(p.data) {
		if p.err == nil {
			p.err = fmt.Errorf("truncated frame at offset %d", p.pos)
		}
		return nil
	}
	b := p.data[p.pos : p.pos+n]
	p.pos += n
	return b
}

func (p *frameParser) uvarint() uint64 {
	if p.err != nil {
		return 0
	}
	v, n := binary.Uvarint(p.data[p.pos:])
	if n <= 0 {
		p.err = fmt.Errorf("bad uvarint at offset %d", p.pos)
		return 0
	}
	p.pos += n
	return v
}

func (p *frameParser) u32() uint32 {
	b := p.take(4)
	if p.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// FetchPartition implements JobTransport: the partition blob is re-read
// from the committed frame, CRC-verified, decoded through the spill codec
// and emitted with byte accounting recomputed by the engine's size
// function — identical to what the in-memory sink reports.
func (j *fsJob) FetchPartition(t, r int, emit func(key string, value any, bytes int64)) (int, error) {
	fr, err := j.frame(fsKindMap, t)
	if err != nil {
		return 0, err
	}
	if r < 0 || r >= len(fr.parts) {
		return 0, fmt.Errorf("transport: partition %d out of range", r)
	}
	if err := emitBlob(fr, r, emit); err != nil {
		return 0, fmt.Errorf("transport: task %d partition %d: %w", t, r, err)
	}
	return int(fr.parts[r].ways), nil
}

// PartitionRecords implements JobTransport from the frame's index.
func (j *fsJob) PartitionRecords(t, r int) int {
	fr, err := j.frame(fsKindMap, t)
	if err != nil || r < 0 || r >= len(fr.parts) {
		return 0
	}
	return int(fr.parts[r].count)
}

// emitBlob preads one partition blob and streams its records.
func emitBlob(fr *fsFrame, r int, emit func(key string, value any, bytes int64)) error {
	part := fr.parts[r]
	if part.blen == 0 {
		return nil
	}
	f, err := os.Open(fr.path)
	if err != nil {
		return err
	}
	defer f.Close()
	blob := make([]byte, part.blen)
	if _, err := f.ReadAt(blob, part.off); err != nil {
		return err
	}
	if crc32.ChecksumIEEE(blob) != part.crc {
		return fmt.Errorf("CRC mismatch on read")
	}
	d := spill.NewDec(blob)
	for i := int64(0); i < part.count; i++ {
		key, v := d.Record()
		if d.Err() != nil {
			return d.Err()
		}
		emit(key, v, int64(len(key)+sizeOf(v))+8)
	}
	if d.Rest() != 0 {
		return fmt.Errorf("%d trailing bytes in partition blob", d.Rest())
	}
	return nil
}

// Redeliver implements JobTransport: the newest complete generation is
// re-published verbatim as the next generation — what a reassigned
// worker's re-execution would deliver, without re-executing.
func (j *fsJob) Redeliver(t int) (CommitInfo, error) {
	fr, err := j.frame(fsKindMap, t)
	if err != nil {
		return CommitInfo{}, err
	}
	data, err := os.ReadFile(fr.path)
	if err != nil {
		return CommitInfo{}, fmt.Errorf("transport: %w", err)
	}
	if _, err := j.publish(fsKindMap, t, data); err != nil {
		return CommitInfo{}, err
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
func (j *fsJob) FetchOutput(t int) (*spill.List[KV], TaskMeta, error) {
	fr, err := j.frame(fsKindOutput, t)
	if err != nil {
		return nil, TaskMeta{}, err
	}
	out := new(spill.List[KV])
	if err := emitBlob(fr, 0, func(key string, v any, _ int64) {
		out.Append(KV{Key: key, Value: v})
	}); err != nil {
		return nil, TaskMeta{}, fmt.Errorf("transport: output %d: %w", t, err)
	}
	return out, fr.meta, nil
}

// Close implements JobTransport.
func (j *fsJob) Close() {
	j.mu.Lock()
	j.mapIdx, j.outIdx = nil, nil
	j.mu.Unlock()
	if !j.keep {
		os.RemoveAll(j.dir)
	}
}
