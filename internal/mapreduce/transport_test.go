package mapreduce

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"fsjoin/internal/frame"
	"fsjoin/internal/spill"
)

// injFunc adapts a function to Injector for scripted schedules.
type injFunc func(phase Phase, task, attempt int) Fault

func (f injFunc) Decide(_ string, phase Phase, task, attempt int) Fault {
	return f(phase, task, attempt)
}

// transportFixture runs wordcount over a meaty input with the given
// config mutations on both transports and returns the two results.
func transportFixture(t *testing.T, mutate func(*Config)) (mem, fs *Result) {
	t.Helper()
	var lines []string
	for i := 0; i < 40; i++ {
		lines = append(lines, fmt.Sprintf("w%d a b common w%d w%d", i%7, i%3, i))
	}
	input := wcInput(lines...)
	run := func(tr Transport) *Result {
		cfg := Config{Name: "wc-transport", Cluster: tinyCluster(), MapTasks: 5}
		if mutate != nil {
			mutate(&cfg)
		}
		cfg.Transport = tr
		res, err := Run(cfg, input, wcMapper{}, wcReducer{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	return run(nil), run(NewFSTransport(t.TempDir()))
}

// assertSameResult compares everything deterministic between two runs:
// output bytes, the full counter set, and the shuffle-shape metrics.
func assertSameResult(t *testing.T, mem, fs *Result) {
	t.Helper()
	if !reflect.DeepEqual(mem.Output, fs.Output) {
		t.Fatalf("output differs: mem %d records, fs %d records", len(mem.Output), len(fs.Output))
	}
	if mc, fc := mem.Counters.Snapshot(), fs.Counters.Snapshot(); !reflect.DeepEqual(mc, fc) {
		t.Fatalf("counters differ:\nmem %v\nfs  %v", mc, fc)
	}
	mm, fm := mem.Metrics, fs.Metrics
	type shape struct {
		ShuffleRecords, ShuffleBytes, ReduceInputGroups, OutputRecords, OutputBytes, SpillRuns, SpillBytes int64
		PerReduceRecords, PerReduceBytes                                                                   []int64
	}
	ms := shape{mm.ShuffleRecords, mm.ShuffleBytes, mm.ReduceInputGroups, mm.OutputRecords, mm.OutputBytes, mm.SpillRuns, mm.SpillBytes, mm.PerReduceRecords, mm.PerReduceBytes}
	fss := shape{fm.ShuffleRecords, fm.ShuffleBytes, fm.ReduceInputGroups, fm.OutputRecords, fm.OutputBytes, fm.SpillRuns, fm.SpillBytes, fm.PerReduceRecords, fm.PerReduceBytes}
	if !reflect.DeepEqual(ms, fss) {
		t.Fatalf("metrics differ:\nmem %+v\nfs  %+v", ms, fss)
	}
}

func TestFSTransportEquivalence(t *testing.T) {
	cases := map[string]func(*Config){
		"plain":          nil,
		"combiner":       func(c *Config) { c.Combiner = wcReducer{} },
		"spill":          func(c *Config) { c.MemoryBudgetBytes = 256 },
		"spill-combiner": func(c *Config) { c.MemoryBudgetBytes = 256; c.Combiner = wcReducer{} },
		"parallel":       func(c *Config) { c.Parallelism = 4 },
		"folding":        func(c *Config) { c.Combiner = FirstValue{} },
	}
	for name, mutate := range cases {
		t.Run(name, func(t *testing.T) {
			mem, fs := transportFixture(t, mutate)
			assertSameResult(t, mem, fs)
		})
	}
}

// lineCountingWC is wordcount that also counts its input lines, so a user
// counter travels with every map task.
type lineCountingWC struct{ wcMapper }

func (m lineCountingWC) Map(ctx *Context, kv KV) {
	ctx.Inc("wc.lines", 1)
	m.wcMapper.Map(ctx, kv)
}

// TestFSTransportMatchesLocal proves the one driver end to end: whether
// one task at a time hands off through memory or three at a time through
// an FSTransport directory, the assembled Result is the same in output,
// in counters and in every metric that is not a measured duration — for
// reducing, folding and map-only jobs, with and without spilling.
func TestFSTransportMatchesLocal(t *testing.T) {
	var lines []string
	for i := 0; i < 200; i++ {
		lines = append(lines, fmt.Sprintf("d%d x y shared d%d u%d", i%9, i%4, i))
	}
	input := wcInput(lines...)
	jobs := []struct {
		name     string
		combiner Folder
		reducer  Reducer
	}{
		{"plain", nil, wcReducer{}},
		{"folding", foldSum{}, foldSum{}},
		{"map-only", nil, nil},
	}
	// untimed blanks the metrics that are, or derive from, measured task
	// durations.
	untimed := func(m Metrics) Metrics {
		m.MapTaskTime, m.ReduceTaskTime = nil, nil
		m.SimulatedMapTime, m.SimulatedReduce, m.SimulatedTotalTime, m.WallTime = 0, 0, 0, 0
		return m
	}
	for _, job := range jobs {
		for _, budget := range []int64{-1, 1024} {
			t.Run(fmt.Sprintf("%s/budget=%d", job.name, budget), func(t *testing.T) {
				run := func(par int, tr Transport) *Result {
					cfg := Config{Name: "wc-local", Cluster: tinyCluster(), MapTasks: 4, Parallelism: par,
						Combiner: job.combiner, MemoryBudgetBytes: budget, SpillDir: t.TempDir(), Transport: tr}
					res, err := Run(cfg, input, lineCountingWC{}, job.reducer)
					if err != nil {
						t.Fatal(err)
					}
					return res
				}
				local, fs := run(1, nil), run(3, NewFSTransport(t.TempDir()))
				if !reflect.DeepEqual(local.Output, fs.Output) {
					t.Fatalf("FSTransport output differs from local: %d vs %d records", len(local.Output), len(fs.Output))
				}
				if lc, fc := local.Counters.Snapshot(), fs.Counters.Snapshot(); !reflect.DeepEqual(lc, fc) {
					t.Fatalf("counters differ:\nlocal %v\nfs    %v", lc, fc)
				}
				if lm, fm := untimed(local.Metrics), untimed(fs.Metrics); !reflect.DeepEqual(lm, fm) {
					t.Fatalf("metrics differ:\nlocal %+v\nfs    %+v", lm, fm)
				}
				if len(fs.Metrics.MapTaskTime) != 4 || len(fs.Metrics.ReduceTaskTime) != fs.Metrics.ReduceTasks {
					t.Fatalf("task times: %d map, %d reduce", len(fs.Metrics.MapTaskTime), len(fs.Metrics.ReduceTaskTime))
				}
				if got := local.Counters.Get("wc.lines"); got != int64(len(lines)) {
					t.Fatalf("wc.lines = %d, want %d", got, len(lines))
				}
				if spilled := local.Counters.Get(CounterSpillRuns) > 0; spilled != (budget > 0 && job.reducer != nil) {
					t.Fatalf("budget %d: spill.runs = %d", budget, local.Counters.Get(CounterSpillRuns))
				}
			})
		}
	}
}

// frameCorruptions are ways a committed frame file goes bad. The envelope
// ones damage bytes; the index ones keep every checksum valid and make one
// length or count of the index — the partition count, a partition's record
// count, fan-in or section count, the meta length — decode to 2^63−1, the
// value the reader this format replaced sliced by and panicked on.
var frameCorruptions = map[string]func(t *testing.T, path string){
	"truncated": func(t *testing.T, path string) {
		if err := os.Truncate(path, 10); err != nil {
			t.Fatal(err)
		}
	},
	"header length past the file": func(t *testing.T, path string) {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint32(raw[8:], 0xFFFFFFF0)
		if err := os.WriteFile(path, raw, 0o600); err != nil {
			t.Fatal(err)
		}
	},
	"index: 2^63-1 partitions": func(t *testing.T, path string) { hugeIndexField(t, path, 0) },
	"index: 2^63-1 records":    func(t *testing.T, path string) { hugeIndexField(t, path, 1) },
	"index: 2^63-1 ways":       func(t *testing.T, path string) { hugeIndexField(t, path, 2) },
	"index: 2^63-1 sections":   func(t *testing.T, path string) { hugeIndexField(t, path, 3) },
	"index: 2^63-1 meta bytes": func(t *testing.T, path string) { hugeIndexField(t, path, -1) },
}

// hugeIndexField republishes the frame at path with the field-th uvarint
// of its index section (-1: the last, the meta length) set to 2^63−1.
func hugeIndexField(t *testing.T, path string, field int) {
	t.Helper()
	f, err := frame.Read(path)
	if err != nil {
		t.Fatal(err)
	}
	last := len(f.Sections) - 1
	d := spill.NewDec(f.Payload(last))
	fields := []uint64{d.Uvarint()}
	for i := uint64(0); i < 3*fields[0]+1; i++ {
		fields = append(fields, d.Uvarint())
	}
	if d.Err() != nil || uint64(d.Rest()) != fields[len(fields)-1] {
		t.Fatalf("index section of %s does not parse", path)
	}
	meta := f.Payload(last)[len(f.Payload(last))-d.Rest():]
	if field < 0 {
		field = len(fields) - 1
	}
	fields[field] = 1<<63 - 1
	var index []byte
	for _, v := range fields {
		index = binary.AppendUvarint(index, v)
	}
	replaceIndex(t, path, append(index, meta...))
}

// replaceIndex republishes the frame at path with another last section:
// every checksum valid, the index whatever the caller says.
func replaceIndex(tb testing.TB, path string, index []byte) {
	tb.Helper()
	f, err := frame.Read(path)
	if err != nil {
		tb.Fatal(err)
	}
	err = frame.Publish(filepath.Dir(path), filepath.Base(path), f.Header, false, func(w *frame.Writer) error {
		for i := 0; i < len(f.Sections)-1; i++ {
			if err := w.Section(f.Payload(i)); err != nil {
				return err
			}
		}
		return w.Section(index)
	})
	if err != nil {
		tb.Fatal(err)
	}
}

// fetchEach fetches one partition and replays it record by record.
func fetchEach(jt JobTransport, t, r int, emit func(key string, v any)) (int, error) {
	var recs spill.Records
	src, ways, err := jt.FetchPartition(t, r, &recs)
	for i := src.Lo; err == nil && i < src.Hi; i++ {
		emit(src.Recs.At(i))
	}
	return ways, err
}

// TestFSTransportCorruptFallback: a task has one frame, so when it is
// corrupt — in any of frameCorruptions' ways — there is nothing to fall
// back to, and every read of the task through a fresh transport handle is
// an error.
func TestFSTransportCorruptFallback(t *testing.T) {
	for name, corrupt := range frameCorruptions {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			spec := TransportSpec{Job: "fallback", MapTasks: 1, ReduceTasks: 2}
			jt, err := NewFSTransport(dir).Open(spec)
			if err != nil {
				t.Fatal(err)
			}
			sink := newShuffleSink(DefaultPartitioner, 2, nil, 0, "", nil)
			sink.add("alpha", int64(1))
			sink.add("beta", int64(2))
			sink.add("gamma", int64(3))
			if err := jt.CommitMap(0, sink, TaskMeta{Records: 3}); err != nil {
				t.Fatal(err)
			}
			corrupt(t, jt.(*fsJob).path(fsKindMap, 0))
			jt2, err := NewFSTransport(dir).Open(spec)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := jt2.MapMeta(0); err == nil {
				t.Fatal("MapMeta served a corrupt frame")
			}
			for r := 0; r < 2; r++ {
				if _, _, err := jt2.FetchPartition(0, r, new(spill.Records)); err == nil {
					t.Fatalf("FetchPartition served partition %d of a corrupt frame", r)
				}
			}
		})
	}
}

// TestFSTransportRecordLargerThanASection: a shuffle record has no size
// limit even though a frame section has. One of over 64 MiB is committed
// across sections and fetched back whole beside its small neighbours.
func TestFSTransportRecordLargerThanASection(t *testing.T) {
	if testing.Short() {
		t.Skip("commits and fetches a record of over 64 MiB")
	}
	jtI, err := NewFSTransport(t.TempDir()).Open(TransportSpec{Job: "long", MapTasks: 1, ReduceTasks: 2})
	if err != nil {
		t.Fatal(err)
	}
	jt := jtI.(*fsJob)
	big := make([]uint32, 65<<20/4)
	for i := 0; i < len(big); i += 61 {
		big[i] = uint32(i) * 2654435761
	}
	byRid := func(key string, n int) int { return int(key[0]-'0') % n }
	sink := newShuffleSink(byRid, 2, nil, 0, "", nil)
	sink.add("0-before", int64(1))
	sink.add("0-long", big)
	sink.add("0-after", int64(2))
	sink.add("1-other", int64(3))
	if err := jt.CommitMap(0, sink, TaskMeta{Records: 4}); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for r := 0; r < 2; r++ {
		_, err := fetchEach(jt, 0, r, func(key string, v any) {
			keys = append(keys, key)
			if got, _ := v.([]uint32); key == "0-long" && !slices.Equal(got, big) {
				t.Fatal("the long record differs")
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	slices.Sort(keys)
	if want := []string{"0-after", "0-before", "0-long", "1-other"}; !slices.Equal(keys, want) {
		t.Fatalf("fetched %v, want %v", keys, want)
	}
	if n := len(jt.frames[taskName(fsKindMap, 0)].parts[0].secs); n < 2 {
		t.Fatalf("partition 0 holds %d sections", n)
	}
}

// corruptingTransport damages every map frame right after its commit, so
// the job driver's own reads (MapMeta first, outside any task's guard) meet
// a task whose frame is invalid.
type corruptingTransport struct {
	Transport
	corrupt func(path string)
}

func (c corruptingTransport) Open(spec TransportSpec) (JobTransport, error) {
	jt, err := c.Transport.Open(spec)
	if err != nil {
		return nil, err
	}
	return corruptingJob{jt.(*fsJob), c.corrupt}, nil
}

type corruptingJob struct {
	*fsJob
	corrupt func(path string)
}

func (c corruptingJob) CommitMap(t int, sink *shuffleSink, meta TaskMeta) error {
	if err := c.fsJob.CommitMap(t, sink, meta); err != nil {
		return err
	}
	c.corrupt(c.path(fsKindMap, t))
	return nil
}

// TestFSTransportCorruptFrameFailsJob: a job whose map frames are all
// invalid ends in a TaskError naming the map task — never a process panic.
func TestFSTransportCorruptFrameFailsJob(t *testing.T) {
	for name, corrupt := range frameCorruptions {
		t.Run(name, func(t *testing.T) {
			cfg := Config{Name: "wc-corrupt", Cluster: tinyCluster(), MapTasks: 2}
			cfg.Transport = corruptingTransport{
				Transport: NewFSTransport(t.TempDir()),
				corrupt:   func(path string) { corrupt(t, path) },
			}
			_, err := Run(cfg, wcInput("a b c", "b c d", "c d e"), wcMapper{}, wcReducer{})
			var te *TaskError
			if !errors.As(err, &te) || te.Phase != PhaseMap || te.Job != "wc-corrupt" {
				t.Fatalf("Run = %v, want a map-phase *TaskError", err)
			}
		})
	}
}

// FuzzFSFrame gives frames the fuzz coverage checkpoints and the index
// have: whatever bytes sit where a committed frame belongs, FetchPartition,
// MapMeta and FetchOutput return what was committed or an error. index is
// the second way in: it replaces the index section inside an otherwise
// valid envelope, where only "no panic, no runaway allocation" can be
// asserted — a checksum is not a signature.
func FuzzFSFrame(f *testing.F) {
	spec := TransportSpec{Job: "fuzz", MapTasks: 1, ReduceTasks: 2}
	want := []KV{{Key: "alpha", Value: int64(1)}, {Key: "beta", Value: "two"}, {Key: "gamma", Value: []uint32{3}}}
	wantMeta := TaskMeta{Records: 3, Counters: map[string]int64{"c": 1}}
	commit := func(tb testing.TB, dir string) (mapPath, outPath string) {
		jtI, err := NewFSTransport(dir).Open(spec)
		if err != nil {
			tb.Fatal(err)
		}
		jt := jtI.(*fsJob)
		sink := newShuffleSink(DefaultPartitioner, 2, nil, 0, "", nil)
		out := new(spill.Records)
		var sz spill.Sizer
		for _, kv := range want {
			sink.add(kv.Key, kv.Value)
			out.Append(kv.Key, kv.Value, recordBytes(kv.Key, sz.Size(kv.Value)))
		}
		if err := jt.CommitMap(0, sink, wantMeta); err != nil {
			tb.Fatal(err)
		}
		if err := jt.CommitOutput(0, out, wantMeta); err != nil {
			tb.Fatal(err)
		}
		return jt.path(fsKindMap, 0), jt.path(fsKindOutput, 0)
	}
	mapPath, outPath := commit(f, f.TempDir())
	for _, p := range []string{mapPath, outPath} {
		img, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(img, []byte{2, 1, 0, 1, 2, 0, 1, 2, '{', '}'})
		f.Add(img[:len(img)/2], []byte{})
		flip := append([]byte(nil), img...)
		flip[len(flip)/2] ^= 0x10
		f.Add(flip, binary.AppendUvarint([]byte{2, 1, 0}, 1<<63-1))
	}
	f.Add([]byte("FSSHUF1\x00 a frame of the previous format"), binary.AppendUvarint(nil, 1<<63-1))

	// read fetches everything a reader can ask of task 0 and fails the
	// test when strict and something other than the commit comes back.
	read := func(t *testing.T, dir string, strict bool) {
		jt, err := NewFSTransport(dir).Open(spec)
		if err != nil {
			t.Fatal(err)
		}
		var got []KV
		complete := true
		for r := 0; r < spec.ReduceTasks; r++ {
			if _, err := fetchEach(jt, 0, r, func(key string, v any) {
				got = append(got, KV{Key: key, Value: v})
			}); err != nil {
				complete = false
			}
		}
		sort.Slice(got, func(i, j int) bool { return got[i].Key < got[j].Key })
		if strict && complete && !reflect.DeepEqual(got, want) {
			t.Fatalf("FetchPartition returned %v, committed %v", got, want)
		}
		if meta, err := jt.MapMeta(0); strict && err == nil && !reflect.DeepEqual(meta, wantMeta) {
			t.Fatalf("MapMeta returned %+v, committed %+v", meta, wantMeta)
		}
		out, meta, err := jt.FetchOutput(0)
		if strict && err == nil {
			var kvs []KV
			out.Each(func(key string, v any, _ int64) bool {
				kvs = append(kvs, KV{Key: key, Value: v})
				return true
			})
			if !reflect.DeepEqual(kvs, want) || !reflect.DeepEqual(meta, wantMeta) {
				t.Fatalf("FetchOutput returned %v %+v, committed %v %+v", kvs, meta, want, wantMeta)
			}
		}
	}
	f.Fuzz(func(t *testing.T, data, index []byte) {
		dir := t.TempDir()
		mapPath, outPath := commit(t, dir)
		for _, p := range []string{mapPath, outPath} {
			if err := os.WriteFile(p, data, 0o600); err != nil {
				t.Skip()
			}
		}
		read(t, dir, true)

		if len(index) == 0 {
			return
		}
		mapPath, outPath = commit(t, t.TempDir())
		replaceIndex(t, mapPath, index)
		replaceIndex(t, outPath, index)
		read(t, filepath.Dir(filepath.Dir(mapPath)), false)
	})
}

// TestFSTransportFingerprintRejected proves a frame from a different job
// shape fails validation instead of decoding garbage.
func TestFSTransportFingerprintRejected(t *testing.T) {
	dir := t.TempDir()
	tr := NewFSTransport(dir)
	jt, err := tr.Open(TransportSpec{Job: "shape-a", MapTasks: 1, ReduceTasks: 1})
	if err != nil {
		t.Fatal(err)
	}
	sink := newShuffleSink(DefaultPartitioner, 1, nil, 0, "", nil)
	sink.add("k", int64(1))
	if err := jt.CommitMap(0, sink, TaskMeta{}); err != nil {
		t.Fatal(err)
	}
	// A second transport over the same directory restarts its stage
	// sequence, so a job with a different shape opens the SAME stage dir
	// and finds shape-a's frame — its fingerprint must be rejected.
	stage := filepath.Join(dir, "s001-shape-a")
	frames, err := os.ReadDir(stage)
	if err != nil {
		t.Fatal(err)
	}
	var planted bool
	for _, e := range frames {
		if e.Name() == "m0" {
			planted = true
		}
	}
	if !planted {
		t.Fatal("no committed frame found")
	}
	tr2 := NewFSTransport(dir)
	jt2, err := tr2.Open(TransportSpec{Job: "shape-a", MapTasks: 1, ReduceTasks: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := jt2.FetchPartition(0, 0, new(spill.Records)); err == nil {
		t.Fatal("expected fingerprint/shape mismatch error")
	} else if !strings.Contains(err.Error(), "fingerprint") && !strings.Contains(err.Error(), "no valid frame") {
		t.Fatalf("unexpected error: %v", err)
	}
}
