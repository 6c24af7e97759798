package probeindex

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"fsjoin/internal/frame"
	"fsjoin/internal/testutil"
)

// The crash-kill harness proves the durability contract at every protocol
// boundary: it dies (panics in-process, or SIGKILLs a forked child) at a
// named kill point, reopens the directory, and checks the recovered index
// against a brute-force oracle over the acknowledged mutation prefix. One
// op may be in flight at the kill moment; its fate is indeterminate by
// construction (the crash razor falls between append and acknowledgement),
// so the recovered state must equal the oracle either with or without it —
// but never anything else.

// killPanic is the sentinel the harness panics with; anything else
// escaping a scenario is a real bug and re-panicked.
type killPanic struct{ point string }

// killPoints is the full durability boundary matrix, all through the one
// hook of internal/frame: WAL append (before, mid-section and after the
// append), the compaction protocol, and the temp/fsync/rename boundaries
// of frame.Publish ("save.*") — which the snapshot writer and, since the
// log is created by a publish too, the WAL rotation both cross.
var killPoints = []string{
	"wal.append.pre", "wal.append.mid", "wal.append.post",
	"compact.pre", "compact.snapshot.written", "compact.wal.created", "compact.retired",
	"save.start", "save.synced", "save.renamed",
}

// scriptOp is one scripted mutation: run drives the index, apply replays
// the same logical change onto the oracle once the op is acknowledged.
type scriptOp struct {
	desc  string
	run   func(ix *Index) error
	apply func(live map[int32][]string)
}

// killScript mixes inserts, deletes and explicit compactions so every kill
// point in the matrix has something to fire on. The base corpus holds rids
// 0..39, so scripted inserts are assigned 40, 41, ... in order.
func killScript() []scriptOp {
	ins := func(rid int32, toks ...string) scriptOp {
		return scriptOp{
			desc: fmt.Sprintf("insert %d", rid),
			run: func(ix *Index) error {
				got, err := ix.Insert(toks)
				if err == nil && got != rid {
					return fmt.Errorf("insert assigned rid %d, script expects %d", got, rid)
				}
				return err
			},
			apply: func(live map[int32][]string) { live[rid] = toks },
		}
	}
	del := func(rid int32) scriptOp {
		return scriptOp{
			desc:  fmt.Sprintf("delete %d", rid),
			run:   func(ix *Index) error { return ix.Delete(rid) },
			apply: func(live map[int32][]string) { delete(live, rid) },
		}
	}
	compact := scriptOp{
		desc:  "compact",
		run:   func(ix *Index) error { return ix.Compact() },
		apply: func(map[int32][]string) {},
	}
	return []scriptOp{
		ins(40, "alpha", "beta"),
		ins(41, "beta", "gamma", "delta"),
		del(5),
		ins(42, "alpha", "delta"),
		del(40),
		compact,
		ins(43, "epsilon", "beta"),
		del(41),
		ins(44, "alpha", "gamma"),
		compact,
		ins(45, "zeta"),
	}
}

func copyState(m map[int32][]string) map[int32][]string {
	out := make(map[int32][]string, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// stateEqual compares two rid→token-set maps as sets.
func stateEqual(a, b map[int32][]string) bool {
	norm := func(m map[int32][]string) map[int32]string {
		out := make(map[int32]string, len(m))
		for rid, ts := range m {
			set := map[string]bool{}
			for _, s := range ts {
				set[s] = true
			}
			uniq := make([]string, 0, len(set))
			for s := range set {
				uniq = append(uniq, s)
			}
			for i := range uniq {
				for j := i + 1; j < len(uniq); j++ {
					if uniq[j] < uniq[i] {
						uniq[i], uniq[j] = uniq[j], uniq[i]
					}
				}
			}
			out[rid] = strings.Join(uniq, "\x00")
		}
		return out
	}
	na, nb := norm(a), norm(b)
	if len(na) != len(nb) {
		return false
	}
	for rid, s := range na {
		if nb[rid] != s {
			return false
		}
	}
	return true
}

// checkProbeOracle verifies probe answers over the recovered state are
// byte-identical to the brute-force oracle on a sample of live records.
func checkProbeOracle(t *testing.T, label string, ix *Index, live map[int32][]string) {
	t.Helper()
	n := 0
	for rid, toks := range live {
		got, err := ix.ProbeRecord(rid)
		if err != nil {
			t.Fatalf("%s: probe rid %d: %v", label, rid, err)
		}
		want := oracleProbe(live, toks, durOpt.Fn, durOpt.Theta, rid, true)
		assertMatches(t, fmt.Sprintf("%s rid %d", label, rid), got, want)
		if n++; n >= 6 {
			break
		}
	}
}

// runKillScenario drives the script against a fresh durable index with a
// panic armed at the (after+1)-th hit of point. It reports whether the
// kill fired; when it did, the reopened directory must hold exactly the
// acknowledged prefix (± the single in-flight op), answer probes like the
// oracle, and accept a fresh Persist + mutation afterwards.
func runKillScenario(t *testing.T, point string, after int) bool {
	t.Helper()
	dir := t.TempDir()
	ix, live := buildDurable(t, dir, DurableOptions{Sync: SyncPolicy{Mode: SyncAlways}})
	ops := killScript()

	hits := 0
	hook := func(p string) {
		if p == point {
			hits++
			if hits > after {
				panic(killPanic{p})
			}
		}
	}
	frame.SetKillHook(hook)
	defer frame.SetKillHook(nil)

	killed := false
	inflight := -1
	func() {
		defer func() {
			r := recover()
			if r == nil {
				return
			}
			if _, ok := r.(killPanic); !ok {
				panic(r)
			}
			killed = true
		}()
		for i := range ops {
			inflight = i
			if err := ops[i].run(ix); err != nil {
				t.Fatalf("%s: op %d (%s): %v", point, i, ops[i].desc, err)
			}
			ops[i].apply(live)
			inflight = -1
		}
	}()
	frame.SetKillHook(nil)
	if !killed {
		return false
	}

	// The process "died". Reopen the directory cold.
	ld, err := Load(dir, durOpt)
	if err != nil {
		t.Fatalf("%s after op %d: recovery failed: %v", point, inflight, err)
	}
	got := liveSets(ld)
	withInflight := copyState(live)
	if inflight >= 0 {
		ops[inflight].apply(withInflight)
	}
	if !stateEqual(got, live) && !stateEqual(got, withInflight) {
		t.Fatalf("%s killed during op %d (%s): recovered state matches neither the acknowledged prefix nor prefix+inflight\n got: %v\nwant: %v", point, inflight, ops[inflight].desc, got, live)
	}
	checkProbeOracle(t, point, ld, got)

	// The directory must stay fully writable: roll a fresh generation
	// forward and push one more durable mutation through it.
	if err := ld.Persist(dir, DurableOptions{Sync: SyncPolicy{Mode: SyncAlways}}); err != nil {
		t.Fatalf("%s: re-Persist after recovery: %v", point, err)
	}
	rid, err := ld.Insert([]string{"post-crash"})
	if err != nil {
		t.Fatalf("%s: insert after recovery: %v", point, err)
	}
	got[rid] = []string{"post-crash"}
	if err := ld.Close(); err != nil {
		t.Fatalf("%s: close after recovery: %v", point, err)
	}
	ld2, err := Load(dir, durOpt)
	if err != nil {
		t.Fatalf("%s: second recovery: %v", point, err)
	}
	if !stateEqual(liveSets(ld2), got) {
		t.Fatalf("%s: post-crash mutation lost across reopen", point)
	}
	return true
}

// TestCrashKillMatrix dies at every durability boundary (several
// occurrences each) and proves recovery: zero acknowledged mutations lost,
// no unacknowledged mutation surfaced beyond the single in-flight op, and
// probe answers byte-identical to the brute-force oracle.
func TestCrashKillMatrix(t *testing.T) {
	for _, point := range killPoints {
		t.Run(point, func(t *testing.T) {
			fired := 0
			for after := 0; after < 3; after++ {
				if runKillScenario(t, point, after) {
					fired++
				}
			}
			if fired == 0 {
				t.Fatalf("kill point %s never fired", point)
			}
		})
	}
}

// --- Forked-process SIGKILL harness -----------------------------------

// crashChild is the re-exec'd workload: build, persist, then hammer the
// index with deterministic mutations, journaling each op's intent (before
// running it) and acknowledgement (after it returns) to a synced side
// file, until the parent SIGKILLs the process. Exit codes: 3 = setup or
// mutation failure (the parent fails the test on anything it can observe
// via the side file's integrity check).
func crashChild(dir, side string) {
	c := testutil.RandomCollection(40, 25, 10, 91)
	ix, err := Build(c, tokenName, durOpt)
	if err != nil {
		os.Exit(3)
	}
	d := DurableOptions{
		Sync:        SyncPolicy{Mode: SyncAlways},
		AutoCompact: AutoCompactPolicy{MaxLogRecords: 6},
	}
	if err := ix.Persist(dir, d); err != nil {
		os.Exit(3)
	}
	sf, err := os.OpenFile(side, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o600)
	if err != nil {
		os.Exit(3)
	}
	rng := rand.New(rand.NewSource(7))
	liveRids := make([]int32, 0, 64)
	for rid := int32(0); rid < 40; rid++ {
		liveRids = append(liveRids, rid)
	}
	nextRID := int32(40)
	for i := 0; i < 1_000_000; i++ {
		if rng.Intn(4) > 0 || len(liveRids) == 0 {
			n := 1 + rng.Intn(3)
			toks := make([]string, n)
			for j := range toks {
				toks[j] = fmt.Sprintf("t%06d", rng.Intn(25))
			}
			fmt.Fprintf(sf, "ins %s\n", strings.Join(toks, " "))
			sf.Sync()
			rid, err := ix.Insert(toks)
			if err != nil || rid != nextRID {
				os.Exit(3)
			}
			nextRID++
			liveRids = append(liveRids, rid)
		} else {
			k := rng.Intn(len(liveRids))
			rid := liveRids[k]
			fmt.Fprintf(sf, "del %d\n", rid)
			sf.Sync()
			if err := ix.Delete(rid); err != nil {
				os.Exit(3)
			}
			liveRids = append(liveRids[:k], liveRids[k+1:]...)
		}
		fmt.Fprintln(sf, "ack")
		sf.Sync()
		if i%7 == 6 {
			if err := ix.Maintain(); err != nil {
				os.Exit(3)
			}
		}
	}
	os.Exit(0)
}

// sideOp is one journaled child mutation.
type sideOp struct {
	del  bool
	rid  int32
	toks []string
}

// parseSideLog reads the child's intent/ack journal: ops in order, plus
// how many of them were acknowledged. A torn final line (the write the
// SIGKILL interrupted) is ignored.
func parseSideLog(raw []byte) (ops []sideOp, acked int) {
	for _, line := range strings.Split(string(raw), "\n") {
		switch {
		case line == "ack":
			acked = len(ops)
		case strings.HasPrefix(line, "ins "):
			ops = append(ops, sideOp{toks: strings.Fields(line[4:])})
		case strings.HasPrefix(line, "del "):
			rid, err := strconv.Atoi(line[4:])
			if err != nil {
				continue
			}
			ops = append(ops, sideOp{del: true, rid: int32(rid)})
		}
	}
	return ops, acked
}

// TestCrashKillProcess SIGKILLs a real child process mid-workload (so the
// kill can land anywhere: mid-append, mid-compaction, mid-rename) and
// verifies the reopened index equals the journaled acknowledged prefix,
// give or take the one indeterminate in-flight op.
func TestCrashKillProcess(t *testing.T) {
	if os.Getenv("FSJOIN_CRASH_CHILD") == "1" {
		crashChild(os.Getenv("FSJOIN_CRASH_DIR"), os.Getenv("FSJOIN_CRASH_SIDE"))
		return
	}
	if testing.Short() {
		t.Skip("forked crash harness skipped in -short")
	}
	for round, delay := range []time.Duration{15 * time.Millisecond, 40 * time.Millisecond, 80 * time.Millisecond} {
		dir := t.TempDir()
		side := filepath.Join(t.TempDir(), "ops.journal")
		cmd := exec.Command(os.Args[0], "-test.run=^TestCrashKillProcess$")
		cmd.Env = append(os.Environ(),
			"FSJOIN_CRASH_CHILD=1",
			"FSJOIN_CRASH_DIR="+dir,
			"FSJOIN_CRASH_SIDE="+side,
		)
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		time.Sleep(delay)
		cmd.Process.Kill()
		cmd.Wait()

		raw, err := os.ReadFile(side)
		if err != nil && !errors.Is(err, os.ErrNotExist) {
			t.Fatal(err)
		}
		ops, acked := parseSideLog(raw)

		// Oracle: base corpus plus the acknowledged prefix.
		want := map[int32][]string{}
		for _, r := range testutil.RandomCollection(40, 25, 10, 91).Records {
			want[r.RID] = dedupStrings(names(r.Tokens))
		}
		nextRID := int32(40)
		applyOp := func(m map[int32][]string, op sideOp, next *int32) {
			if op.del {
				delete(m, op.rid)
				return
			}
			m[*next] = op.toks
			*next++
		}
		for _, op := range ops[:acked] {
			applyOp(want, op, &nextRID)
		}
		withInflight := copyState(want)
		nextWith := nextRID
		if acked < len(ops) {
			applyOp(withInflight, ops[acked], &nextWith)
		}

		ld, err := Load(dir, durOpt)
		if err != nil {
			// The only excuse is dying before the initial Persist finished —
			// in which case nothing was ever acknowledged.
			if errors.Is(err, ErrNoIndex) && len(ops) == 0 {
				t.Logf("round %d: child died before Persist completed", round)
				continue
			}
			t.Fatalf("round %d: recovery failed with %d acked ops: %v", round, acked, err)
		}
		got := liveSets(ld)
		if !stateEqual(got, want) && !stateEqual(got, withInflight) {
			t.Fatalf("round %d: recovered state matches neither the %d acknowledged ops nor +inflight (%d ops journaled)", round, acked, len(ops))
		}
		checkProbeOracle(t, fmt.Sprintf("round %d", round), ld, got)
		t.Logf("round %d: %d ops journaled, %d acked, recovered gen %d", round, len(ops), acked, ld.Stats().Generation)
	}
}

// --- Concurrency under maintenance ------------------------------------

// TestConcurrentDurableMaintenance races probes and stats readers against
// a mutating writer while the maintenance path (group-commit flush +
// auto-compaction) runs concurrently — under -race this proves the lock
// discipline, and the final reload proves no mutation was lost across the
// auto-compactions.
func TestConcurrentDurableMaintenance(t *testing.T) {
	dir := t.TempDir()
	d := DurableOptions{
		Sync:        SyncPolicy{Mode: SyncInterval, Interval: time.Millisecond},
		AutoCompact: AutoCompactPolicy{MaxLogRecords: 8},
	}
	ix, live := buildDurable(t, dir, d)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				ix.Probe([]string{"t000001", "t000002", "alpha"})
				_ = ix.Stats()
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := ix.Maintain(); err != nil {
				t.Errorf("maintain: %v", err)
				return
			}
		}
	}()

	// Single mutator keeps the oracle deterministic.
	rng := rand.New(rand.NewSource(13))
	var rids []int32
	for rid := range live {
		rids = append(rids, rid)
	}
	for i := range rids { // deterministic order for the rng choices
		for j := i + 1; j < len(rids); j++ {
			if rids[j] < rids[i] {
				rids[i], rids[j] = rids[j], rids[i]
			}
		}
	}
	for i := 0; i < 400; i++ {
		if rng.Intn(3) > 0 || len(rids) == 0 {
			toks := []string{fmt.Sprintf("c%d", rng.Intn(40)), "alpha"}
			rid, err := ix.Insert(toks)
			if err != nil {
				t.Fatal(err)
			}
			live[rid] = toks
			rids = append(rids, rid)
		} else {
			k := rng.Intn(len(rids))
			rid := rids[k]
			if err := ix.Delete(rid); err != nil {
				t.Fatal(err)
			}
			delete(live, rid)
			rids = append(rids[:k], rids[k+1:]...)
		}
		if i%25 == 24 {
			// Yield so the maintenance goroutine can observe an overgrown
			// overlay and compact while probes keep hammering.
			time.Sleep(2 * time.Millisecond)
		}
	}
	close(stop)
	wg.Wait()

	if st := ix.Stats(); st.AutoCompactions == 0 {
		t.Error("auto-compaction never triggered under the mutation load")
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	ld, err := Load(dir, durOpt)
	if err != nil {
		t.Fatal(err)
	}
	assertSameState(t, "post-race reload", liveSets(ld), live)
}
