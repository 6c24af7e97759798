// Durable attachment and self-maintenance for the probe index
// (DESIGN.md §14). Persist binds an index to a directory: a fresh snapshot
// generation is written and an empty WAL opened, after which every
// acknowledged Insert/Delete is WAL-logged before it is applied. The
// AutoCompact policy then keeps the index healthy without operator help:
// MaybeCompact (driven by fsjoin.Server's maintenance goroutine, or by any
// caller on its own schedule) folds the overlay and rolls the generation
// forward when the side-log outgrows its thresholds.
//
// Checkpoint crash protocol (checkpointLocked): write snapshot g+1
// (via internal/checkpoint) → create empty wal.g+1 (both frame.Publish:
// temp → fsync → rename → fsync directory) → switch appends to the new log → retire
// wal.g and snapshot g. A crash at any boundary recovers from either the
// old snapshot+WAL or the new snapshot — never a mix — because recovery
// always picks the newest loadable snapshot generation and replays only
// that generation's WAL (the header binds gen and fingerprint).
package probeindex

import (
	"errors"
	"fmt"
	"os"
	"time"

	"fsjoin/internal/checkpoint"
	"fsjoin/internal/frame"
)

// AutoCompactPolicy decides when a durable index folds its side-log
// overlay into a fresh snapshot generation. The zero value disables
// auto-compaction (manual Compact still works).
type AutoCompactPolicy struct {
	// LogFraction triggers compaction when the overlay (live log inserts +
	// base tombstones) reaches this fraction of the live record count;
	// 0 disables the fractional trigger.
	LogFraction float64
	// MaxLogRecords triggers compaction when the overlay reaches this many
	// records regardless of corpus size; 0 disables the absolute trigger.
	MaxLogRecords int
	// MinInterval spaces compactions: once one has run, another will not
	// auto-trigger for this long, bounding snapshot-write churn under
	// mutation storms. 0 means no spacing.
	MinInterval time.Duration
}

// enabled reports whether any trigger is armed.
func (p AutoCompactPolicy) enabled() bool {
	return p.LogFraction > 0 || p.MaxLogRecords > 0
}

func (p AutoCompactPolicy) validate() error {
	if p.LogFraction < 0 || p.MaxLogRecords < 0 || p.MinInterval < 0 {
		return fmt.Errorf("probeindex: negative auto-compact policy %+v", p)
	}
	return nil
}

// DurableOptions configures Persist: how WAL appends reach disk and when
// the index compacts itself. Durability knobs are deliberately NOT part of
// the persistence fingerprint — changing the fsync policy between runs
// must not invalidate a saved index.
type DurableOptions struct {
	Sync        SyncPolicy
	AutoCompact AutoCompactPolicy
}

func (d DurableOptions) validate() error {
	if err := d.Sync.validate(); err != nil {
		return err
	}
	return d.AutoCompact.validate()
}

// Persist makes the index durable in dir: the current state is written as
// a fresh snapshot generation and an empty WAL is opened next to it. From then on every Insert/Delete is
// appended to the WAL — synced per d.Sync — before it is acknowledged, so
// Load(dir) after a crash recovers exactly the acknowledged history.
// Older generations and their logs are retired. Close releases the WAL.
func (ix *Index) Persist(dir string, d DurableOptions) error {
	if err := d.validate(); err != nil {
		return err
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if ix.wal != nil {
		return fmt.Errorf("probeindex: index already durable in %s", ix.dir)
	}
	st, err := checkpoint.Open(dir)
	if err != nil {
		return err
	}
	gen := maxGeneration(dir) + 1
	ix.dir, ix.dopt = dir, d
	if err := ix.writeSnapshotLocked(st, gen); err != nil {
		ix.dir = ""
		return err
	}
	w, err := createWAL(dir, gen, fingerprint(ix.fn, ix.theta, ix.bitmap), d.Sync)
	if err != nil {
		os.Remove(snapshotPath(dir, gen))
		ix.dir = ""
		return err
	}
	ix.wal, ix.gen = w, gen
	ix.lastCompact = time.Now()
	retireGenerations(dir, gen)
	return nil
}

// Close flushes and closes the WAL, detaching the index from its
// directory. The on-disk state stays loadable; further mutations are
// purely in-memory again. Safe on a never-persisted index.
func (ix *Index) Close() error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if ix.wal == nil {
		return nil
	}
	err := ix.wal.close()
	ix.wal = nil
	ix.dir = ""
	return err
}

// Durable reports whether the index has an attached WAL.
func (ix *Index) Durable() bool {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.wal != nil
}

// Maintain runs one maintenance pass: pending group-commit WAL bytes are
// flushed (so SyncInterval's loss window holds even when no mutation
// arrives to piggyback on) and the auto-compaction policy is evaluated.
// fsjoin.Server drives this from its supervised maintenance goroutine.
func (ix *Index) Maintain() error {
	ix.mu.Lock()
	if ix.wal != nil && ix.wal.policy.Mode == SyncInterval &&
		time.Since(ix.wal.lastSync) >= ix.wal.policy.interval() {
		synced, err := ix.wal.flush()
		ix.walSynced.Add(synced)
		if err != nil {
			ix.mu.Unlock()
			return err
		}
	}
	ix.mu.Unlock()
	_, err := ix.MaybeCompact()
	return err
}

// MaybeCompact compacts and checkpoints if the auto-compaction policy says
// the overlay has outgrown its thresholds, reporting whether it ran. A
// non-durable index, a disabled policy, an empty overlay or an unelapsed
// MinInterval all make it a cheap no-op.
func (ix *Index) MaybeCompact() (bool, error) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	p := ix.dopt.AutoCompact
	if ix.wal == nil || !p.enabled() {
		return false, nil
	}
	logSize := ix.logLive + ix.baseDead
	if logSize == 0 {
		return false, nil
	}
	due := p.MaxLogRecords > 0 && logSize >= p.MaxLogRecords
	if !due && p.LogFraction > 0 {
		base := ix.liveN
		if base < 1 {
			base = 1
		}
		due = float64(logSize) >= p.LogFraction*float64(base)
	}
	if !due {
		return false, nil
	}
	if p.MinInterval > 0 && time.Since(ix.lastCompact) < p.MinInterval {
		return false, nil
	}
	if err := ix.checkpointLocked(true); err != nil {
		return false, err
	}
	ix.autoCompactions.Add(1)
	return true, nil
}

// checkpointLocked rolls the durable state one generation forward under a
// held write lock: optionally fold the overlay, write snapshot gen+1,
// install a fresh WAL, retire the old generation. Failure handling keeps
// the invariant "the newest snapshot on disk + its WAL = the acknowledged
// history":
//
//   - snapshot write fails → nothing changed on disk; the old generation
//     (snapshot + WAL) stays authoritative. The in-memory fold is harmless:
//     WAL records are logical (strings and rids), so appends to the OLD log
//     still replay correctly onto the OLD snapshot.
//   - WAL create fails → the new snapshot must not be left to shadow the
//     still-active old WAL; it is removed. If even that fails the old log
//     is poisoned so no further mutation can be acknowledged against a
//     directory whose recovery would diverge.
func (ix *Index) checkpointLocked(fold bool) error {
	frame.Kill("compact.pre")
	if fold {
		ix.compactLocked()
	}
	st, err := checkpoint.Open(ix.dir)
	if err != nil {
		return err
	}
	newGen := ix.gen + 1
	if err := ix.writeSnapshotLocked(st, newGen); err != nil {
		return err
	}
	frame.Kill("compact.snapshot.written")
	w, err := createWAL(ix.dir, newGen, fingerprint(ix.fn, ix.theta, ix.bitmap), ix.dopt.Sync)
	if err != nil {
		if rerr := os.Remove(snapshotPath(ix.dir, newGen)); rerr != nil && !errors.Is(rerr, os.ErrNotExist) {
			ix.wal.broken = true
		}
		return err
	}
	frame.Kill("compact.wal.created")
	old := ix.wal
	ix.wal, ix.gen = w, newGen
	old.close()
	os.Remove(walPath(ix.dir, newGen-1))
	os.Remove(snapshotPath(ix.dir, newGen-1))
	retireGenerations(ix.dir, newGen)
	frame.Kill("compact.retired")
	return nil
}

// Checkpoint forces a durable snapshot of the current state (overlay
// included, not folded) and a WAL rotation — Save for a live durable
// index. Callers wanting the fold too use Compact.
func (ix *Index) Checkpoint() error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if ix.wal == nil {
		return errors.New("probeindex: Checkpoint on a non-durable index (use Save)")
	}
	return ix.checkpointLocked(false)
}
