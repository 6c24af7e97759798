// Durable attachment and self-maintenance for the probe index
// (DESIGN.md §14). Persist binds an index to a directory: a fresh snapshot
// generation is written and an empty WAL opened, after which every
// acknowledged Insert/Delete is WAL-logged before it is applied. The
// AutoCompact policy then keeps the index healthy without operator help:
// Maintain (driven by fsjoin.Server's maintenance goroutine, or by any
// caller on its own schedule) folds the overlay and rolls the generation
// forward when the side-log outgrows its thresholds.
//
// Generation roll (rollLocked, the one sequence Persist and every durable
// compaction run): write snapshot g+1 (via internal/checkpoint) → create
// empty wal.g+1 (both frame.Publish: temp → fsync → rename → fsync
// directory) → switch appends to the new log → retire wal.g and snapshot g.
// A crash at any boundary recovers from either the old snapshot+WAL or the
// new snapshot — never a mix — because recovery always picks the newest
// loadable snapshot generation and replays only that generation's WAL (the
// header binds gen and fingerprint).
package probeindex

import (
	"errors"
	"fmt"
	"os"
	"time"

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
	ix.dir, ix.dopt = dir, d
	if err := ix.rollLocked(); err != nil {
		ix.dir = ""
		return err
	}
	ix.lastCompact = time.Now()
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
	defer ix.mu.Unlock()
	if ix.wal == nil {
		return nil
	}
	if ix.wal.policy.Mode == SyncInterval && time.Since(ix.wal.lastSync) >= ix.wal.policy.interval() {
		synced, err := ix.wal.flush()
		ix.walSynced.Add(synced)
		if err != nil {
			return err
		}
	}
	return ix.maybeCompactLocked()
}

// maybeCompactLocked compacts and checkpoints if the auto-compaction policy
// says the overlay has outgrown its thresholds. A disabled policy, an empty
// overlay or an unelapsed MinInterval all make it a cheap no-op.
func (ix *Index) maybeCompactLocked() error {
	p := ix.dopt.AutoCompact
	logSize := ix.logLive + ix.baseDead
	if !p.enabled() || logSize == 0 {
		return nil
	}
	due := p.MaxLogRecords > 0 && logSize >= p.MaxLogRecords ||
		p.LogFraction > 0 && float64(logSize) >= p.LogFraction*float64(max(ix.liveN, 1))
	if !due || p.MinInterval > 0 && time.Since(ix.lastCompact) < p.MinInterval {
		return nil
	}
	if err := ix.checkpointLocked(); err != nil {
		return err
	}
	ix.autoCompactions.Add(1)
	return nil
}

// checkpointLocked folds the overlay and rolls the durable state one
// generation forward under a held write lock (Compact and the
// auto-compaction policy on a durable index).
func (ix *Index) checkpointLocked() error {
	frame.Kill("compact.pre")
	ix.compactLocked()
	return ix.rollLocked()
}

// rollLocked makes a new generation current under a held write lock: write
// the index as the snapshot one past the newest generation in ix.dir,
// install a fresh WAL for it, close the old log and retire every older
// generation. Persist rolls with no old log; a checkpoint rolls after its
// fold. Failure handling keeps the invariant "the newest snapshot on disk +
// its WAL = the acknowledged history":
//
//   - snapshot write fails → nothing changed on disk; the old generation
//     (snapshot + WAL) stays authoritative. A checkpoint's in-memory fold is
//     harmless: WAL records are logical (strings and rids), so appends to
//     the OLD log still replay correctly onto the OLD snapshot.
//   - WAL create fails → the new snapshot must not be left to shadow the
//     still-active old WAL; it is removed. If even that fails the old log
//     is poisoned so no further mutation can be acknowledged against a
//     directory whose recovery would diverge.
func (ix *Index) rollLocked() error {
	gen, err := ix.writeGenerationLocked(ix.dir)
	if err != nil {
		return err
	}
	frame.Kill("compact.snapshot.written")
	w, err := createWAL(ix.dir, gen, fingerprint(ix.fn, ix.theta, ix.bitmap), ix.dopt.Sync)
	if err != nil {
		if rerr := os.Remove(snapshotPath(ix.dir, gen)); rerr != nil && !errors.Is(rerr, os.ErrNotExist) && ix.wal != nil {
			ix.wal.broken = true
		}
		return err
	}
	frame.Kill("compact.wal.created")
	if ix.wal != nil {
		ix.wal.close()
	}
	ix.wal, ix.gen = w, gen
	retireGenerations(ix.dir, gen)
	frame.Kill("compact.retired")
	return nil
}
