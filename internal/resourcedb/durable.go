package resourcedb

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"uvacg/internal/pipeline"
	"uvacg/internal/wal"
)

// DurableStore is a Store whose every table mutation is write-ahead
// logged before it is acknowledged: the crash-safe replacement for the
// explicit whole-store snapshots WSRF.NET leans on its ODBC database
// for. Open replays snapshot + log to the last committed write;
// compaction folds the log back into the UVDB1 snapshot format and
// truncates old segments.
//
// Layout under the data directory:
//
//	snapshot.db          last compacted UVDB1 snapshot (may be absent)
//	wal-<index>.log      CRC-framed segments, replayed in index order
type DurableStore struct {
	*Store
	dir  string
	opts DurableOptions
	log  *wal.Log

	// compactMu serializes compactions; compacting gates the background
	// trigger so at most one runs at a time.
	compactMu  sync.Mutex
	compacting atomic.Bool
	wg         sync.WaitGroup

	replayed       uint64
	tornTail       bool
	compactions    atomic.Uint64
	bytesAtCompact atomic.Uint64 // log bytes when the last compaction ran
	compactErr     atomic.Value  // last background compaction error (string)
}

// DurableOptions configure OpenDurable.
type DurableOptions struct {
	// Sync fsyncs every group commit (the durable default). Off, a
	// process crash still loses nothing but a machine crash can lose
	// OS-buffered commits.
	Sync bool
	// SegmentBytes is the WAL segment rotation threshold (default 4 MiB).
	SegmentBytes int64
	// CompactBytes triggers a background compaction once live WAL bytes
	// exceed it. 0 means the 8 MiB default; negative disables automatic
	// compaction (Compact can still be called explicitly).
	CompactBytes int64
	// Metrics, when set, records commit/replay/compaction timings under
	// the "/wal" path alongside the per-action call metrics.
	Metrics *pipeline.Metrics
}

const snapshotFile = "snapshot.db"

// OpenDurable opens (or creates) the durable store rooted at dir,
// recovering its state from the last snapshot plus the committed WAL
// suffix. Tables created afterwards via CreateTable/MustTable are
// journaled automatically.
func OpenDurable(dir string, opts DurableOptions) (*DurableStore, error) {
	if opts.CompactBytes == 0 {
		opts.CompactBytes = 8 << 20
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	ds := &DurableStore{Store: NewStore(), dir: dir, opts: opts}
	ds.Store.journal = ds

	start := time.Now()
	snapPath := filepath.Join(dir, snapshotFile)
	if _, err := os.Stat(snapPath); err == nil {
		if err := ds.Store.LoadFile(snapPath); err != nil {
			return nil, fmt.Errorf("resourcedb: load snapshot: %w", err)
		}
	} else if !os.IsNotExist(err) {
		return nil, err
	}
	stats, err := wal.Replay(dir, ds.applyRecord)
	if err != nil {
		return nil, fmt.Errorf("resourcedb: wal replay: %w", err)
	}
	ds.replayed, ds.tornTail = stats.Records, stats.TornTail
	if opts.Metrics != nil {
		opts.Metrics.Record(pipeline.Key{Path: "/wal", Action: "replay"}, time.Since(start), false)
	}

	log, err := wal.Open(dir, wal.Options{Sync: opts.Sync, SegmentBytes: opts.SegmentBytes})
	if err != nil {
		return nil, err
	}
	ds.log = log
	// The growth trigger in maybeCompact counts only bytes written by
	// this process; segments inherited from the last run would otherwise
	// be invisible to it, leaving restart-heavy workloads paying full
	// replay cost forever. Pay the replay debt down now.
	if opts.CompactBytes >= 0 && log.SizeBytes() >= opts.CompactBytes {
		ds.kickCompaction()
	}
	return ds, nil
}

// applyRecord replays one journaled mutation onto the in-memory tables.
// Replayed puts overwrite and replayed deletes tolerate missing rows,
// so a log suffix overlapping the snapshot (the compaction boundary)
// re-applies harmlessly.
func (ds *DurableStore) applyRecord(rec wal.Record) error {
	switch rec.Op {
	case wal.OpPut:
		codec, err := codecByName(rec.Codec)
		if err != nil {
			return err
		}
		return ds.Store.MustTable(rec.Table, codec).putRaw(rec.ID, rec.Row)
	case wal.OpDelete:
		if t, ok := ds.Store.Table(rec.Table); ok {
			t.deleteRaw(rec.ID)
		}
		return nil
	}
	return fmt.Errorf("resourcedb: unknown wal op %d", rec.Op)
}

// enqueuePut implements tableJournal.
func (ds *DurableStore) enqueuePut(table, codec, id string, row []byte) (uint64, error) {
	return ds.log.Enqueue(wal.Record{Op: wal.OpPut, Table: table, Codec: codec, ID: id, Row: row})
}

// enqueueDelete implements tableJournal.
func (ds *DurableStore) enqueueDelete(table, id string) (uint64, error) {
	return ds.log.Enqueue(wal.Record{Op: wal.OpDelete, Table: table, ID: id})
}

// waitDurable implements tableJournal: the group-commit wait, plus the
// compaction trigger and commit metrics.
func (ds *DurableStore) waitDurable(seq uint64) error {
	start := time.Now()
	err := ds.log.WaitDurable(seq)
	if ds.opts.Metrics != nil {
		ds.opts.Metrics.Record(pipeline.Key{Path: "/wal", Action: "commit"}, time.Since(start), err != nil)
	}
	if err == nil {
		ds.maybeCompact()
	}
	return err
}

// maybeCompact kicks one background compaction when the log has grown
// past the threshold since the last one. The check is two atomic loads,
// cheap enough for the per-commit path.
func (ds *DurableStore) maybeCompact() {
	if ds.opts.CompactBytes < 0 {
		return
	}
	grown := ds.log.Stats().Bytes - ds.bytesAtCompact.Load()
	if int64(grown) < ds.opts.CompactBytes {
		return
	}
	ds.kickCompaction()
}

// kickCompaction starts one background compaction unless one is already
// running.
func (ds *DurableStore) kickCompaction() {
	if !ds.compacting.CompareAndSwap(false, true) {
		return
	}
	ds.wg.Add(1)
	go func() {
		defer ds.wg.Done()
		defer ds.compacting.Store(false)
		if err := ds.Compact(); err != nil {
			ds.compactErr.Store(err.Error())
		}
	}()
}

// Compact folds the committed log into a fresh snapshot and deletes the
// segments it covers: rotate the WAL (sealing everything enqueued so
// far below the returned boundary), snapshot the tables, then drop the
// sealed segments. Records landing in the fresh segment during the
// snapshot may appear in both — replay is idempotent, so the overlap is
// harmless. Safe to call concurrently with commits.
func (ds *DurableStore) Compact() error {
	ds.compactMu.Lock()
	defer ds.compactMu.Unlock()
	start := time.Now()
	bound, err := ds.log.Rotate()
	if err == nil {
		if err = ds.Store.SaveFile(filepath.Join(ds.dir, snapshotFile)); err == nil {
			err = ds.log.RemoveSegmentsBelow(bound)
		}
	}
	if ds.opts.Metrics != nil {
		ds.opts.Metrics.Record(pipeline.Key{Path: "/wal", Action: "compact"}, time.Since(start), err != nil)
	}
	if err != nil {
		return fmt.Errorf("resourcedb: compact: %w", err)
	}
	ds.bytesAtCompact.Store(ds.log.Stats().Bytes)
	ds.compactions.Add(1)
	return nil
}

// Close waits for any background compaction and closes the WAL. The
// in-memory tables stay readable; further mutations fail.
func (ds *DurableStore) Close() error {
	ds.wg.Wait()
	return ds.log.Close()
}

// Dir returns the data directory.
func (ds *DurableStore) Dir() string { return ds.dir }

// DurabilityStats snapshots the durability counters: the WAL's commit
// machinery plus this store's recovery and compaction history.
type DurabilityStats struct {
	WAL             wal.Stats
	ReplayedRecords uint64 // records replayed by OpenDurable
	TornTail        bool   // last recovery ended at a torn frame
	Compactions     uint64
	WALBytes        int64 // live segment bytes (replay debt)
}

// Stats returns current durability counters.
func (ds *DurableStore) Stats() DurabilityStats {
	return DurabilityStats{
		WAL:             ds.log.Stats(),
		ReplayedRecords: ds.replayed,
		TornTail:        ds.tornTail,
		Compactions:     ds.compactions.Load(),
		WALBytes:        ds.log.SizeBytes(),
	}
}
