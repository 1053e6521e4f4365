// Package wal is a segmented, CRC-framed write-ahead log with batched
// group commit. It is the durability layer under resourcedb: every table
// mutation is journaled as a Record and acknowledged only once the frame
// is on disk (fsynced when Options.Sync is set), so a crash loses at
// most the unacknowledged tail. Recovery replays the snapshot-plus-log
// and stops at the first invalid frame — acknowledged commits form a
// strict prefix of the replayed sequence, never a torn or phantom row.
//
// Concurrency model: Enqueue assigns a sequence number and buffers the
// encoded frame under the log mutex (no I/O); WaitDurable elects the
// first waiter as the flush leader, which writes and syncs everything
// buffered so far in one batch while later committers queue behind it —
// a single fsync amortized across concurrent committers.
package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// segmentMagic opens every segment file.
const segmentMagic = "UVWAL1\n"

// segmentPrefix/-Suffix name segment files: wal-<index>.log with a
// fixed-width hex index so lexical order is replay order.
const (
	segmentPrefix = "wal-"
	segmentSuffix = ".log"
)

func segmentName(index uint64) string {
	return fmt.Sprintf("%s%016x%s", segmentPrefix, index, segmentSuffix)
}

func parseSegmentName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, segmentPrefix) || !strings.HasSuffix(name, segmentSuffix) {
		return 0, false
	}
	idx, err := strconv.ParseUint(name[len(segmentPrefix):len(name)-len(segmentSuffix)], 16, 64)
	if err != nil {
		return 0, false
	}
	return idx, true
}

// Options configure a Log.
type Options struct {
	// Sync fsyncs each group commit before acknowledging it. Off, the
	// log still writes every frame but a machine crash can lose
	// OS-buffered commits (a process crash cannot).
	Sync bool
	// SegmentBytes rotates to a fresh segment once the active one
	// exceeds this size. Defaults to 4 MiB.
	SegmentBytes int64
}

// Stats are monotonic counters accumulated by a Log.
type Stats struct {
	Commits  uint64 // acknowledged records
	Batches  uint64 // flushes (group commits)
	Syncs    uint64 // fsync calls
	Bytes    uint64 // frame bytes written
	Rotation uint64 // segment rotations
}

// Log is an append-only segmented record journal.
type Log struct {
	dir  string
	opts Options

	mu       sync.Mutex
	cond     *sync.Cond
	buf      []byte // encoded frames awaiting the next flush
	spare    []byte // retired batch buffer, recycled into buf (double buffering)
	seq      uint64 // last enqueued record
	durable  uint64 // last record on disk (synced when opts.Sync)
	flushing bool   // a leader is writing
	err      error  // sticky I/O failure; all later commits fail

	seg      *os.File
	segIndex uint64
	segSize  int64

	commits, batches, syncs, bytes, rotations atomic.Uint64
}

// Open creates dir if needed and starts a fresh segment after any
// existing ones. Appending never reuses an old segment, so a torn tail
// left by a crash stays where replay can recognize it.
func Open(dir string, opts Options) (*Log, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = 4 << 20
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	// Persist the data directory's own entry: a segment fsync is useless
	// if the directory holding it vanishes with a power loss.
	if err := syncDir(filepath.Dir(filepath.Clean(dir))); err != nil {
		return nil, err
	}
	segs, err := ListSegments(dir)
	if err != nil {
		return nil, err
	}
	next := uint64(0)
	if n := len(segs); n > 0 {
		next = segs[n-1].Index + 1
		// Truncate any torn tail the last crash left, so this segment
		// is clean once it becomes an interior one — replay treats
		// interior invalid frames as corruption, not as a crash mark.
		if err := repairTailSegment(segs[n-1]); err != nil {
			return nil, err
		}
	}
	l := &Log{dir: dir, opts: opts}
	l.cond = sync.NewCond(&l.mu)
	if err := l.openSegmentLocked(next); err != nil {
		return nil, err
	}
	return l, nil
}

// openSegmentLocked starts segment index; callers hold l.mu (or own the
// log exclusively). The directory fsync makes the new segment's entry
// durable — without it a power loss can drop a file whose frames were
// themselves fsynced, losing acknowledged commits.
func (l *Log) openSegmentLocked(index uint64) error {
	f, err := os.OpenFile(filepath.Join(l.dir, segmentName(index)), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.WriteString(segmentMagic); err != nil {
		f.Close()
		return err
	}
	if err := syncDir(l.dir); err != nil {
		f.Close()
		return err
	}
	l.seg, l.segIndex, l.segSize = f, index, int64(len(segmentMagic))
	return nil
}

// syncDir fsyncs a directory so file creations and removals within it
// survive a power loss.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// Enqueue buffers one record and returns its sequence number. No I/O
// happens here; the record is not durable until WaitDurable returns.
func (l *Log) Enqueue(rec Record) (uint64, error) {
	if rec.Table == "" || rec.ID == "" {
		return 0, fmt.Errorf("wal: record needs table and id")
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return 0, l.err
	}
	l.buf = appendFrame(l.buf, rec)
	l.seq++
	return l.seq, nil
}

// WaitDurable blocks until record seq is on disk. The first waiter
// becomes the flush leader and writes every buffered frame in one
// batch; the rest sleep until the leader's broadcast covers them.
func (l *Log) WaitDurable(seq uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for {
		if l.err != nil {
			return l.err
		}
		if l.durable >= seq {
			return nil
		}
		if !l.flushing {
			l.flushLocked()
			continue
		}
		l.cond.Wait()
	}
}

// Append enqueues recs and waits for their durability: the common
// single-call commit path.
func (l *Log) Append(recs ...Record) error {
	var last uint64
	for _, rec := range recs {
		seq, err := l.Enqueue(rec)
		if err != nil {
			return err
		}
		last = seq
	}
	if last == 0 {
		return nil
	}
	return l.WaitDurable(last)
}

// maxSpareBytes caps the batch buffer the log recycles between
// flushes; an occasional giant batch is returned to the GC rather than
// pinned forever.
const maxSpareBytes = 1 << 20

// flushLocked writes and (optionally) syncs everything buffered, as the
// elected leader. Called with l.mu held; releases it around the I/O.
func (l *Log) flushLocked() {
	l.flushing = true
	batch := l.buf
	if l.spare != nil {
		l.buf, l.spare = l.spare[:0], nil
	} else {
		l.buf = nil
	}
	target := l.seq
	l.mu.Unlock()

	err := l.writeBatch(batch)

	l.mu.Lock()
	l.flushing = false
	l.recycleLocked(batch)
	if err != nil {
		l.err = fmt.Errorf("wal: %w", err)
	} else {
		n := target - l.durable
		l.durable = target
		l.commits.Add(n)
		l.batches.Add(1)
		l.bytes.Add(uint64(len(batch)))
	}
	l.cond.Broadcast()
}

// recycleLocked keeps a flushed batch's capacity for the next flush
// cycle, so steady-state group commit stops allocating batch buffers.
func (l *Log) recycleLocked(batch []byte) {
	if batch == nil || cap(batch) > maxSpareBytes {
		return
	}
	if l.buf == nil {
		l.buf = batch[:0]
	} else if l.spare == nil {
		l.spare = batch[:0]
	}
}

// writeBatch is the leader's I/O: append the batch, fsync when
// configured, rotate past full segments. Only one leader runs at a
// time, so the segment fields are safe to touch without l.mu.
func (l *Log) writeBatch(batch []byte) error {
	if len(batch) > 0 {
		if _, err := l.seg.Write(batch); err != nil {
			return err
		}
		l.segSize += int64(len(batch))
	}
	if l.opts.Sync {
		if err := l.seg.Sync(); err != nil {
			return err
		}
		l.syncs.Add(1)
	}
	if l.segSize >= l.opts.SegmentBytes {
		if err := l.rotateSegment(); err != nil {
			return err
		}
	}
	return nil
}

func (l *Log) rotateSegment() error {
	if err := l.seg.Sync(); err != nil {
		return err
	}
	if err := l.seg.Close(); err != nil {
		return err
	}
	l.rotations.Add(1)
	return l.openSegmentLocked(l.segIndex + 1)
}

// Rotate flushes everything buffered and seals the active segment,
// returning the index of the fresh segment now accepting writes. Every
// record enqueued before the call lives in a segment below the returned
// index — the boundary compaction snapshots against.
func (l *Log) Rotate() (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.flushing {
		l.cond.Wait()
	}
	if l.err != nil {
		return 0, l.err
	}
	batch := l.buf
	l.buf = nil
	target := l.seq
	if len(batch) > 0 {
		if _, err := l.seg.Write(batch); err != nil {
			l.err = fmt.Errorf("wal: %w", err)
			l.cond.Broadcast()
			return 0, l.err
		}
		l.bytes.Add(uint64(len(batch)))
		l.batches.Add(1)
		l.commits.Add(target - l.durable)
		l.recycleLocked(batch)
	}
	if err := l.rotateSegment(); err != nil {
		l.err = fmt.Errorf("wal: %w", err)
		l.cond.Broadcast()
		return 0, l.err
	}
	l.syncs.Add(1)
	l.durable = target
	l.cond.Broadcast()
	return l.segIndex, nil
}

// RemoveSegmentsBelow deletes sealed segments with index < bound —
// compaction's truncation step, safe once a snapshot covers them. The
// removals are fsynced; if a crash resurrects a removed segment anyway,
// replay over the covering snapshot converges (puts are whole-row
// overwrites and every later write replays after it).
func (l *Log) RemoveSegmentsBelow(bound uint64) error {
	segs, err := ListSegments(l.dir)
	if err != nil {
		return err
	}
	removed := false
	for _, s := range segs {
		if s.Index >= bound {
			continue
		}
		l.mu.Lock()
		active := s.Index == l.segIndex
		l.mu.Unlock()
		if active {
			continue
		}
		if err := os.Remove(s.Path); err != nil {
			return err
		}
		removed = true
	}
	if !removed {
		return nil
	}
	return syncDir(l.dir)
}

// SizeBytes reports the byte total of all live segments — the replay
// debt a restart would pay, and the trigger for compaction.
func (l *Log) SizeBytes() int64 {
	segs, err := ListSegments(l.dir)
	if err != nil {
		return 0
	}
	var total int64
	for _, s := range segs {
		total += s.Size
	}
	return total
}

// Stats returns a snapshot of the log's counters.
func (l *Log) Stats() Stats {
	return Stats{
		Commits:  l.commits.Load(),
		Batches:  l.batches.Load(),
		Syncs:    l.syncs.Load(),
		Bytes:    l.bytes.Load(),
		Rotation: l.rotations.Load(),
	}
}

// Close flushes buffered frames, syncs and closes the active segment.
// Commits issued after Close fail.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.flushing {
		l.cond.Wait()
	}
	if l.err != nil {
		// Sticky failure: the segment may be unusable; still try to close.
		l.seg.Close()
		return l.err
	}
	if len(l.buf) > 0 {
		if _, err := l.seg.Write(l.buf); err != nil {
			l.seg.Close()
			l.err = err
			return err
		}
		l.durable = l.seq
		l.buf = nil
	}
	if err := l.seg.Sync(); err != nil {
		l.seg.Close()
		l.err = err
		return err
	}
	l.err = fmt.Errorf("wal: log closed")
	return l.seg.Close()
}

// Segment describes one on-disk segment file.
type Segment struct {
	Index uint64
	Path  string
	Size  int64
}

// ListSegments returns dir's segments in replay order.
func ListSegments(dir string) ([]Segment, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var segs []Segment
	for _, e := range entries {
		idx, ok := parseSegmentName(e.Name())
		if !ok || e.IsDir() {
			continue
		}
		info, err := e.Info()
		if err != nil {
			return nil, err
		}
		segs = append(segs, Segment{Index: idx, Path: filepath.Join(dir, e.Name()), Size: info.Size()})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].Index < segs[j].Index })
	return segs, nil
}
