package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
)

func put(table, id, row string) Record {
	return Record{Op: OpPut, Table: table, Codec: "blob", ID: id, Row: []byte(row)}
}

func del(table, id string) Record {
	return Record{Op: OpDelete, Table: table, ID: id}
}

func replayAll(t *testing.T, dir string) ([]Record, ReplayStats) {
	t.Helper()
	var recs []Record
	stats, err := Replay(dir, func(r Record) error {
		recs = append(recs, r)
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return recs, stats
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	want := []Record{
		put("jobs", "j1", "state-1"),
		put("jobs", "j2", "state-2"),
		del("jobs", "j1"),
		put("dirs", "d1", "path"),
	}
	for _, r := range want {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, stats := replayAll(t, dir)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replay = %+v, want %+v", got, want)
	}
	if stats.Records != 4 || stats.TornTail {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	l, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(put("t", "x", "y")); err == nil {
		t.Fatal("append after close succeeded")
	}
}

func TestEnqueueValidation(t *testing.T) {
	l, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.Enqueue(Record{Op: OpPut, ID: "x"}); err == nil {
		t.Error("record without table accepted")
	}
	if _, err := l.Enqueue(Record{Op: OpPut, Table: "t"}); err == nil {
		t.Error("record without id accepted")
	}
}

// TestGroupCommitConcurrent drives many concurrent committers and
// checks that (a) every acknowledged record replays, (b) the flush
// machinery actually batched: far fewer fsyncs than commits.
func TestGroupCommitConcurrent(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	const workers, perWorker = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				id := fmt.Sprintf("w%d-%d", w, i)
				if err := l.Append(put("jobs", id, "row")); err != nil {
					t.Errorf("append %s: %v", id, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	stats := l.Stats()
	if stats.Commits != workers*perWorker {
		t.Fatalf("commits = %d", stats.Commits)
	}
	if stats.Syncs >= stats.Commits {
		t.Fatalf("no batching: %d syncs for %d commits", stats.Syncs, stats.Commits)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	recs, _ := replayAll(t, dir)
	if len(recs) != workers*perWorker {
		t.Fatalf("replayed %d records", len(recs))
	}
	seen := make(map[string]bool, len(recs))
	for _, r := range recs {
		seen[r.ID] = true
	}
	if len(seen) != workers*perWorker {
		t.Fatalf("replay lost records: %d unique ids", len(seen))
	}
}

func TestSegmentRotationAndReplayOrder(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	const n = 50
	for i := 0; i < n; i++ {
		if err := l.Append(put("t", fmt.Sprintf("id-%03d", i), "rowdata-rowdata-rowdata")); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := ListSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("expected rotation, got %d segments", len(segs))
	}
	recs, stats := replayAll(t, dir)
	if stats.Segments != len(segs) {
		t.Fatalf("replayed %d of %d segments", stats.Segments, len(segs))
	}
	if len(recs) != n {
		t.Fatalf("replayed %d records", len(recs))
	}
	for i, r := range recs {
		if want := fmt.Sprintf("id-%03d", i); r.ID != want {
			t.Fatalf("record %d = %q, want %q (order broken)", i, r.ID, want)
		}
	}
}

func TestRotateAndRemoveSegments(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := l.Append(put("t", fmt.Sprintf("old-%d", i), "x")); err != nil {
			t.Fatal(err)
		}
	}
	bound, err := l.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(put("t", "new-0", "y")); err != nil {
		t.Fatal(err)
	}
	if err := l.RemoveSegmentsBelow(bound); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	recs, _ := replayAll(t, dir)
	if len(recs) != 1 || recs[0].ID != "new-0" {
		t.Fatalf("after truncation, replay = %+v", recs)
	}
}

// TestReopenStartsFreshSegment: restarting after a torn tail repairs
// the old segment and appends into a new one; two crashes in a row must
// still replay cleanly (the torn segment becomes an interior one).
func TestReopenStartsFreshSegment(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(put("t", "a", "1")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash tail: append garbage to the last segment.
	segs, _ := ListSegments(dir)
	f, err := os.OpenFile(segs[len(segs)-1].Path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xde, 0xad, 0xbe}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l2.Append(put("t", "b", "2")); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	recs, stats := replayAll(t, dir)
	var ids []string
	for _, r := range recs {
		ids = append(ids, r.ID)
	}
	if !reflect.DeepEqual(ids, []string{"a", "b"}) {
		t.Fatalf("replay ids = %v", ids)
	}
	if stats.TornTail {
		t.Fatal("repair left a torn tail visible")
	}
}

func TestSegmentNameRoundTrip(t *testing.T) {
	for _, idx := range []uint64{0, 1, 255, 1 << 40} {
		name := segmentName(idx)
		got, ok := parseSegmentName(name)
		if !ok || got != idx {
			t.Fatalf("parse(%q) = %d, %v", name, got, ok)
		}
	}
	if _, ok := parseSegmentName("snapshot.db"); ok {
		t.Fatal("snapshot.db parsed as segment")
	}
	if _, ok := parseSegmentName(filepath.Base("wal-zzzz.log")); ok {
		t.Fatal("bad hex parsed as segment")
	}
}

// TestFlushRecyclesBatchBuffer: the double buffer keeps a flushed
// batch's capacity for later enqueues, except for oversized batches,
// which go back to the GC.
func TestFlushRecyclesBatchBuffer(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(put("t", "a", "row")); err != nil {
		t.Fatal(err)
	}
	l.mu.Lock()
	recycled := cap(l.buf)
	l.mu.Unlock()
	if recycled == 0 {
		t.Fatal("flushed batch buffer was not recycled")
	}

	big := make([]byte, maxSpareBytes+1)
	if err := l.Append(Record{Op: OpPut, Table: "t", Codec: "blob", ID: "big", Row: big}); err != nil {
		t.Fatal(err)
	}
	l.mu.Lock()
	kept := cap(l.buf) + cap(l.spare)
	l.mu.Unlock()
	if kept > maxSpareBytes {
		t.Fatalf("oversized batch pinned: %d bytes retained", kept)
	}

	if err := l.Append(put("t", "b", "row")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	recs, _ := replayAll(t, dir)
	var ids []string
	for _, r := range recs {
		ids = append(ids, r.ID)
	}
	if !reflect.DeepEqual(ids, []string{"a", "big", "b"}) {
		t.Fatalf("replay ids = %v", ids)
	}
}
