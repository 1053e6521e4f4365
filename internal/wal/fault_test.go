package wal

// Fault-injected recovery: these tests prove the prefix property the
// durability subsystem rests on — after replay, the recovered record
// sequence is exactly a prefix of the acknowledged commit order, for
// every crash point and for torn, truncated and bit-flipped frames.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// buildLog writes n records into a fresh single-segment log and returns
// the segment's bytes plus the byte offset at which each record's frame
// ends (i.e. the file length after which record i is fully on disk).
func buildLog(t *testing.T, n int) (data []byte, frameEnds []int) {
	t.Helper()
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		rec := put("jobs", fmt.Sprintf("id-%03d", i), fmt.Sprintf("row-%03d", i))
		if i%5 == 4 {
			rec = del("jobs", fmt.Sprintf("id-%03d", i-1))
		}
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
		segs, err := ListSegments(dir)
		if err != nil || len(segs) != 1 {
			t.Fatalf("segments: %v %v", segs, err)
		}
		frameEnds = append(frameEnds, int(segs[0].Size))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := ListSegments(dir)
	data, err = os.ReadFile(segs[0].Path)
	if err != nil {
		t.Fatal(err)
	}
	return data, frameEnds
}

// writeSegment materializes raw segment bytes as a fresh one-segment
// log directory.
func writeSegment(t *testing.T, data []byte) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, segmentName(0)), data, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// completeFrames returns how many acknowledged records are fully
// contained in a file of length size.
func completeFrames(frameEnds []int, size int) int {
	n := 0
	for _, end := range frameEnds {
		if end <= size {
			n++
		}
	}
	return n
}

// assertPrefix fails unless recs is exactly records 0..k-1 of the
// acknowledged sequence used by buildLog.
func assertPrefix(t *testing.T, recs []Record, k int) {
	t.Helper()
	if len(recs) != k {
		t.Fatalf("replayed %d records, want prefix of %d", len(recs), k)
	}
	for i, r := range recs {
		wantID := fmt.Sprintf("id-%03d", i)
		wantOp := OpPut
		if i%5 == 4 {
			wantID = fmt.Sprintf("id-%03d", i-1)
			wantOp = OpDelete
		}
		if r.ID != wantID || r.Op != wantOp {
			t.Fatalf("record %d = {%d %s}, want {%d %s}", i, r.Op, r.ID, wantOp, wantID)
		}
		if wantOp == OpPut && string(r.Row) != fmt.Sprintf("row-%03d", i) {
			t.Fatalf("record %d row = %q (torn row surfaced)", i, r.Row)
		}
	}
}

// TestCrashAtEveryWritePoint truncates the log at every byte offset —
// every possible crash point during a write — and asserts recovery
// yields exactly the records whose frames were complete, never a torn
// or phantom row.
func TestCrashAtEveryWritePoint(t *testing.T) {
	const n = 40
	data, frameEnds := buildLog(t, n)
	for size := 0; size <= len(data); size++ {
		dir := writeSegment(t, data[:size])
		var recs []Record
		stats, err := Replay(dir, func(r Record) error {
			recs = append(recs, r)
			return nil
		})
		if err != nil {
			t.Fatalf("size %d: replay error: %v", size, err)
		}
		want := completeFrames(frameEnds, size)
		assertPrefix(t, recs, want)
		// A file ending exactly at the magic or at a frame boundary is
		// a clean end; any other truncation point must be flagged.
		cleanEnd := size == len(segmentMagic) || (want > 0 && frameEnds[want-1] == size)
		if size > len(segmentMagic) && !cleanEnd && !stats.TornTail {
			t.Fatalf("size %d: truncation not reported as torn tail", size)
		}
	}
}

// TestCrashAtEveryWritePointSurvivesReopen: at every crash point, a
// repaired reopen (what OpenDurable does) plus a second replay still
// sees the same prefix — the repair never invents or drops records.
func TestCrashAtEveryWritePointSurvivesReopen(t *testing.T) {
	const n = 12
	data, frameEnds := buildLog(t, n)
	for size := 0; size <= len(data); size += 3 {
		dir := writeSegment(t, data[:size])
		l, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("size %d: reopen: %v", size, err)
		}
		if err := l.Append(put("jobs", "post-crash", "pc")); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		var recs []Record
		if _, err := Replay(dir, func(r Record) error {
			recs = append(recs, r)
			return nil
		}); err != nil {
			t.Fatalf("size %d: second replay: %v", size, err)
		}
		want := completeFrames(frameEnds, size)
		if len(recs) != want+1 {
			t.Fatalf("size %d: replayed %d, want %d + post-crash record", size, len(recs), want)
		}
		assertPrefix(t, recs[:want], want)
		if recs[want].ID != "post-crash" {
			t.Fatalf("size %d: last record = %q", size, recs[want].ID)
		}
	}
}

// TestBitFlipEveryByte flips each byte of the log in turn. Recovery
// must never panic and must always return a clean prefix of the
// acknowledged sequence — a flipped frame kills itself and everything
// after it, never corrupts what came before.
func TestBitFlipEveryByte(t *testing.T) {
	const n = 20
	data, frameEnds := buildLog(t, n)
	for pos := 0; pos < len(data); pos++ {
		mut := append([]byte(nil), data...)
		mut[pos] ^= 0x40
		dir := writeSegment(t, mut)
		var recs []Record
		_, err := Replay(dir, func(r Record) error {
			recs = append(recs, r)
			return nil
		})
		if err != nil {
			// Header corruption on the only (final) segment is
			// tolerated as a torn tail, so no error is acceptable
			// here; anything else is a bug.
			t.Fatalf("pos %d: replay error: %v", pos, err)
		}
		// Whatever survived must be an exact prefix, and the flipped
		// frame itself must not have been delivered.
		k := len(recs)
		assertPrefix(t, recs, k)
		if flipped := completeFrames(frameEnds, pos); k > flipped {
			t.Fatalf("pos %d: %d records surfaced but flip landed in frame %d", pos, k, flipped)
		}
	}
}

// TestInteriorCorruptionIsAnError: a bad frame in a sealed (non-final)
// segment is not a crash artifact — replay must refuse it loudly
// instead of silently skipping committed data.
func TestInteriorCorruptionIsAnError(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if err := l.Append(put("t", fmt.Sprintf("id-%d", i), "some row content here")); err != nil {
			t.Fatal(err)
		}
		if i%10 == 9 {
			if _, err := l.Rotate(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := ListSegments(dir)
	if len(segs) < 2 {
		t.Fatalf("need ≥2 segments, got %d", len(segs))
	}
	data, err := os.ReadFile(segs[0].Path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-3] ^= 0xff
	if err := os.WriteFile(segs[0].Path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Replay(dir, func(Record) error { return nil })
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("interior corruption: err = %v, want ErrCorrupt", err)
	}
}

// TestTruncatedSegmentHeader: a final segment too short to hold even
// the magic is treated as an empty torn tail, and Open removes it.
func TestTruncatedSegmentHeader(t *testing.T) {
	dir := writeSegment(t, []byte(segmentMagic[:3]))
	var recs []Record
	stats, err := Replay(dir, func(r Record) error {
		recs = append(recs, r)
		return nil
	})
	if err != nil || len(recs) != 0 || !stats.TornTail {
		t.Fatalf("replay = %d recs, %+v, %v", len(recs), stats, err)
	}
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	segs, _ := ListSegments(dir)
	for _, s := range segs {
		if s.Size < int64(len(segmentMagic)) {
			t.Fatalf("headerless segment survived repair: %+v", s)
		}
	}
}
