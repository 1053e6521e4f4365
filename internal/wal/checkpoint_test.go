package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// checkpointOf writes a checkpoint of recs into l.
func checkpointOf(t testing.TB, l *Log, recs ...Record) {
	t.Helper()
	if err := l.Checkpoint(func(add func(Record) error) error {
		for _, r := range recs {
			if err := add(r); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func replayIDs(t *testing.T, dir string) []string {
	t.Helper()
	recs, _ := replayAll(t, dir)
	var ids []string
	for _, r := range recs {
		ids = append(ids, r.ID)
	}
	return ids
}

// TestReplayStartsAtNewestCheckpoint: of two checkpoints, replay reads
// the newer one and what follows it. A segment from below it that a
// crash brings back after its removal is never read, even one whose
// puts were deleted later, and the next checkpoint removes it.
func TestReplayStartsAtNewestCheckpoint(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(put("t", "ghost", "g")); err != nil {
		t.Fatal(err)
	}
	segs, _ := ListSegments(dir)
	ghost, err := os.ReadFile(segs[0].Path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(del("t", "ghost"), put("t", "a", "1")); err != nil {
		t.Fatal(err)
	}
	checkpointOf(t, l, put("t", "a", "1"))
	if err := l.Append(put("t", "b", "2")); err != nil {
		t.Fatal(err)
	}
	checkpointOf(t, l, put("t", "a", "1"), put("t", "b", "2"))
	if err := l.Append(put("t", "c", "3")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a", "b", "c"}
	if got := replayIDs(t, dir); !reflect.DeepEqual(got, want) {
		t.Fatalf("replay ids = %v, want %v", got, want)
	}

	if err := os.WriteFile(segs[0].Path, ghost, 0o644); err != nil {
		t.Fatal(err)
	}
	if got := replayIDs(t, dir); !reflect.DeepEqual(got, want) {
		t.Fatalf("with the removed segment back, replay ids = %v, want %v", got, want)
	}
	l, err = Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	checkpointOf(t, l, put("t", "a", "1"), put("t", "b", "2"), put("t", "c", "3"))
	if _, err := os.Stat(segs[0].Path); !os.IsNotExist(err) {
		t.Fatalf("the checkpoint kept the segment below the last one: %v", err)
	}
}

// checkpointedLog returns a closed log directory holding a checkpoint
// of three puts and, after it, a segment with one more put, plus the
// checkpoint segment's path.
func checkpointedLog(t testing.TB) (dir, checkpoint string) {
	t.Helper()
	dir = t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	checkpointOf(t, l, put("t", "a", "row-a"), put("t", "b", "row-b"), put("u", "c", "row-c"))
	if err := l.Append(put("t", "d", "row-d")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := ListSegments(dir)
	if len(segs) != 2 {
		t.Fatalf("segments = %+v, want the checkpoint and the active one", segs)
	}
	return dir, segs[0].Path
}

// TestCheckpointCutShortIsCorrupt: a checkpoint segment cut at any byte
// — a frame boundary included, where only the closing record is
// missing — or with any byte flipped, is refused as corruption, never
// read as a smaller state; and Open does not truncate it.
func TestCheckpointCutShortIsCorrupt(t *testing.T) {
	dir, path := checkpointedLog(t)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := replayIDs(t, dir); !reflect.DeepEqual(got, []string{"a", "b", "c", "d"}) {
		t.Fatalf("whole checkpoint replays %v", got)
	}
	refused := func(what string, mut []byte) {
		t.Helper()
		if err := os.WriteFile(path, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Replay(dir, func(Record) error { return nil }); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: replay err = %v, want ErrCorrupt", what, err)
		}
	}
	for size := 0; size < len(data); size++ {
		refused(fmt.Sprintf("cut at %d", size), data[:size])
	}
	for pos := range data {
		mut := append([]byte(nil), data...)
		mut[pos] ^= 0x40
		refused(fmt.Sprintf("flip at %d", pos), mut)
	}

	// The checkpoint as the last segment: Open leaves it whole.
	cut := data[:len(data)-1]
	if err := os.WriteFile(path, cut, 0o644); err != nil {
		t.Fatal(err)
	}
	segs, _ := ListSegments(dir)
	if err := os.Remove(segs[1].Path); err != nil {
		t.Fatal(err)
	}
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	if kept, _ := os.ReadFile(path); len(kept) != len(cut) {
		t.Fatalf("Open cut the checkpoint to %d bytes, want %d", len(kept), len(cut))
	}
	if _, err := Replay(dir, func(Record) error { return nil }); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("after Open, replay err = %v, want ErrCorrupt", err)
	}
}

// TestOpenRemovesStaleTemp: a temporary checkpoint a crash left behind
// is never replayed, and Open removes it.
func TestOpenRemovesStaleTemp(t *testing.T) {
	dir, _ := checkpointedLog(t)
	tmp := filepath.Join(dir, checkpointTemp)
	if err := os.WriteFile(tmp, []byte(checkpointMagic+"junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := replayIDs(t, dir); !reflect.DeepEqual(got, []string{"a", "b", "c", "d"}) {
		t.Fatalf("replay ids = %v", got)
	}
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("stale temp survived Open: %v", err)
	}
}

// FuzzReplay: whatever bytes a segment holds, as the last segment or
// below another, Replay returns records or an error and never panics,
// and Open's repair never panics either.
func FuzzReplay(f *testing.F) {
	dir, path := checkpointedLog(f)
	checkpoint, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	segs, _ := ListSegments(dir)
	plain, err := os.ReadFile(segs[1].Path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(checkpoint)
	f.Add(checkpoint[:len(checkpoint)/2])
	f.Add(plain)
	f.Add([]byte{})
	f.Add([]byte(segmentMagic))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, below := range []bool{false, true} {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, segmentName(0)), data, 0o644); err != nil {
				t.Fatal(err)
			}
			if below {
				if err := os.WriteFile(filepath.Join(dir, segmentName(1)), []byte(segmentMagic), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			Replay(dir, func(r Record) error {
				if r.Op != OpPut && r.Op != OpDelete {
					t.Fatalf("replay delivered op %d", r.Op)
				}
				return nil
			})
			if l, err := Open(dir, Options{}); err == nil {
				l.Close()
			}
		}
	})
}
