package resourcedb

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"uvacg/internal/wal"
)

// onlySegments fails unless dir holds nothing but WAL segments, and
// returns them.
func onlySegments(t *testing.T, dir string) []wal.Segment {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	segs, err := wal.ListSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(segs) {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("data dir holds %v, want only wal-<n>.log segments", names)
	}
	return segs
}

// readFiles returns every file in dir by name.
func readFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string][]byte, len(entries))
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = data
	}
	return files
}

// writeFiles materializes files as a fresh directory.
func writeFiles(t *testing.T, files map[string][]byte) string {
	t.Helper()
	dir := t.TempDir()
	for name, data := range files {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// rowModel is the acknowledged state: table -> id -> the CPUTime of
// its jobDoc("Running", …).
type rowModel map[string]map[string]int

// assertRows fails unless ds holds exactly the rows of want.
func assertRows(t *testing.T, ds *DurableStore, want rowModel) {
	t.Helper()
	for table, rows := range want {
		tbl, ok := ds.Table(table)
		if !ok {
			if len(rows) != 0 {
				t.Fatalf("table %s missing, want %d rows", table, len(rows))
			}
			continue
		}
		ids := make([]string, 0, len(rows))
		for id := range rows {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		if got := tbl.IDs(); !reflect.DeepEqual(got, ids) {
			t.Fatalf("table %s holds %v, want %v", table, got, ids)
		}
		for id, cpu := range rows {
			doc, ok, err := tbl.Get(id)
			if err != nil || !ok || !doc.Equal(jobDoc("Running", cpu)) {
				t.Fatalf("%s/%s: found %v, err %v:\n%s", table, id, ok, err, doc)
			}
		}
	}
}

// mutate applies one put (cpu >= 0) or delete (cpu < 0) to ds and to
// the model, once the store has acknowledged it.
func mutate(t *testing.T, ds *DurableStore, model rowModel, table, id string, cpu int) {
	t.Helper()
	codec := Codec(StructuredCodec{})
	if table == "blobs" {
		codec = BlobCodec{}
	}
	tbl := ds.MustTable(table, codec)
	if cpu < 0 {
		if _, err := tbl.Delete(id); err != nil {
			t.Fatal(err)
		}
		delete(model[table], id)
		return
	}
	if err := tbl.Put(id, jobDoc("Running", cpu)); err != nil {
		t.Fatal(err)
	}
	model[table][id] = cpu
}

// TestCheckpointRoundTrip: a compacted store reopens with each table's
// codec, the structured table's property index rebuilt, and its data
// dir holding the checkpoint and the active segment only, no temporary
// file.
func TestCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	ds := openDurable(t, dir, DurableOptions{CompactBytes: -1})
	model := rowModel{"jobs": {}, "blobs": {}}
	for i := 0; i < 10; i++ {
		mutate(t, ds, model, "jobs", fmt.Sprintf("j%d", i), i)
	}
	mutate(t, ds, model, "blobs", "d1", 7)
	if err := ds.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	if segs := onlySegments(t, dir); len(segs) != 2 {
		t.Fatalf("segments %+v, want the checkpoint and the active one", segs)
	}
	ds2 := openDurable(t, dir, DurableOptions{CompactBytes: -1})
	defer ds2.Close()
	assertRows(t, ds2, model)
	jobs, _ := ds2.Table("jobs")
	blobs, _ := ds2.Table("blobs")
	if jobs.codec.Name() != "structured" || blobs.codec.Name() != "blob" {
		t.Fatalf("codecs %q and %q after the checkpoint", jobs.codec.Name(), blobs.codec.Name())
	}
	if got, err := jobs.QueryProperty("Status", "Running"); err != nil || len(got) != 10 {
		t.Fatalf("QueryProperty after the checkpoint = %v, %v", got, err)
	}
}

// TestCompactionCrashAtEachStep builds, from the files of one real
// compaction, what a crash leaves on disk at each of its steps, and
// reopens each: the state is always every acknowledged write. The log
// before the compaction has three segments; the first puts "ghost",
// which the second deletes, so the first one coming back without the
// second would resurrect it if it were read.
func TestCompactionCrashAtEachStep(t *testing.T) {
	dir := t.TempDir()
	model := rowModel{"jobs": {}, "blobs": {}}
	opts := DurableOptions{Sync: true, CompactBytes: -1}
	ds := openDurable(t, dir, opts)
	mutate(t, ds, model, "jobs", "ghost", 1)
	mutate(t, ds, model, "jobs", "a", 1)
	mutate(t, ds, model, "blobs", "x", 1)
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	ds = openDurable(t, dir, opts)
	mutate(t, ds, model, "jobs", "ghost", -1)
	mutate(t, ds, model, "jobs", "a", 2)
	mutate(t, ds, model, "blobs", "y", 1)
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	ds = openDurable(t, dir, opts)
	mutate(t, ds, model, "jobs", "b", 1)
	mutate(t, ds, model, "blobs", "x", -1)
	before := readFiles(t, dir)
	if err := ds.Compact(); err != nil {
		t.Fatal(err)
	}
	mutate(t, ds, model, "jobs", "c", 1)
	mutate(t, ds, model, "jobs", "a", 3)
	mutate(t, ds, model, "jobs", "b", -1)
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	after := readFiles(t, dir)

	var s []string
	for name := range before {
		s = append(s, name)
	}
	sort.Strings(s)
	if len(s) != 3 {
		t.Fatalf("before the compaction: %v, want three segments", s)
	}
	for name := range after {
		if before[name] == nil {
			s = append(s, name)
		}
	}
	if len(s) != 4 || len(after) != 2 || after[s[2]] == nil {
		t.Fatalf("after the compaction: %d files, want %s and the segment it opened", len(after), s[2])
	}
	files := func(pairs ...any) map[string][]byte {
		out := make(map[string][]byte)
		for i := 0; i < len(pairs); i += 2 {
			out[pairs[i].(string)] = pairs[i+1].([]byte)
		}
		return out
	}
	states := map[string]map[string][]byte{
		// The temporary checkpoint is written and fsynced, not renamed.
		"temp-written-not-renamed": files(s[0], before[s[0]], s[1], before[s[1]], s[2], before[s[2]],
			"checkpoint.tmp", after[s[2]], s[3], after[s[3]]),
		// Renamed, and a power loss before the directory fsync dropped
		// both the rename and the temporary file's entry: s2 is the
		// sealed segment again. (Had the rename reached the disk, the
		// state is the next one.)
		"renamed-dir-not-fsynced": files(s[0], before[s[0]], s[1], before[s[1]], s[2], before[s[2]], s[3], after[s[3]]),
		// Renamed and fsynced; the segments below are not yet removed.
		"renamed-old-segments-not-removed": files(s[0], before[s[0]], s[1], before[s[1]], s[2], after[s[2]], s[3], after[s[3]]),
		// Removed, and a crash brought the oldest segment back: its
		// put of "ghost" sits below the checkpoint, its delete is gone.
		"removed-segment-brought-back": files(s[0], before[s[0]], s[2], after[s[2]], s[3], after[s[3]]),
		// A later compaction died with its temporary file half written.
		"stale-temp": files(s[2], after[s[2]], s[3], after[s[3]], "checkpoint.tmp", []byte("UVCKP1\nhalf")),
		"done":       after,
	}
	for name, state := range states {
		t.Run(name, func(t *testing.T) {
			dir := writeFiles(t, state)
			ds := openDurable(t, dir, opts)
			assertRows(t, ds, model)
			for f := range readFiles(t, dir) {
				if strings.HasSuffix(f, ".tmp") {
					t.Fatalf("reopen left %s", f)
				}
			}
			// The recovered store compacts and reopens to the same state.
			if err := ds.Compact(); err != nil {
				t.Fatal(err)
			}
			if err := ds.Close(); err != nil {
				t.Fatal(err)
			}
			onlySegments(t, dir)
			ds = openDurable(t, dir, opts)
			defer ds.Close()
			assertRows(t, ds, model)
		})
	}
}

// TestCompactRacingWritersKeepsEveryWrite: writers put and delete on
// two tables while Compact runs again and again. Every acknowledged
// write is there after a reopen, both of the closed store and of a copy
// of its files taken before Close, as a kill -9 would leave them.
func TestCompactRacingWritersKeepsEveryWrite(t *testing.T) {
	dir := t.TempDir()
	ds := openDurable(t, dir, DurableOptions{CompactBytes: -1})
	tables := []*Table{ds.MustTable("jobs", StructuredCodec{}), ds.MustTable("blobs", BlobCodec{})}
	const writers, opsEach = 4, 400
	acked := make([]map[string]int, writers)
	started, stop, compactorDone := make(chan struct{}), make(chan struct{}), make(chan int)
	go func() {
		n := 0
		for {
			if err := ds.Compact(); err != nil {
				t.Errorf("compact: %v", err)
			}
			if n++; n == 1 {
				close(started)
			}
			select {
			case <-stop:
				compactorDone <- n
				return
			default:
			}
		}
	}()
	<-started
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tbl, rows := tables[w%2], make(map[string]int)
			for i := 0; i < opsEach; i++ {
				id := fmt.Sprintf("w%d-%d", w, i%10)
				if i%7 == 6 {
					if _, err := tbl.Delete(id); err != nil {
						t.Errorf("delete %s: %v", id, err)
						return
					}
					delete(rows, id)
					continue
				}
				if err := tbl.Put(id, jobDoc("Running", i)); err != nil {
					t.Errorf("put %s: %v", id, err)
					return
				}
				rows[id] = i
			}
			acked[w] = rows
		}(w)
	}
	wg.Wait()
	close(stop)
	t.Logf("%d compactions beside the writers", <-compactorDone)
	if t.Failed() {
		return
	}
	model := rowModel{"jobs": {}, "blobs": {}}
	for w, rows := range acked {
		for id, cpu := range rows {
			model[tables[w%2].name][id] = cpu
		}
	}
	killed := writeFiles(t, readFiles(t, dir))
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	for _, d := range []string{dir, killed} {
		ds := openDurable(t, d, DurableOptions{CompactBytes: -1})
		assertRows(t, ds, model)
		ds.Close()
	}
}

// compactedStore returns a closed data dir holding a checkpoint of six
// rows over two tables and one put after it, and the checkpoint's path.
func compactedStore(t *testing.T) (dir, checkpoint string) {
	t.Helper()
	dir = t.TempDir()
	ds := openDurable(t, dir, DurableOptions{CompactBytes: -1})
	model := rowModel{"jobs": {}, "blobs": {}}
	for i := 0; i < 3; i++ {
		mutate(t, ds, model, "jobs", fmt.Sprintf("j%d", i), i)
		mutate(t, ds, model, "blobs", fmt.Sprintf("b%d", i), i)
	}
	if err := ds.Compact(); err != nil {
		t.Fatal(err)
	}
	mutate(t, ds, model, "jobs", "post", 9)
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	segs := onlySegments(t, dir)
	return dir, segs[0].Path
}

// refusedAsCorrupt writes data over the checkpoint at path and fails
// unless OpenDurable then refuses dir with wal.ErrCorrupt.
func refusedAsCorrupt(t *testing.T, dir, path string, data []byte, what string) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	ds, err := OpenDurable(dir, DurableOptions{CompactBytes: -1})
	if err == nil {
		ds.Close()
	}
	if !errors.Is(err, wal.ErrCorrupt) {
		t.Fatalf("%s: OpenDurable err = %v, want wal.ErrCorrupt", what, err)
	}
}

// TestCheckpointTruncatedAtEveryPointRefused: a checkpoint cut at any
// byte, at a frame boundary or inside its header included, fails
// OpenDurable with wal.ErrCorrupt; none is read as a smaller store.
func TestCheckpointTruncatedAtEveryPointRefused(t *testing.T) {
	dir, path := compactedStore(t)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for size := 0; size < len(data); size++ {
		refusedAsCorrupt(t, dir, path, data[:size], fmt.Sprintf("cut at %d of %d", size, len(data)))
	}
}

// TestCheckpointBitFlipEveryByteRefused: a checkpoint with any one byte
// flipped, by either of two masks, fails OpenDurable with
// wal.ErrCorrupt: the CRC covers every row.
func TestCheckpointBitFlipEveryByteRefused(t *testing.T) {
	dir, path := compactedStore(t)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for pos := range data {
		for _, mask := range []byte{0x01, 0x80} {
			mut := append([]byte(nil), data...)
			mut[pos] ^= mask
			refusedAsCorrupt(t, dir, path, mut, fmt.Sprintf("byte %d ^ %#x", pos, mask))
		}
	}
}

// TestDurableRetiredSnapshotRefused: a data dir that still holds the
// snapshot file of the retired format is refused by name, not opened
// without it.
func TestDurableRetiredSnapshotRefused(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "snapshot.db"), []byte("UVDB1\n\x00"), 0o644); err != nil {
		t.Fatal(err)
	}
	ds, err := OpenDurable(dir, DurableOptions{CompactBytes: -1})
	if err == nil {
		ds.Close()
		t.Fatal("OpenDurable opened a dir holding snapshot.db")
	}
	if !strings.Contains(err.Error(), "snapshot.db") {
		t.Fatalf("refusal %q does not name snapshot.db", err)
	}
}

// TestReopenDoesNotCompactTheCheckpointAgain: the replay debt that makes
// OpenDurable compact at once is the log since the checkpoint, so a
// store whose live rows alone exceed CompactBytes reopens without
// compacting.
func TestReopenDoesNotCompactTheCheckpointAgain(t *testing.T) {
	dir := t.TempDir()
	opts := DurableOptions{CompactBytes: 4096}
	ds := openDurable(t, dir, DurableOptions{CompactBytes: -1})
	model := rowModel{"blobs": {}}
	for i := 0; i < 40; i++ {
		mutate(t, ds, model, "blobs", fmt.Sprintf("b%d", i), i)
	}
	if err := ds.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	if segs := onlySegments(t, dir); segs[0].Size < opts.CompactBytes {
		t.Fatalf("checkpoint is %d bytes, want more than %d", segs[0].Size, opts.CompactBytes)
	}
	ds = openDurable(t, dir, opts)
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	if n := ds.Stats().Compactions; n != 0 {
		t.Fatalf("reopen compacted %d times over a checkpoint and an empty log", n)
	}
}
