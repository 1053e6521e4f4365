package resourcedb

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"uvacg/internal/pipeline"
	"uvacg/internal/wal"
)

func openDurable(t *testing.T, dir string, opts DurableOptions) *DurableStore {
	t.Helper()
	ds, err := OpenDurable(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// TestDurableRoundTripRestart: puts and deletes made against a durable
// store are all there after close + reopen, decoded through the same
// codecs, with no compaction ever run (pure log replay).
func TestDurableRoundTripRestart(t *testing.T) {
	dir := t.TempDir()
	ds := openDurable(t, dir, DurableOptions{Sync: true, CompactBytes: -1})
	jobs := ds.MustTable("jobs", StructuredCodec{})
	dirs := ds.MustTable("directories", BlobCodec{})
	for i := 0; i < 10; i++ {
		if err := jobs.Put(fmt.Sprintf("j%d", i), jobDoc("Running", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := dirs.Put("d1", jobDoc("Staged", 0)); err != nil {
		t.Fatal(err)
	}
	if ok, err := jobs.Delete("j3"); err != nil || !ok {
		t.Fatalf("delete j3: %v %v", ok, err)
	}
	if err := jobs.Put("j4", jobDoc("Completed", 4)); err != nil {
		t.Fatal(err)
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}

	ds2 := openDurable(t, dir, DurableOptions{Sync: true, CompactBytes: -1})
	defer ds2.Close()
	if got := ds2.Stats().ReplayedRecords; got != 13 {
		t.Fatalf("replayed %d records, want 13", got)
	}
	jobs2, ok := ds2.Table("jobs")
	if !ok {
		t.Fatal("jobs table missing after replay")
	}
	if jobs2.Len() != 9 {
		t.Fatalf("jobs.Len() = %d, want 9", jobs2.Len())
	}
	if jobs2.Exists("j3") {
		t.Fatal("deleted row j3 resurrected")
	}
	doc, ok, err := jobs2.Get("j4")
	if err != nil || !ok {
		t.Fatalf("get j4: %v %v", ok, err)
	}
	if !doc.Equal(jobDoc("Completed", 4)) {
		t.Fatalf("j4 replayed as:\n%s", doc)
	}
	// The structured table's property index must be rebuilt by replay.
	ids, err := jobs2.QueryProperty("Status", "Completed")
	if err != nil || len(ids) != 1 || ids[0] != "j4" {
		t.Fatalf("QueryProperty after replay = %v, %v", ids, err)
	}
	if _, ok := ds2.Table("directories"); !ok {
		t.Fatal("blob table missing after replay")
	}
}

// durableOp is one scripted mutation for the crash-point test.
type durableOp struct {
	del bool
	id  string
	cpu int
}

// TestDurableCrashAtEveryWritePoint is the store-level prefix property:
// truncate the WAL at every byte offset, reopen, and the recovered
// table must equal the state after exactly the acknowledged prefix of
// operations — never a torn row, never a phantom.
func TestDurableCrashAtEveryWritePoint(t *testing.T) {
	dir := t.TempDir()
	ds := openDurable(t, dir, DurableOptions{Sync: true, CompactBytes: -1})
	jobs := ds.MustTable("jobs", StructuredCodec{})

	var ops []durableOp
	for i := 0; i < 12; i++ {
		op := durableOp{id: fmt.Sprintf("j%d", i%5), cpu: i}
		if i%4 == 3 {
			op.del = true
		}
		ops = append(ops, op)
	}
	var frameEnds []int
	for _, op := range ops {
		if op.del {
			if _, err := jobs.Delete(op.id); err != nil {
				t.Fatal(err)
			}
		} else if err := jobs.Put(op.id, jobDoc("Running", op.cpu)); err != nil {
			t.Fatal(err)
		}
		segs, err := wal.ListSegments(dir)
		if err != nil || len(segs) != 1 {
			t.Fatalf("segments: %v %v", segs, err)
		}
		frameEnds = append(frameEnds, int(segs[0].Size))
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := wal.ListSegments(dir)
	data, err := os.ReadFile(segs[0].Path)
	if err != nil {
		t.Fatal(err)
	}

	// expect[k] = table contents after the first k ops.
	expect := make([]map[string]int, len(ops)+1)
	expect[0] = map[string]int{}
	for k, op := range ops {
		next := make(map[string]int, len(expect[k]))
		for id, cpu := range expect[k] {
			next[id] = cpu
		}
		if op.del {
			delete(next, op.id)
		} else {
			next[op.id] = op.cpu
		}
		expect[k+1] = next
	}

	for size := 0; size <= len(data); size++ {
		crashDir := t.TempDir()
		if err := os.WriteFile(filepath.Join(crashDir, filepath.Base(segs[0].Path)), data[:size], 0o644); err != nil {
			t.Fatal(err)
		}
		ds2, err := OpenDurable(crashDir, DurableOptions{CompactBytes: -1})
		if err != nil {
			t.Fatalf("size %d: reopen: %v", size, err)
		}
		acked := 0
		for _, end := range frameEnds {
			if end <= size {
				acked++
			}
		}
		want := expect[acked]
		tbl, ok := ds2.Table("jobs")
		if !ok {
			if len(want) != 0 || acked != 0 {
				t.Fatalf("size %d: jobs table missing, want %d rows", size, len(want))
			}
			ds2.Close()
			continue
		}
		if tbl.Len() != len(want) {
			t.Fatalf("size %d: %d rows, want %d", size, tbl.Len(), len(want))
		}
		for id, cpu := range want {
			doc, ok, err := tbl.Get(id)
			if err != nil || !ok {
				t.Fatalf("size %d: get %s: %v %v", size, id, ok, err)
			}
			if !doc.Equal(jobDoc("Running", cpu)) {
				t.Fatalf("size %d: row %s recovered wrong:\n%s", size, id, doc)
			}
		}
		ds2.Close()
	}
}

// TestDurableCompaction: Compact writes a checkpoint segment, drops the
// segments below it, and a reopen recovers checkpoint + post-compaction
// log suffix — including a table first created after the checkpoint,
// whose codec rides in the WAL records.
func TestDurableCompaction(t *testing.T) {
	dir := t.TempDir()
	ds := openDurable(t, dir, DurableOptions{Sync: true, CompactBytes: -1})
	jobs := ds.MustTable("jobs", StructuredCodec{})
	for i := 0; i < 20; i++ {
		if err := jobs.Put(fmt.Sprintf("j%d", i), jobDoc("Running", i)); err != nil {
			t.Fatal(err)
		}
	}
	preCompact := ds.Stats().WALBytes
	if err := ds.Compact(); err != nil {
		t.Fatal(err)
	}
	st := ds.Stats()
	if st.Compactions != 1 {
		t.Fatalf("compactions = %d", st.Compactions)
	}
	if st.WALBytes >= preCompact {
		t.Fatalf("compaction did not shrink the log: %d -> %d", preCompact, st.WALBytes)
	}
	if segs := onlySegments(t, dir); len(segs) != 2 {
		t.Fatalf("after compaction the log is %+v, want the checkpoint and the active segment", segs)
	}
	// Mutations after the checkpoint, on an existing and a brand-new table.
	if err := jobs.Put("post", jobDoc("Queued", 99)); err != nil {
		t.Fatal(err)
	}
	if ok, err := jobs.Delete("j0"); err != nil || !ok {
		t.Fatalf("delete j0: %v %v", ok, err)
	}
	late := ds.MustTable("late", BlobCodec{})
	if err := late.Put("l1", jobDoc("New", 1)); err != nil {
		t.Fatal(err)
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}

	ds2 := openDurable(t, dir, DurableOptions{CompactBytes: -1})
	defer ds2.Close()
	jobs2, ok := ds2.Table("jobs")
	if !ok {
		t.Fatal("jobs missing")
	}
	if jobs2.Len() != 20 { // 20 puts - j0 deleted + post
		t.Fatalf("jobs.Len() = %d, want 20", jobs2.Len())
	}
	if jobs2.Exists("j0") || !jobs2.Exists("post") || !jobs2.Exists("j19") {
		t.Fatal("post-compaction suffix replayed wrong")
	}
	late2, ok := ds2.Table("late")
	if !ok {
		t.Fatal("table created after the checkpoint not recovered")
	}
	if late2.codec.Name() != "blob" {
		t.Fatalf("late codec = %q", late2.codec.Name())
	}
	doc, ok, err := late2.Get("l1")
	if err != nil || !ok || !doc.Equal(jobDoc("New", 1)) {
		t.Fatalf("late/l1: %v %v\n%s", ok, err, doc)
	}
}

// TestDurableAutoCompaction: commits past CompactBytes kick a background
// compaction that writes a checkpoint without any explicit call.
func TestDurableAutoCompaction(t *testing.T) {
	dir := t.TempDir()
	ds := openDurable(t, dir, DurableOptions{CompactBytes: 4096})
	jobs := ds.MustTable("jobs", BlobCodec{})
	for i := 0; i < 200; i++ {
		if err := jobs.Put(fmt.Sprintf("j%d", i%10), jobDoc("Running", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := ds.Close(); err != nil { // waits for the background pass
		t.Fatal(err)
	}
	if ds.Stats().Compactions == 0 {
		t.Fatal("no automatic compaction after 200 commits past the threshold")
	}
	onlySegments(t, dir)
	ds2 := openDurable(t, dir, DurableOptions{CompactBytes: -1})
	defer ds2.Close()
	jobs2, _ := ds2.Table("jobs")
	if jobs2 == nil || jobs2.Len() != 10 {
		t.Fatalf("recovered %v rows, want 10", jobs2)
	}
}

// TestDurableMetrics: commit, replay and compaction all land in the
// shared pipeline metrics under the /wal path.
func TestDurableMetrics(t *testing.T) {
	dir := t.TempDir()
	m := pipeline.NewMetrics()
	ds := openDurable(t, dir, DurableOptions{CompactBytes: -1, Metrics: m})
	jobs := ds.MustTable("jobs", BlobCodec{})
	for i := 0; i < 5; i++ {
		if err := jobs.Put(fmt.Sprintf("j%d", i), jobDoc("Running", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := ds.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	snap := m.Snapshot()
	if s := snap[pipeline.Key{Path: "/wal", Action: "commit"}]; s.Calls != 5 {
		t.Fatalf("commit metric calls = %d, want 5", s.Calls)
	}
	if s := snap[pipeline.Key{Path: "/wal", Action: "replay"}]; s.Calls != 1 {
		t.Fatalf("replay metric calls = %d, want 1", s.Calls)
	}
	if s := snap[pipeline.Key{Path: "/wal", Action: "compact"}]; s.Calls != 1 {
		t.Fatalf("compact metric calls = %d, want 1", s.Calls)
	}

	// A second open replays through the same metrics instance.
	m2 := pipeline.NewMetrics()
	ds2 := openDurable(t, dir, DurableOptions{CompactBytes: -1, Metrics: m2})
	defer ds2.Close()
	if s := m2.Snapshot()[pipeline.Key{Path: "/wal", Action: "replay"}]; s.Calls != 1 {
		t.Fatalf("reopen replay metric calls = %d", s.Calls)
	}
}
