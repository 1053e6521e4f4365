package resourcedb

import (
	"fmt"
	"testing"

	"uvacg/internal/xmlutil"
)

// jobRow is a row the size of a job set's per-job row: a JobState
// element naming the job, its status, attempt, node and output
// directory (≈ 300 bytes encoded).
func jobRow(i int) *xmlutil.Element {
	q := func(local string) xmlutil.QName { return xmlutil.Q(nsBench, local) }
	return xmlutil.NewContainer(q("JobState"),
		xmlutil.NewElement(q("Name"), fmt.Sprintf("job-%06d", i)),
		xmlutil.NewElement(q("Status"), "Exited"),
		xmlutil.NewElement(q("Attempt"), "1"),
		xmlutil.NewElement(q("Node"), "http://win-a:8701/ExecutionService"),
		xmlutil.NewElement(q("ExitCode"), "0"),
		xmlutil.NewElement(q("Output"), fmt.Sprintf("http://win-a:8701/FileSystemService?ResourceID=urn:uuid:%08x-0000-4000-8000-000000000000", i)),
	)
}

// filledStore opens a durable store in a fresh dir holding rows job
// rows, compacted once, with automatic compaction off.
func filledStore(b *testing.B, rows int) (*DurableStore, string) {
	b.Helper()
	dir := b.TempDir()
	ds, err := OpenDurable(dir, DurableOptions{CompactBytes: -1})
	if err != nil {
		b.Fatal(err)
	}
	jobs := ds.MustTable("jobs", BlobCodec{})
	for i := 0; i < rows; i++ {
		if err := jobs.Put(fmt.Sprintf("set-%04d#job-%06d", i/64, i), jobRow(i)); err != nil {
			b.Fatal(err)
		}
	}
	if err := ds.Compact(); err != nil {
		b.Fatal(err)
	}
	return ds, dir
}

// BenchmarkCompact times one compaction of a store of job rows with an
// empty log since the last one: the whole state written, fsynced and
// renamed, the segments below removed (EXPERIMENTS.md E26).
func BenchmarkCompact(b *testing.B) {
	for _, rows := range []int{10_000, 100_000} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			ds, _ := filledStore(b, rows)
			defer ds.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := ds.Compact(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkReopen times OpenDurable over a compacted store of job rows:
// the replay a restart pays (EXPERIMENTS.md E26).
func BenchmarkReopen(b *testing.B) {
	ds, dir := filledStore(b, 100_000)
	if err := ds.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ds, err := OpenDurable(dir, DurableOptions{CompactBytes: -1})
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := ds.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}
