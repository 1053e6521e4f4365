package resourcedb

import (
	"bytes"
	"fmt"
	"testing"
)

// snapshotBytes builds a small two-table snapshot for mutation.
func snapshotBytes(t *testing.T) []byte {
	t.Helper()
	s := NewStore()
	jobs := s.MustTable("jobs", StructuredCodec{})
	blobs := s.MustTable("blobs", BlobCodec{})
	for i := 0; i < 6; i++ {
		if err := jobs.Put(fmt.Sprintf("j%d", i), jobDoc("Running", i)); err != nil {
			t.Fatal(err)
		}
		if err := blobs.Put(fmt.Sprintf("b%d", i), jobDoc("Idle", i)); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// loadTarget is a store with pre-existing content, so every failed Load
// can be checked for the leave-untouched guarantee.
func loadTarget(t *testing.T) *Store {
	t.Helper()
	s := NewStore()
	old := s.MustTable("existing", BlobCodec{})
	if err := old.Put("keep", jobDoc("Held", 7)); err != nil {
		t.Fatal(err)
	}
	return s
}

// assertUntouched verifies the target store still holds exactly its
// pre-Load content after a failed Load.
func assertUntouched(t *testing.T, s *Store, ctx string) {
	t.Helper()
	tbl, ok := s.Table("existing")
	if !ok {
		t.Fatalf("%s: failed Load dropped existing table", ctx)
	}
	doc, ok, err := tbl.Get("keep")
	if err != nil || !ok || !doc.Equal(jobDoc("Held", 7)) {
		t.Fatalf("%s: failed Load mutated existing row: %v %v", ctx, ok, err)
	}
	if len(s.tables) != 1 {
		t.Fatalf("%s: failed Load left partial tables: %d tables", ctx, len(s.tables))
	}
}

// TestLoadTruncatedSnapshotEveryPoint feeds Load every possible prefix
// of a valid snapshot. Anything short of the full stream must fail with
// a clean error and leave the store's existing tables untouched — and
// must never panic or abort (the length-cap guard).
func TestLoadTruncatedSnapshotEveryPoint(t *testing.T) {
	data := snapshotBytes(t)
	for size := 0; size < len(data); size++ {
		s := loadTarget(t)
		err := s.Load(bytes.NewReader(data[:size]))
		if err == nil {
			t.Fatalf("size %d: truncated snapshot accepted", size)
		}
		assertUntouched(t, s, fmt.Sprintf("size %d", size))
	}
	// The full stream still loads, replacing everything.
	s := loadTarget(t)
	if err := s.Load(bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Table("existing"); ok {
		t.Fatal("successful Load kept stale table")
	}
	jobs, ok := s.Table("jobs")
	if !ok || jobs.Len() != 6 {
		t.Fatalf("full load: jobs = %v", jobs)
	}
}

// TestLoadBitFlippedSnapshotEveryByte flips each byte of a valid
// snapshot and asserts Load either fails cleanly (store untouched) or —
// when the flip lands in row text the codecs don't validate — succeeds
// as a complete replacement. It must never panic, abort, or leave a
// half-loaded store.
func TestLoadBitFlippedSnapshotEveryByte(t *testing.T) {
	data := snapshotBytes(t)
	for pos := 0; pos < len(data); pos++ {
		for _, mask := range []byte{0x01, 0x80} {
			mut := append([]byte(nil), data...)
			mut[pos] ^= mask
			s := loadTarget(t)
			err := s.Load(bytes.NewReader(mut))
			ctx := fmt.Sprintf("pos %d mask %#x", pos, mask)
			if err != nil {
				assertUntouched(t, s, ctx)
				continue
			}
			// A tolerated flip must still have replaced the store wholesale.
			if _, ok := s.Table("existing"); ok {
				t.Fatalf("%s: load succeeded but kept stale table", ctx)
			}
		}
	}
}

// TestLoadHostileLengths: length fields claiming absurd sizes must fail
// with an error, not abort the process inside make().
func TestLoadHostileLengths(t *testing.T) {
	huge := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01} // uvarint ~2^63
	cases := map[string][]byte{
		// ntables claims 2^63: must run out of stream, not allocate.
		"table-count": append([]byte(snapshotMagic), huge...),
		// First table's name claims 2^63 bytes.
		"name-length": append([]byte(snapshotMagic+"\x01"), huge...),
	}
	// Row length claiming 2^63: build a valid prefix then lie.
	var buf bytes.Buffer
	buf.WriteString(snapshotMagic)
	buf.WriteByte(1)            // one table
	buf.WriteString("\x04jobs") // name
	buf.WriteString("\x04blob") // codec
	buf.WriteByte(1)            // one row
	buf.WriteString("\x02j1")   // id
	buf.Write(huge)             // row length
	cases["row-length"] = buf.Bytes()

	for name, data := range cases {
		s := loadTarget(t)
		if err := s.Load(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: hostile snapshot accepted", name)
		}
		assertUntouched(t, s, name)
	}
}

// FuzzStoreLoad is the open-ended version of the tests above: arbitrary
// bytes must never panic Load, and any failure must leave existing
// tables intact.
func FuzzStoreLoad(f *testing.F) {
	seed := func() []byte {
		s := NewStore()
		tbl := s.MustTable("jobs", StructuredCodec{})
		tbl.Put("j1", jobDoc("Running", 1))
		var buf bytes.Buffer
		s.Save(&buf)
		return buf.Bytes()
	}()
	f.Add(seed)
	f.Add([]byte(snapshotMagic))
	f.Add([]byte{})
	f.Add(seed[:len(seed)/2])
	f.Fuzz(func(t *testing.T, data []byte) {
		s := NewStore()
		old := s.MustTable("existing", BlobCodec{})
		if err := old.Put("keep", jobDoc("Held", 7)); err != nil {
			t.Fatal(err)
		}
		if err := s.Load(bytes.NewReader(data)); err != nil {
			if tbl, ok := s.Table("existing"); !ok || !tbl.Exists("keep") {
				t.Fatal("failed Load mutated the store")
			}
		}
	})
}
