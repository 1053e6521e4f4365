package resourcedb

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// Store is a named collection of tables — the "database" a WSRF.NET
// deployment points its services at. One store per simulated machine.
type Store struct {
	// journal, when set, is installed on every table the store creates
	// or loads, so all mutations are write-ahead logged (DurableStore).
	journal tableJournal

	mu     sync.RWMutex
	tables map[string]*Table
}

// NewStore creates an empty store.
func NewStore() *Store { return &Store{tables: make(map[string]*Table)} }

// Table returns an existing table.
func (s *Store) Table(name string) (*Table, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t, ok := s.tables[name]
	return t, ok
}

// MustTable returns a table, creating it with codec on first use. It is
// the registration-time helper service constructors use.
func (s *Store) MustTable(name string, codec Codec) *Table {
	s.mu.Lock()
	defer s.mu.Unlock()
	if t, ok := s.tables[name]; ok {
		return t
	}
	t := NewTable(name, codec)
	t.journal = s.journal
	s.tables[name] = t
	return t
}

// Snapshot format:
//
//	magic   "UVDB1\n"
//	ntables uvarint
//	per table: lenstr name, lenstr codec, nrows uvarint,
//	           nrows × (lenstr id, lenbytes row)

const snapshotMagic = "UVDB1\n"

// Save writes a point-in-time snapshot of every table.
func (s *Store) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(snapshotMagic); err != nil {
		return err
	}
	s.mu.RLock()
	names := make([]string, 0, len(s.tables))
	for n := range s.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	tables := make([]*Table, 0, len(names))
	for _, n := range names {
		tables = append(tables, s.tables[n])
	}
	s.mu.RUnlock()

	writeUvarint(bw, uint64(len(tables)))
	for _, t := range tables {
		t.mu.RLock()
		writeSnapStr(bw, t.name)
		writeSnapStr(bw, t.codec.Name())
		writeUvarint(bw, uint64(len(t.rows)))
		ids := make([]string, 0, len(t.rows))
		for id := range t.rows {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			writeSnapStr(bw, id)
			writeUvarint(bw, uint64(len(t.rows[id])))
			bw.Write(t.rows[id])
		}
		t.mu.RUnlock()
	}
	return bw.Flush()
}

// maxSnapshotBytes bounds any single length field read from a snapshot
// (strings and rows). A corrupt or hostile snapshot can claim lengths
// up to 2^64; without the cap, make() on such a claim aborts the
// process instead of returning a clean error.
const maxSnapshotBytes = 64 << 20

// Load replaces the store's contents from a snapshot. The replacement
// is all-or-nothing: the snapshot is decoded into a staging table set
// first, and the store's live tables are swapped only after the whole
// stream parsed cleanly — a corrupt or truncated snapshot returns an
// error and leaves the existing tables untouched.
func (s *Store) Load(r io.Reader) error {
	br := bufio.NewReader(r)
	magic := make([]byte, len(snapshotMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return fmt.Errorf("resourcedb: read snapshot header: %w", err)
	}
	if !bytes.Equal(magic, []byte(snapshotMagic)) {
		return fmt.Errorf("resourcedb: bad snapshot magic %q", magic)
	}
	ntables, err := binary.ReadUvarint(br)
	if err != nil {
		return err
	}
	// Cap the allocation hint only: a lying count still fails cleanly
	// when the stream runs out.
	loaded := make(map[string]*Table, min(ntables, 1024))
	for i := uint64(0); i < ntables; i++ {
		name, err := readSnapStr(br)
		if err != nil {
			return err
		}
		codecName, err := readSnapStr(br)
		if err != nil {
			return err
		}
		codec, err := codecByName(codecName)
		if err != nil {
			return err
		}
		t := NewTable(name, codec)
		t.journal = s.journal
		nrows, err := binary.ReadUvarint(br)
		if err != nil {
			return err
		}
		for j := uint64(0); j < nrows; j++ {
			id, err := readSnapStr(br)
			if err != nil {
				return err
			}
			rowLen, err := binary.ReadUvarint(br)
			if err != nil {
				return err
			}
			if rowLen > maxSnapshotBytes {
				return fmt.Errorf("resourcedb: snapshot row %s/%s claims %d bytes", name, id, rowLen)
			}
			row := make([]byte, rowLen)
			if _, err := io.ReadFull(br, row); err != nil {
				return err
			}
			t.rows[id] = row
			if t.index != nil {
				doc, err := codec.Decode(row)
				if err != nil {
					return fmt.Errorf("resourcedb: snapshot row %s/%s: %w", name, id, err)
				}
				t.indexLocked(id, topLevelProperties(doc))
			}
		}
		loaded[name] = t
	}
	s.mu.Lock()
	s.tables = loaded
	s.mu.Unlock()
	return nil
}

// SaveFile writes a snapshot atomically and durably: write temp, fsync,
// rename, fsync the directory. The directory fsync makes the rename
// itself survive a power loss — callers that delete the data the
// snapshot supersedes (DurableStore.Compact truncating WAL segments)
// rely on the snapshot being on disk once SaveFile returns.
func (s *Store) SaveFile(path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := s.Save(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(filepath.Dir(path))
}

// syncDir fsyncs a directory so renames and removals within it are
// durable, not just queued in the OS.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// LoadFile loads a snapshot from disk.
func (s *Store) LoadFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return s.Load(f)
}

func codecByName(name string) (Codec, error) {
	switch name {
	case "structured":
		return StructuredCodec{}, nil
	case "blob":
		return BlobCodec{}, nil
	}
	return nil, fmt.Errorf("resourcedb: unknown codec %q", name)
}

func writeUvarint(w *bufio.Writer, v uint64) {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	w.Write(tmp[:n])
}

func writeSnapStr(w *bufio.Writer, s string) {
	writeUvarint(w, uint64(len(s)))
	w.WriteString(s)
}

func readSnapStr(r *bufio.Reader) (string, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return "", err
	}
	if n > maxSnapshotBytes {
		return "", fmt.Errorf("resourcedb: snapshot string claims %d bytes", n)
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r, b); err != nil {
		return "", err
	}
	return string(b), nil
}
