package resourcedb

import (
	"fmt"
	"sync"
)

// Store is a named collection of tables — the "database" a WSRF.NET
// deployment points its services at. One store per simulated machine.
type Store struct {
	// journal, when set, is installed on every table the store creates,
	// so all mutations are write-ahead logged (DurableStore).
	journal *DurableStore

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

func codecByName(name string) (Codec, error) {
	switch name {
	case "structured":
		return StructuredCodec{}, nil
	case "blob":
		return BlobCodec{}, nil
	}
	return nil, fmt.Errorf("resourcedb: unknown codec %q", name)
}
