package resourcedb

import (
	"fmt"
	"sort"
	"sync"

	"uvacg/internal/xmlutil"
)

// Table maps resource IDs to encoded state documents. Rows are stored in
// their codec's wire form; Get pays a decode and Put an encode on every
// access, the same serialization boundary WSRF.NET's database crossing
// imposes on every method invocation.
type Table struct {
	name  string
	codec Codec

	// journal, when set, records every mutation in a write-ahead log
	// before Put/Delete acknowledge it (see DurableStore). The enqueue
	// happens under mu so log order matches in-memory apply order; the
	// durability wait happens after mu is released so concurrent
	// committers share one group commit.
	journal *DurableStore

	mu   sync.RWMutex
	rows map[string][]byte
	// index[localName][text] = set of ids; maintained only for
	// indexable codecs.
	index map[string]map[string]map[string]struct{}
}

// NewTable builds a table with the given codec.
func NewTable(name string, codec Codec) *Table {
	t := &Table{name: name, codec: codec, rows: make(map[string][]byte)}
	if codec.Indexable() {
		t.index = make(map[string]map[string]map[string]struct{})
	}
	return t
}

// Put stores doc as the state of resource id, replacing any prior state.
func (t *Table) Put(id string, doc *xmlutil.Element) error {
	if id == "" {
		return fmt.Errorf("resourcedb: empty resource id")
	}
	data, err := t.codec.Encode(doc)
	if err != nil {
		return fmt.Errorf("resourcedb: encode %s/%s: %w", t.name, id, err)
	}
	var props map[string][]string
	if t.index != nil {
		props = topLevelProperties(doc)
	}
	t.mu.Lock()
	var seq uint64
	if t.journal != nil {
		seq, err = t.journal.enqueuePut(t.name, t.codec.Name(), id, data)
		if err != nil {
			t.mu.Unlock()
			return fmt.Errorf("resourcedb: journal %s/%s: %w", t.name, id, err)
		}
	}
	if t.index != nil {
		t.unindexLocked(id)
	}
	t.rows[id] = data
	if t.index != nil {
		t.indexLocked(id, props)
	}
	t.mu.Unlock()
	if t.journal != nil {
		if err := t.journal.waitDurable(seq); err != nil {
			return fmt.Errorf("resourcedb: commit %s/%s: %w", t.name, id, err)
		}
	}
	return nil
}

// putRaw installs already-encoded row bytes, bypassing the journal —
// the replay path. Rows arrive in log order, so index maintenance
// mirrors Put's.
func (t *Table) putRaw(id string, data []byte) error {
	var props map[string][]string
	if t.index != nil {
		doc, err := t.codec.Decode(data)
		if err != nil {
			return fmt.Errorf("resourcedb: replay row %s/%s: %w", t.name, id, err)
		}
		props = topLevelProperties(doc)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.index != nil {
		t.unindexLocked(id)
	}
	t.rows[id] = data
	if t.index != nil {
		t.indexLocked(id, props)
	}
	return nil
}

// Get loads and decodes the state of resource id.
func (t *Table) Get(id string) (*xmlutil.Element, bool, error) {
	t.mu.RLock()
	data, ok := t.rows[id]
	t.mu.RUnlock()
	if !ok {
		return nil, false, nil
	}
	doc, err := t.codec.Decode(data)
	if err != nil {
		return nil, true, fmt.Errorf("resourcedb: decode %s/%s: %w", t.name, id, err)
	}
	return doc, true, nil
}

// Exists reports row presence without paying a decode.
func (t *Table) Exists(id string) bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	_, ok := t.rows[id]
	return ok
}

// Delete removes a resource's row, reporting whether it existed. On a
// journaled table the removal is acknowledged only once the delete
// record is durable: a journal that refuses the record (sticky log
// failure) leaves the row in place, and a commit that fails to reach
// disk is surfaced as an error rather than a clean true — the row may
// resurrect on restart, and the caller must not treat the delete as
// done.
func (t *Table) Delete(id string) (bool, error) {
	t.mu.Lock()
	if _, ok := t.rows[id]; !ok {
		t.mu.Unlock()
		return false, nil
	}
	var seq uint64
	if t.journal != nil {
		var err error
		seq, err = t.journal.enqueueDelete(t.name, id)
		if err != nil {
			t.mu.Unlock()
			return false, fmt.Errorf("resourcedb: journal %s/%s: %w", t.name, id, err)
		}
	}
	if t.index != nil {
		t.unindexLocked(id)
	}
	delete(t.rows, id)
	t.mu.Unlock()
	if t.journal != nil {
		if err := t.journal.waitDurable(seq); err != nil {
			return false, fmt.Errorf("resourcedb: commit %s/%s: %w", t.name, id, err)
		}
	}
	return true, nil
}

// deleteRaw removes a row without journaling — the replay path.
func (t *Table) deleteRaw(id string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.rows[id]; !ok {
		return
	}
	if t.index != nil {
		t.unindexLocked(id)
	}
	delete(t.rows, id)
}

// IDs returns all resource ids, sorted.
func (t *Table) IDs() []string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]string, 0, len(t.rows))
	for id := range t.rows {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// QueryProperty returns the ids of resources whose top-level property
// localName has the exact text value. Indexable codecs answer from the
// index; blob tables fall back to a scan that decodes every row — the
// §5 penalty, measured by benchmark E3.
func (t *Table) QueryProperty(localName, value string) ([]string, error) {
	if t.index != nil {
		t.mu.RLock()
		defer t.mu.RUnlock()
		var out []string
		for id := range t.index[localName][value] {
			out = append(out, id)
		}
		sort.Strings(out)
		return out, nil
	}
	return t.Scan(func(id string, doc *xmlutil.Element) bool {
		for _, v := range topLevelProperties(doc)[localName] {
			if v == value {
				return true
			}
		}
		return false
	})
}

// Scan decodes every row and returns the ids accepted by pred, sorted.
func (t *Table) Scan(pred func(id string, doc *xmlutil.Element) bool) ([]string, error) {
	t.mu.RLock()
	snapshot := make(map[string][]byte, len(t.rows))
	for id, data := range t.rows {
		snapshot[id] = data
	}
	t.mu.RUnlock()
	var out []string
	for id, data := range snapshot {
		doc, err := t.codec.Decode(data)
		if err != nil {
			return nil, fmt.Errorf("resourcedb: scan decode %s/%s: %w", t.name, id, err)
		}
		if pred(id, doc) {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out, nil
}

func (t *Table) indexLocked(id string, props map[string][]string) {
	for name, values := range props {
		byValue := t.index[name]
		if byValue == nil {
			byValue = make(map[string]map[string]struct{})
			t.index[name] = byValue
		}
		for _, v := range values {
			ids := byValue[v]
			if ids == nil {
				ids = make(map[string]struct{})
				byValue[v] = ids
			}
			ids[id] = struct{}{}
		}
	}
}

func (t *Table) unindexLocked(id string) {
	data, ok := t.rows[id]
	if !ok {
		return
	}
	doc, err := t.codec.Decode(data)
	if err != nil {
		return
	}
	for name, values := range topLevelProperties(doc) {
		byValue := t.index[name]
		for _, v := range values {
			if ids := byValue[v]; ids != nil {
				delete(ids, id)
				if len(ids) == 0 {
					delete(byValue, v)
				}
			}
		}
		if len(byValue) == 0 {
			delete(t.index, name)
		}
	}
}
