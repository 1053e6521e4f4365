package scheduler

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"

	"uvacg/internal/wsrf"
	"uvacg/internal/xmlutil"
)

// jobSetHome is the persisted layout of a job set, and the only code that
// knows it: one document, written whole at set-level transitions, plus one
// small row per job that has made progress — its JobState element under
// "<set id>#<job name>" in the same home — written at that job's own
// transitions, so a job event journals one job and not the whole set.
// Load materialises the document every reader has always seen: each
// JobState child replaced by its row where there is one. A data-dir from
// before rows existed has none, and reads as it always did.
//
// Writers put rows first and the document last; readers take the document
// first and the rows after. A set status is therefore never visible — to a
// reader that takes no lock, or after a crash between two journal records
// — without the job states it was decided on: no terminal set over a live
// job. The reverse, a Running set whose jobs have all settled, is what a
// crash before the verdict leaves, and reserve → settle closes it on
// Recover. Every writer, Destroy included, holds the set's invocation lock.
//
// Rows are not resources: they cannot be loaded, destroyed or listed.
//
// A set this process created is live until its last write: the home
// keeps its document exactly as Load would read it from the store, rows
// substituted, and a status read clones that and decodes nothing. Each
// write goes to the store first and into the kept document after, so a
// reader sees the writes in the order the store took them. Only Create
// makes a live set: a reader that takes no lock never keeps what it
// read, which could be older than a write beside it. The live set ends at
// the Save that stamps notified (the set's last write), at Destroy, and at
// any failed write, whose outcome in the store is unknown; from then on
// the set, like a recovered one, reads through the store. What it keeps
// is what the blob codec reads back (text trimmed, strings scrubbed), so
// the inner home must store with resourcedb.BlobCodec: over another codec
// a live Load would differ from a Load through the store.
type jobSetHome struct {
	wsrf.ResourceHome

	mu   sync.RWMutex
	live map[string]*liveSet
}

func newJobSetHome(inner wsrf.ResourceHome) *jobSetHome {
	return &jobSetHome{ResourceHome: inner, live: make(map[string]*liveSet)}
}

// liveSet is a live set's document as the store would return it. Its
// one writer, who holds the set's invocation lock, swaps a row into its
// slot under mu; readers clone under the read lock.
type liveSet struct {
	mu   sync.RWMutex
	doc  *xmlutil.Element
	slot map[string]int // job name → index of its JobState in doc.Children
}

// newLiveSet keeps doc as the store reads it back: nil when a job's name
// reads back otherwise or repeats, for rows are found by name.
func newLiveSet(doc *xmlutil.Element) *liveSet {
	kept, err := xmlutil.ReadBack(doc)
	if err != nil {
		return nil
	}
	slot := make(map[string]int, len(kept.Children))
	for i, c := range kept.Children {
		if c.Name != QJobState {
			continue
		}
		name := c.Attr(qNameAttr)
		if _, dup := slot[name]; dup || name != doc.Children[i].Attr(qNameAttr) {
			return nil
		}
		slot[name] = i
	}
	return &liveSet{doc: kept, slot: slot}
}

// put swaps a stored row, as the store reads it back, into its job's
// slot, if the set is live and has that job.
func (l *liveSet) put(job *xmlutil.Element) error {
	i, ok := l.slotOf(job)
	if !ok {
		return nil
	}
	row, err := xmlutil.ReadBack(job)
	if err != nil {
		return err
	}
	l.mu.Lock()
	l.doc.Children[i] = row
	l.mu.Unlock()
	return nil
}

// slotOf is the index of job's slot in a live set; a nil set has none.
func (l *liveSet) slotOf(job *xmlutil.Element) (int, bool) {
	if l == nil {
		return 0, false
	}
	i, ok := l.slot[job.Attr(qNameAttr)]
	return i, ok
}

func (h *jobSetHome) liveOf(id string) *liveSet {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.live[id]
}

// keep makes l the set's live document; a nil l ends it.
func (h *jobSetHome) keep(id string, l *liveSet) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if l == nil {
		delete(h.live, id)
	} else {
		h.live[id] = l
	}
}

// A set id is a UUID; only a row's id contains the separator.
func rowID(set string, job *xmlutil.Element) string { return set + "#" + job.Attr(qNameAttr) }

func isRow(id string) bool { return strings.Contains(id, "#") }

func noSuchSet(id string) error { return fmt.Errorf("%w: %q", wsrf.ErrNoSuchResource, id) }

// row loads the stored row of a JobState element, nil when it has none.
func (h *jobSetHome) row(set string, job *xmlutil.Element) (*xmlutil.Element, error) {
	row, err := h.ResourceHome.Load(rowID(set, job))
	if errors.Is(err, wsrf.ErrNoSuchResource) {
		return nil, nil
	}
	return row, err
}

func (h *jobSetHome) Load(id string) (*xmlutil.Element, error) {
	if isRow(id) {
		return nil, noSuchSet(id)
	}
	if l := h.liveOf(id); l != nil {
		l.mu.RLock()
		defer l.mu.RUnlock()
		return l.doc.Clone(), nil
	}
	doc, err := h.ResourceHome.Load(id)
	if err != nil {
		return nil, err
	}
	for i, c := range doc.Children {
		if c.Name != QJobState {
			continue
		}
		if row, err := h.row(id, c); err != nil {
			return nil, err
		} else if row != nil {
			doc.Children[i] = row
		}
	}
	return doc, nil
}

// Create stores a new set, live from here on: it has no rows yet.
func (h *jobSetHome) Create(id string, doc *xmlutil.Element) error {
	if err := h.ResourceHome.Create(id, doc); err != nil {
		return err
	}
	if !isRow(id) {
		h.keep(id, newLiveSet(doc))
	}
	return nil
}

// Save stores a whole document, first rewriting every row it disagrees
// with: Save then Load is the identity, whoever edited the job states.
func (h *jobSetHome) Save(id string, doc *xmlutil.Element) error {
	l := h.liveOf(id)
	for _, c := range doc.ChildrenNamed(QJobState) {
		if err := h.saveRow(l, id, c); err != nil {
			h.keep(id, nil)
			return err
		}
	}
	if err := h.ResourceHome.Save(id, doc); err != nil {
		h.keep(id, nil)
		return err
	}
	if l != nil {
		if doc.Attr(qNotifiedAttr) == "true" {
			h.keep(id, nil)
		} else {
			h.keep(id, newLiveSet(doc))
		}
	}
	return nil
}

// saveRow rewrites job's row if it has one that disagrees with job. A
// live set's slot holds the row where there is one, so a job that agrees
// with its slot reads nothing from the store.
func (h *jobSetHome) saveRow(l *liveSet, set string, job *xmlutil.Element) error {
	id := rowID(set, job)
	if i, ok := l.slotOf(job); ok {
		if l.doc.Children[i].Equal(job) || !h.ResourceHome.Exists(id) {
			return nil
		}
	} else if row, err := h.row(set, job); err != nil || row == nil || row.Equal(job) {
		return err
	}
	return h.ResourceHome.Save(id, job)
}

// saveJobs stores JobState elements as rows of their set, and keeps them:
// the caller does not write them again.
func (h *jobSetHome) saveJobs(set string, jobs []*xmlutil.Element) error {
	l := h.liveOf(set)
	for _, job := range jobs {
		id := rowID(set, job)
		err := h.ResourceHome.Save(id, job)
		if errors.Is(err, wsrf.ErrNoSuchResource) {
			err = h.ResourceHome.Create(id, job) // a row is no set: it is never live
		}
		if err == nil {
			err = l.put(job)
		}
		if err != nil {
			h.keep(set, nil)
			return err
		}
	}
	return nil
}

// Destroy removes the rows, then the document: stopped half way it leaves
// a set that still reads whole and can be destroyed again.
func (h *jobSetHome) Destroy(id string) error {
	if isRow(id) {
		return noSuchSet(id)
	}
	h.keep(id, nil)
	doc, err := h.ResourceHome.Load(id)
	if err != nil {
		return err
	}
	for _, c := range doc.ChildrenNamed(QJobState) {
		if err := h.ResourceHome.Destroy(rowID(id, c)); err != nil && !errors.Is(err, wsrf.ErrNoSuchResource) {
			return err
		}
	}
	return h.ResourceHome.Destroy(id)
}

func (h *jobSetHome) Exists(id string) bool { return !isRow(id) && h.ResourceHome.Exists(id) }

func (h *jobSetHome) IDs() []string { return slices.DeleteFunc(h.ResourceHome.IDs(), isRow) }
