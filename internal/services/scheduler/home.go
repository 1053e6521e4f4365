package scheduler

import (
	"errors"
	"fmt"
	"slices"
	"strings"

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
type jobSetHome struct{ wsrf.ResourceHome }

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

// Save stores a whole document, first rewriting every row it disagrees
// with: Save then Load is the identity, whoever edited the job states.
func (h *jobSetHome) Save(id string, doc *xmlutil.Element) error {
	for _, c := range doc.ChildrenNamed(QJobState) {
		row, err := h.row(id, c)
		if err == nil && row != nil && !row.Equal(c) {
			err = h.ResourceHome.Save(rowID(id, c), c)
		}
		if err != nil {
			return err
		}
	}
	return h.ResourceHome.Save(id, doc)
}

// saveJobs stores JobState elements as rows of their set.
func (h *jobSetHome) saveJobs(set string, jobs []*xmlutil.Element) error {
	for _, job := range jobs {
		id, save := rowID(set, job), h.ResourceHome.Save
		if !h.ResourceHome.Exists(id) {
			save = h.Create
		}
		if err := save(id, job); err != nil {
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
