package wsrf

import (
	"fmt"

	"uvacg/internal/resourcedb"
	"uvacg/internal/xmlutil"
)

// ResourceHome creates, loads, saves and destroys stateful resources —
// the internal interface paper §3 describes ("defines functions for
// creating, destroying, loading and saving" WS-Resources) and that
// WSRF.NET 2.0 planned to expose to programmers. Implementations exist
// for database-backed state (StateHome) and services layer process- or
// directory-backed resources on top of it.
type ResourceHome interface {
	// Create registers a new resource with its initial state document.
	// Creating an existing id is an error.
	Create(id string, initial *xmlutil.Element) error
	// Load fetches the resource's current state document. A missing
	// resource returns ErrNoSuchResource.
	Load(id string) (*xmlutil.Element, error)
	// Save persists an updated state document for an existing resource.
	Save(id string, doc *xmlutil.Element) error
	// Destroy removes the resource. Destroying a missing resource
	// returns ErrNoSuchResource.
	Destroy(id string) error
	// Exists reports whether the resource is known.
	Exists(id string) bool
	// IDs enumerates all resources (used by the lifetime port type's
	// start-up walk and by rediscovery queries).
	IDs() []string
}

// ErrNoSuchResource reports an EPR naming a resource the home does not
// know — the canonical WSRF addressing failure.
var ErrNoSuchResource = fmt.Errorf("wsrf: no such resource")

// StateHome is the "WS-Resource as state" home: resources live as rows
// in a resourcedb table, loaded and saved around each invocation.
type StateHome struct {
	table *resourcedb.Table
}

// NewStateHome wraps a database table.
func NewStateHome(table *resourcedb.Table) *StateHome {
	return &StateHome{table: table}
}

// Create implements ResourceHome.
func (h *StateHome) Create(id string, initial *xmlutil.Element) error {
	if h.table.Exists(id) {
		return fmt.Errorf("wsrf: resource %q already exists", id)
	}
	if initial == nil {
		return fmt.Errorf("wsrf: resource %q needs an initial state document", id)
	}
	return h.table.Put(id, initial)
}

// Load implements ResourceHome.
func (h *StateHome) Load(id string) (*xmlutil.Element, error) {
	doc, ok, err := h.table.Get(id)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchResource, id)
	}
	return doc, nil
}

// Save implements ResourceHome.
func (h *StateHome) Save(id string, doc *xmlutil.Element) error {
	if !h.table.Exists(id) {
		return fmt.Errorf("%w: %q", ErrNoSuchResource, id)
	}
	return h.table.Put(id, doc)
}

// Destroy implements ResourceHome.
func (h *StateHome) Destroy(id string) error {
	ok, err := h.table.Delete(id)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoSuchResource, id)
	}
	return nil
}

// Exists implements ResourceHome.
func (h *StateHome) Exists(id string) bool { return h.table.Exists(id) }

// IDs implements ResourceHome.
func (h *StateHome) IDs() []string { return h.table.IDs() }
