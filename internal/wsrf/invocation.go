package wsrf

import (
	"sync"

	"uvacg/internal/soap"
	"uvacg/internal/wsa"
	"uvacg/internal/xmlutil"
)

// Invocation is the per-request execution context the wrapper pipeline
// hands to method implementations: which resource was addressed, its
// loaded state document, and the WS-Addressing message info. It is the
// Go rendering of WSRF.NET making "[Resource] data members" available to
// the invoked method.
type Invocation struct {
	// Service is the service being invoked.
	Service *Service
	// ResourceID is the id from the EPR's reference properties; empty
	// for service-level (resource-less) methods such as factories.
	ResourceID string
	// Doc is the resource's state document, loaded before dispatch.
	// Mutations are saved back automatically when the method returns
	// (only if the document actually changed, per the paper's "if the
	// value of some_data is changed ... will save that new value back").
	Doc *xmlutil.Element
	// Info carries the request's WS-Addressing headers.
	Info wsa.MessageInfo
	// Req is the full request envelope, giving methods access to binary
	// attachments referenced from the body (Envelope.ContentBytes).
	Req *soap.Envelope

	pristine  *xmlutil.Element  // snapshot for change detection
	destroyed bool              // set by Destroy to suppress the save-back
	replyAtts []soap.Attachment // reply attachments collected via Attach
}

// Attach externalizes data as a binary attachment of the eventual reply
// envelope and returns the include element to embed in the response
// body — the server-side half of the MTOM-style fast path. For a plain
// SOAP requester over HTTP the transport inlines the bytes as base64, so
// methods attach unconditionally.
func (inv *Invocation) Attach(data []byte) *xmlutil.Element {
	id := soap.NextAttachmentID(inv.replyAtts)
	inv.replyAtts = append(inv.replyAtts, soap.Attachment{ID: id, Data: data})
	return soap.IncludeElement(id)
}

// Property returns the text of a top-level state property, or "".
func (inv *Invocation) Property(name xmlutil.QName) string {
	if inv.Doc == nil {
		return ""
	}
	return inv.Doc.ChildText(name)
}

// SetProperty replaces (or appends) a top-level state property.
func (inv *Invocation) SetProperty(name xmlutil.QName, value string) {
	if inv.Doc == nil {
		return
	}
	if c := inv.Doc.Child(name); c != nil {
		c.Text = value
		return
	}
	inv.Doc.Append(xmlutil.NewElement(name, value))
}

// RemoveProperty deletes every top-level property with the given name,
// reporting the count removed.
func (inv *Invocation) RemoveProperty(name xmlutil.QName) int {
	if inv.Doc == nil {
		return 0
	}
	kept := inv.Doc.Children[:0]
	removed := 0
	for _, c := range inv.Doc.Children {
		if c.Name == name {
			removed++
			continue
		}
		kept = append(kept, c)
	}
	inv.Doc.Children = kept
	return removed
}

// markDestroyed tells the pipeline the resource is gone and its state
// must not be written back.
func (inv *Invocation) markDestroyed() { inv.destroyed = true }

// resourceLocks serializes invocations per resource id, so two
// simultaneous method calls on one WS-Resource do not interleave their
// load/mutate/save cycles (the lost-update hazard of the paper's
// database-backed model).
type resourceLocks struct {
	mu    sync.Mutex
	locks map[string]*lockEntry
}

type lockEntry struct {
	mu   sync.Mutex
	refs int
}

func newResourceLocks() *resourceLocks {
	return &resourceLocks{locks: make(map[string]*lockEntry)}
}

// acquire locks id, returning the release func. Entries are
// reference-counted and removed when idle so destroyed resources do not
// leak lock state.
func (rl *resourceLocks) acquire(id string) func() {
	rl.mu.Lock()
	e := rl.locks[id]
	if e == nil {
		e = &lockEntry{}
		rl.locks[id] = e
	}
	e.refs++
	rl.mu.Unlock()

	e.mu.Lock()
	return func() {
		e.mu.Unlock()
		rl.mu.Lock()
		e.refs--
		if e.refs == 0 {
			delete(rl.locks, id)
		}
		rl.mu.Unlock()
	}
}
