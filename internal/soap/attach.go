package soap

import (
	"encoding/base64"
	"fmt"
	"strings"

	"uvacg/internal/xmlutil"
)

// NSXOP is the XOP include namespace: the body element that stands in
// for binary content externalized into an attachment, exactly the
// MTOM/XOP shape WSE-era bindings used to escape base64 inflation.
const NSXOP = "http://www.w3.org/2004/08/xop/include"

var (
	qInclude = xmlutil.Q(NSXOP, "Include")
	qHref    = xmlutil.Q("", "href")
)

// Attachment is one binary part riding outside the XML envelope. Every
// shipped binding (soap.tcp, inproc, http between this code's client and
// server) carries the bytes raw; for a requester that cannot take parts
// they are inlined back into the body as base64 text before marshalling
// (InlineAttachments).
type Attachment struct {
	ID   string
	Data []byte
}

// cidRef renders an attachment id as the href of its include element.
func cidRef(id string) string { return "cid:" + id }

// IncludeElement builds the <xop:Include href="cid:id"/> element that
// references an attachment from the body.
func IncludeElement(id string) *xmlutil.Element {
	e := &xmlutil.Element{Name: qInclude}
	e.SetAttr(qHref, cidRef(id))
	return e
}

// NextAttachmentID allocates an id unique within a growing attachment
// list (shared by Envelope.Attach and server-side collectors that build
// the list before the reply envelope exists).
func NextAttachmentID(list []Attachment) string {
	return fmt.Sprintf("att-%d", len(list)+1)
}

// Attach externalizes data as an attachment of the envelope and returns
// the include element to place where the base64 text would have gone.
// The data is held by reference; callers must not mutate it afterwards.
func (e *Envelope) Attach(data []byte) *xmlutil.Element {
	id := NextAttachmentID(e.Attachments)
	e.Attachments = append(e.Attachments, Attachment{ID: id, Data: data})
	return IncludeElement(id)
}

// HasAttachments reports whether any parts ride outside the envelope.
func (e *Envelope) HasAttachments() bool { return len(e.Attachments) > 0 }

// AttachmentData returns the named attachment's bytes.
func (e *Envelope) AttachmentData(id string) ([]byte, bool) {
	for i := range e.Attachments {
		if e.Attachments[i].ID == id {
			return e.Attachments[i].Data, true
		}
	}
	return nil, false
}

// ContentBytes decodes the binary content of el in either wire form: an
// <xop:Include> child resolving to an attachment of the envelope, or
// inline base64 character data. A nil el yields empty content (the
// historical behaviour of decoding an absent element's text); a nil
// receiver forces the inline path, for callers holding only a body.
// Attachment data is returned by reference, and over a by-reference
// binding (inproc, a co-located route) it is the sender's own: callers
// must not mutate it, and copy it if they keep it.
func (e *Envelope) ContentBytes(el *xmlutil.Element) ([]byte, error) {
	if el == nil {
		return nil, nil
	}
	if e != nil {
		if inc := el.Child(qInclude); inc != nil {
			id := strings.TrimPrefix(inc.Attr(qHref), "cid:")
			data, ok := e.AttachmentData(id)
			if !ok {
				return nil, fmt.Errorf("soap: include references missing attachment %q", id)
			}
			return data, nil
		}
	}
	return base64.StdEncoding.DecodeString(el.Text)
}

// InlineAttachments rewrites the envelope for a requester that cannot
// take parts: every include element is replaced by the base64
// text of the attachment it references, and the attachment list is
// cleared. Unreferenced attachments are dropped (nothing in the body
// points at them). Safe to call on envelopes without attachments.
func (e *Envelope) InlineAttachments() {
	if len(e.Attachments) == 0 {
		return
	}
	for _, h := range e.Headers {
		e.inlineInto(h)
	}
	e.inlineInto(e.Body)
	e.Attachments = nil
}

func (e *Envelope) inlineInto(el *xmlutil.Element) {
	if el == nil {
		return
	}
	kept := el.Children[:0]
	for _, c := range el.Children {
		if c.Name == qInclude {
			id := strings.TrimPrefix(c.Attr(qHref), "cid:")
			if data, ok := e.AttachmentData(id); ok {
				el.Text = base64.StdEncoding.EncodeToString(data)
				continue // drop the include element
			}
		}
		e.inlineInto(c)
		kept = append(kept, c)
	}
	el.Children = kept
}
