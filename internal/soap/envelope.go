// Package soap implements the SOAP envelope processing model the testbed
// is built on: envelopes with header blocks and a single body element,
// SOAP faults, and an action-based dispatch table. It deliberately mirrors
// the slice of SOAP 1.2 that WSRF.NET services exercise — everything of
// interest in the paper travels in header blocks (WS-Addressing,
// WS-Security) and one body element per message.
package soap

import (
	"fmt"

	"uvacg/internal/xmlutil"
)

// NS is the SOAP 1.2 envelope namespace.
const NS = "http://www.w3.org/2003/05/soap-envelope"

var (
	qEnvelope = xmlutil.Q(NS, "Envelope")
	qHeader   = xmlutil.Q(NS, "Header")
	qBody     = xmlutil.Q(NS, "Body")
)

// Envelope is a SOAP message: an ordered list of header blocks and a
// single body element. A nil Body is legal and models an empty response
// (the reply to a void method, which the paper distinguishes from a
// one-way message that has no reply at all).
type Envelope struct {
	Headers []*xmlutil.Element
	Body    *xmlutil.Element
	// Attachments are binary parts riding outside the XML, referenced
	// from the body by <xop:Include> elements (see attach.go). soap.tcp
	// and the in-process bindings carry them raw, HTTP inline as base64;
	// Marshal serializes only the XML.
	Attachments []Attachment
}

// New builds an envelope around a body element.
func New(body *xmlutil.Element) *Envelope {
	return &Envelope{Body: body}
}

// AddHeader appends a header block and returns the envelope for chaining.
func (e *Envelope) AddHeader(h *xmlutil.Element) *Envelope {
	e.Headers = append(e.Headers, h)
	return e
}

// Header returns the first header block with the given name, or nil.
func (e *Envelope) Header(name xmlutil.QName) *xmlutil.Element {
	for _, h := range e.Headers {
		if h.Name == name {
			return h
		}
	}
	return nil
}

// HeaderText returns the text content of the named header block.
func (e *Envelope) HeaderText(name xmlutil.QName) string {
	if h := e.Header(name); h != nil {
		return h.Text
	}
	return ""
}

// RemoveHeader deletes every header block with the given name, returning
// the count removed.
func (e *Envelope) RemoveHeader(name xmlutil.QName) int {
	kept := e.Headers[:0]
	removed := 0
	for _, h := range e.Headers {
		if h.Name == name {
			removed++
			continue
		}
		kept = append(kept, h)
	}
	e.Headers = kept
	return removed
}

// Clone deep-copies the envelope, its trees from one slab. Attachment
// data is shared (the parts are treated as immutable once attached), but
// the list itself is copied so Attach on the clone cannot disturb the
// original.
func (e *Envelope) Clone() *Envelope {
	out := &Envelope{}
	out.Headers, out.Body = xmlutil.CloneEnvelope(e.Headers, e.Body)
	if len(e.Attachments) > 0 {
		out.Attachments = append([]Attachment(nil), e.Attachments...)
	}
	return out
}

// ReadBack returns what Unmarshal reads from Marshal's bytes for e, and
// the length of those bytes, without keeping them: the form in which an
// in-process route hands a receiver its own envelope, as a reader on a
// socket would decode it (xmlutil.ReadBackEnvelope). It refuses what
// Marshal refuses. Attachments are not carried, as the bytes do not
// carry them.
func (e *Envelope) ReadBack() (*Envelope, int, error) {
	headers, body, size, err := xmlutil.ReadBackEnvelope(NS, e.Headers, e.Body)
	if err != nil {
		return nil, 0, err
	}
	return &Envelope{Headers: headers, Body: body}, size, nil
}

// MaxEnvelopeBytes bounds how much a binding's request reader buffers
// for one envelope before Unmarshal sees it. A corrupt or malicious peer
// otherwise drives the read into unbounded allocation. It is the
// soap.tcp frame cap too.
const MaxEnvelopeBytes = 64 << 20

// ErrEnvelopeTooLarge is wrapped by the error a binding returns for an
// oversized envelope, so transports can branch on it.
var ErrEnvelopeTooLarge = fmt.Errorf("envelope exceeds size bound")

// Marshal serializes the envelope (XML only; attachments travel in the
// binding's framing or are inlined beforehand) to wire form: encoded into
// pooled scratch, returned as one allocation of exactly its length.
func (e *Envelope) Marshal() ([]byte, error) {
	return xmlutil.MarshalEnvelope(NS, e.Headers, e.Body)
}

// MarshalScratch writes the wire form Marshal returns into a pooled
// buffer, for a writer that is done with the bytes once they are written
// (the soap.tcp frame writer), and returns the buffer for
// xmlutil.ReleaseScratch. Bytes anyone decodes must come from Marshal: a
// decoded tree points into them.
func (e *Envelope) MarshalScratch() ([]byte, *[]byte, error) {
	return xmlutil.MarshalScratch(NS, e.Headers, e.Body)
}

// Unmarshal parses wire bytes into an Envelope, validating the SOAP
// structure (envelope/body element names, at most one body child). The
// envelope's strings may point into data (see xmlutil.UnmarshalElement):
// once data is passed here the envelope owns it, and nobody may write to
// it again.
func Unmarshal(data []byte) (*Envelope, error) {
	root, err := xmlutil.UnmarshalElement(data)
	if err != nil {
		return nil, fmt.Errorf("soap: parse: %w", err)
	}
	return fromElement(root)
}

func fromElement(root *xmlutil.Element) (*Envelope, error) {
	if root.Name != qEnvelope {
		return nil, fmt.Errorf("soap: root element %v is not a SOAP envelope", root.Name)
	}
	env := &Envelope{}
	sawBody := false
	for _, c := range root.Children {
		switch c.Name {
		case qHeader:
			env.Headers = append(env.Headers, c.Children...)
		case qBody:
			if sawBody {
				return nil, fmt.Errorf("soap: multiple Body elements")
			}
			sawBody = true
			switch len(c.Children) {
			case 0:
				// empty body: void response
			case 1:
				env.Body = c.Children[0]
			default:
				return nil, fmt.Errorf("soap: body has %d children, want at most 1", len(c.Children))
			}
		default:
			return nil, fmt.Errorf("soap: unexpected envelope child %v", c.Name)
		}
	}
	if !sawBody {
		return nil, fmt.Errorf("soap: envelope has no Body")
	}
	return env, nil
}
