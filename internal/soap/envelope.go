// Package soap implements the SOAP envelope processing model the testbed
// is built on: envelopes with header blocks and a single body element,
// SOAP faults, and an action-based dispatch table. It deliberately mirrors
// the slice of SOAP 1.2 that WSRF.NET services exercise — everything of
// interest in the paper travels in header blocks (WS-Addressing,
// WS-Security) and one body element per message.
package soap

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"io"
	"sync"

	"uvacg/internal/soap/fastcodec"
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
	// from the body by <xop:Include> elements (see attach.go). Every
	// binding carries them raw (inlined as base64 only for a plain SOAP
	// requester over HTTP); Marshal serializes only the XML.
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

// Clone deep-copies the envelope. Attachment data is shared (the parts
// are treated as immutable once attached), but the list itself is
// copied so Attach on the clone cannot disturb the original.
func (e *Envelope) Clone() *Envelope {
	out := &Envelope{}
	for _, h := range e.Headers {
		out.Headers = append(out.Headers, h.Clone())
	}
	out.Body = e.Body.Clone()
	if len(e.Attachments) > 0 {
		out.Attachments = append([]Attachment(nil), e.Attachments...)
	}
	return out
}

// MaxEnvelopeBytes bounds how much soap.Read (and the transport request
// readers that feed Unmarshal) will buffer for one envelope. A corrupt
// or malicious peer otherwise drives io.ReadAll into unbounded
// allocation. It matches the soap.tcp frame cap.
const MaxEnvelopeBytes = 64 << 20

// maxEnvelope is the bound Read enforces: MaxEnvelopeBytes, lowered only
// by tests.
var maxEnvelope int64 = MaxEnvelopeBytes

// ErrEnvelopeTooLarge is wrapped by the fault Read returns for an
// oversized envelope, so transports can branch on it.
var ErrEnvelopeTooLarge = fmt.Errorf("envelope exceeds size bound")

// marshalBufPool recycles the scratch buffers envelopes are encoded
// into on the encoding/xml fallback path: the buffer's growth is the
// only allocation that encoder cannot avoid.
var marshalBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// Marshal serializes the envelope (XML only; attachments travel in the
// binding's framing or are inlined beforehand) to wire form: encoded into
// pooled scratch, returned as one allocation of exactly its length.
func (e *Envelope) Marshal() ([]byte, error) {
	if out, ok := fastcodec.EncodeEnvelope(NS, e.Headers, e.Body); ok {
		return out, nil
	}
	return e.marshalSlow()
}

// marshalSlow is the encoding/xml reference path: it materializes the
// wrapper tree and runs the token encoder.
func (e *Envelope) marshalSlow() ([]byte, error) {
	buf := marshalBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	defer marshalBufPool.Put(buf)
	buf.WriteString(xml.Header)
	enc := xml.NewEncoder(buf)
	root := &xmlutil.Element{Name: qEnvelope}
	if len(e.Headers) > 0 {
		hdr := &xmlutil.Element{Name: qHeader}
		hdr.Children = append(hdr.Children, e.Headers...)
		root.Children = append(root.Children, hdr)
	}
	body := &xmlutil.Element{Name: qBody}
	if e.Body != nil {
		body.Children = []*xmlutil.Element{e.Body}
	}
	root.Children = append(root.Children, body)
	if err := enc.Encode(root); err != nil {
		return nil, fmt.Errorf("soap: marshal envelope: %w", err)
	}
	if err := enc.Flush(); err != nil {
		return nil, err
	}
	return bytes.Clone(buf.Bytes()), nil
}

// Unmarshal parses wire bytes into an Envelope, validating the SOAP
// structure (envelope/body element names, at most one body child). The
// fast decoder handles recognized shapes; anything it refuses goes
// through encoding/xml. The envelope's strings may point into data (see
// fastcodec.Decode): once data is passed here the envelope owns it, and
// nobody may write to it again.
func Unmarshal(data []byte) (*Envelope, error) {
	if root, ok := fastcodec.Decode(data); ok {
		return fromElement(root)
	}
	root, err := xmlutil.UnmarshalElement(data)
	if err != nil {
		return nil, fmt.Errorf("soap: parse: %w", err)
	}
	return fromElement(root)
}

// Read parses an envelope from a stream, refusing to buffer more than
// MaxEnvelopeBytes with a Sender fault.
func Read(r io.Reader) (*Envelope, error) {
	max := maxEnvelope
	data, err := io.ReadAll(io.LimitReader(r, max+1))
	if err != nil {
		return nil, fmt.Errorf("soap: read: %w", err)
	}
	if int64(len(data)) > max {
		return nil, fmt.Errorf("soap: read: %w: %w",
			SenderFault("envelope exceeds %d byte limit", max), ErrEnvelopeTooLarge)
	}
	return Unmarshal(data)
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
