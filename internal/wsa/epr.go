// Package wsa implements the WS-Addressing constructs WSRF builds on:
// EndpointReferences (an address plus ReferenceProperties naming a
// particular WS-Resource) and the message-information SOAP headers
// (To/Action/MessageID/RelatesTo/ReplyTo) every invocation carries.
package wsa

import (
	"crypto/rand"
	"fmt"
	"slices"
	"strings"

	"uvacg/internal/xmlutil"
)

// NS is the WS-Addressing namespace (the August 2004 member submission,
// the version contemporary with WSRF.NET 1.1).
const NS = "http://schemas.xmlsoap.org/ws/2004/08/addressing"

var (
	qEPR       = xmlutil.Q(NS, "EndpointReference")
	qAddress   = xmlutil.Q(NS, "Address")
	qRefProps  = xmlutil.Q(NS, "ReferenceProperties")
	qTo        = xmlutil.Q(NS, "To")
	qAction    = xmlutil.Q(NS, "Action")
	qMessageID = xmlutil.Q(NS, "MessageID")
	qRelatesTo = xmlutil.Q(NS, "RelatesTo")
	qReplyTo   = xmlutil.Q(NS, "ReplyTo")
	qIsRefProp = xmlutil.Q(NS, "isReferenceParameter")
)

// EndpointReference names a WS-Resource: a transport address (the web
// service) plus ReferenceProperties (the stateful resource behind it).
// The paper's testbed passes EPRs for directories, jobs, processors and
// job sets between every pair of services.
type EndpointReference struct {
	// Address is the service URI. Its scheme selects the transport:
	// "http" for the normal binding, "soap.tcp" for the WSE-style framed
	// TCP binding, "inproc" for in-process loopback.
	Address string
	// ReferenceProperties identify the resource at that service: one
	// entry per name, sorted by name (namespace, then local part), the
	// order String and both wire forms write them in. WithProperty and
	// the parsers keep it so (canonical); build it through them.
	ReferenceProperties []Property
}

// Property is one reference property of an EPR.
type Property struct {
	Name  xmlutil.QName
	Value string
}

// propertyOrder is the canonical property order: namespace, then local
// name.
func propertyOrder(a, b Property) int {
	if c := strings.Compare(a.Name.Space, b.Name.Space); c != 0 {
		return c
	}
	return strings.Compare(a.Name.Local, b.Name.Local)
}

// canonical sorts props, a list given in arrival order, into the
// canonical order and keeps the last value of each name, in place: one
// sort, so a peer's message with many reference properties costs
// O(n log n), not a scan per property.
func canonical(props []Property) []Property {
	slices.SortStableFunc(props, propertyOrder)
	out := props[:0]
	for i, p := range props {
		if i+1 < len(props) && props[i+1].Name == p.Name {
			continue // a later value of the name follows
		}
		out = append(out, p)
	}
	return out
}

// NewEPR builds an EPR with no reference properties (a plain service).
func NewEPR(address string) EndpointReference {
	return EndpointReference{Address: address}
}

// WithProperty returns a copy of the EPR with one reference property
// added or replaced.
func (e EndpointReference) WithProperty(name xmlutil.QName, value string) EndpointReference {
	props := make([]Property, len(e.ReferenceProperties), len(e.ReferenceProperties)+1)
	copy(props, e.ReferenceProperties)
	props = append(props, Property{Name: name, Value: value})
	return EndpointReference{Address: e.Address, ReferenceProperties: canonical(props)}
}

// Own returns a copy of the EPR that shares no memory with e: its address
// and every property name and value are cut from one string of its own.
// An EPR read from a message points into that message's bytes (the
// decoder copies nothing), so a structure that keeps one past the message
// keeps Own's copy, which holds its own bytes and not the whole frame.
func (e EndpointReference) Own() EndpointReference {
	if e.IsZero() {
		return EndpointReference{}
	}
	n := len(e.Address)
	for _, p := range e.ReferenceProperties {
		n += len(p.Name.Space) + len(p.Name.Local) + len(p.Value)
	}
	var b strings.Builder
	b.Grow(n)
	b.WriteString(e.Address)
	for _, p := range e.ReferenceProperties {
		b.WriteString(p.Name.Space)
		b.WriteString(p.Name.Local)
		b.WriteString(p.Value)
	}
	s := b.String()
	take := func(k int) string {
		v := s[:k]
		s = s[k:]
		return v
	}
	out := EndpointReference{Address: take(len(e.Address))}
	if len(e.ReferenceProperties) > 0 {
		out.ReferenceProperties = make([]Property, len(e.ReferenceProperties))
		for i, p := range e.ReferenceProperties {
			out.ReferenceProperties[i] = Property{
				Name:  xmlutil.QName{Space: take(len(p.Name.Space)), Local: take(len(p.Name.Local))},
				Value: take(len(p.Value)),
			}
		}
	}
	return out
}

// Property returns a reference property value, or "".
func (e EndpointReference) Property(name xmlutil.QName) string {
	for _, p := range e.ReferenceProperties {
		if p.Name == name {
			return p.Value
		}
	}
	return ""
}

// IsZero reports whether the EPR is unset.
func (e EndpointReference) IsZero() bool {
	return e.Address == "" && len(e.ReferenceProperties) == 0
}

// Equal reports whether two EPRs name the same WS-Resource.
func (e EndpointReference) Equal(o EndpointReference) bool {
	return e.Address == o.Address && slices.Equal(e.ReferenceProperties, o.ReferenceProperties)
}

// String renders a canonical, human-readable form usable as a map key:
// the address, then "?{ns}local=value" pairs joined by "&" in name order.
func (e EndpointReference) String() string {
	if len(e.ReferenceProperties) == 0 {
		return e.Address
	}
	n := len(e.Address)
	for _, p := range e.ReferenceProperties {
		n += len("?{}=") + len(p.Name.Space) + len(p.Name.Local) + len(p.Value)
	}
	var b strings.Builder
	b.Grow(n)
	b.WriteString(e.Address)
	for i, p := range e.ReferenceProperties {
		if i == 0 {
			b.WriteByte('?')
		} else {
			b.WriteByte('&')
		}
		if p.Name.Space != "" {
			b.WriteByte('{')
			b.WriteString(p.Name.Space)
			b.WriteByte('}')
		}
		b.WriteString(p.Name.Local)
		b.WriteByte('=')
		b.WriteString(p.Value)
	}
	return b.String()
}

// Element renders the EPR as an <EndpointReference> element (used when an
// EPR travels in a message body, e.g. CreateResourceResponse).
func (e EndpointReference) Element() *xmlutil.Element {
	return e.ElementNamed(qEPR)
}

// ElementNamed renders the EPR under an arbitrary element name, as specs
// like WS-BaseNotification do (ConsumerReference, ProducerReference...).
// The tree's elements share one array, and its child lists another.
func (e EndpointReference) ElementNamed(name xmlutil.QName) *xmlutil.Element {
	n := len(e.ReferenceProperties)
	if n == 0 {
		els := make([]xmlutil.Element, 2)
		els[0] = xmlutil.Element{Name: name, Children: []*xmlutil.Element{&els[1]}}
		els[1] = xmlutil.Element{Name: qAddress, Text: e.Address}
		return &els[0]
	}
	// The root, Address, ReferenceProperties and one element a property.
	els := make([]xmlutil.Element, 3+n)
	kids := make([]*xmlutil.Element, 2+n)
	kids[0], kids[1] = &els[1], &els[2]
	els[0] = xmlutil.Element{Name: name, Children: kids[:2:2]}
	els[1] = xmlutil.Element{Name: qAddress, Text: e.Address}
	els[2] = xmlutil.Element{Name: qRefProps, Children: kids[2:]}
	for i, p := range e.ReferenceProperties {
		els[3+i] = xmlutil.Element{Name: p.Name, Text: p.Value}
		kids[2+i] = &els[3+i]
	}
	return &els[0]
}

// ParseEPR decodes an EPR from its element form (any element name whose
// children follow the EndpointReference schema).
func ParseEPR(el *xmlutil.Element) (EndpointReference, error) {
	if el == nil {
		return EndpointReference{}, fmt.Errorf("wsa: nil EPR element")
	}
	addr := el.Child(qAddress)
	if addr == nil || addr.Text == "" {
		return EndpointReference{}, fmt.Errorf("wsa: EPR %v has no Address", el.Name)
	}
	epr := EndpointReference{Address: addr.Text}
	if props := el.Child(qRefProps); props != nil && len(props.Children) > 0 {
		list := make([]Property, len(props.Children))
		for i, p := range props.Children {
			list[i] = Property{Name: p.Name, Value: p.Text}
		}
		epr.ReferenceProperties = canonical(list)
	}
	return epr, nil
}

// NewMessageID returns a fresh urn:uuid message identifier.
func NewMessageID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("wsa: entropy unavailable: " + err.Error())
	}
	// RFC 4122 version 4 variant bits.
	b[6] = (b[6] & 0x0f) | 0x40
	b[8] = (b[8] & 0x3f) | 0x80
	const prefix = "urn:uuid:"
	var id [len(prefix) + 36]byte
	copy(id[:], prefix)
	at := len(prefix)
	for i, c := range b {
		if i == 4 || i == 6 || i == 8 || i == 10 {
			id[at] = '-'
			at++
		}
		id[at], id[at+1] = hexDigits[c>>4], hexDigits[c&0x0f]
		at += 2
	}
	return string(id[:])
}

const hexDigits = "0123456789abcdef"

// ParseEPRString parses the canonical String() form
// ("address?{ns}local=value&...") back into an EPR — the form humans
// copy between command-line tools.
func ParseEPRString(s string) (EndpointReference, error) {
	if s == "" {
		return EndpointReference{}, fmt.Errorf("wsa: empty EPR string")
	}
	addr, props, hasProps := strings.Cut(s, "?")
	epr := EndpointReference{Address: addr}
	if !hasProps || props == "" {
		return epr, nil
	}
	for _, pair := range strings.Split(props, "&") {
		key, value, ok := strings.Cut(pair, "=")
		if !ok {
			return EndpointReference{}, fmt.Errorf("wsa: malformed reference property %q", pair)
		}
		q, err := xmlutil.ParseQName(key)
		if err != nil {
			return EndpointReference{}, fmt.Errorf("wsa: reference property name: %w", err)
		}
		epr.ReferenceProperties = append(epr.ReferenceProperties, Property{Name: q, Value: value})
	}
	epr.ReferenceProperties = canonical(epr.ReferenceProperties)
	return epr, nil
}
