// Package wsa implements the WS-Addressing constructs WSRF builds on:
// EndpointReferences (an address plus ReferenceProperties naming a
// particular WS-Resource) and the message-information SOAP headers
// (To/Action/MessageID/RelatesTo/ReplyTo) every invocation carries.
package wsa

import (
	"crypto/rand"
	"fmt"
	"sort"
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
	// ReferenceProperties identify the resource at that service. Order
	// is not significant; comparison and String canonicalize by name.
	ReferenceProperties map[xmlutil.QName]string
}

// NewEPR builds an EPR with no reference properties (a plain service).
func NewEPR(address string) EndpointReference {
	return EndpointReference{Address: address}
}

// WithProperty returns a copy of the EPR with one reference property
// added or replaced.
func (e EndpointReference) WithProperty(name xmlutil.QName, value string) EndpointReference {
	props := make(map[xmlutil.QName]string, len(e.ReferenceProperties)+1)
	for k, v := range e.ReferenceProperties {
		props[k] = v
	}
	props[name] = value
	return EndpointReference{Address: e.Address, ReferenceProperties: props}
}

// Property returns a reference property value, or "".
func (e EndpointReference) Property(name xmlutil.QName) string {
	return e.ReferenceProperties[name]
}

// IsZero reports whether the EPR is unset.
func (e EndpointReference) IsZero() bool {
	return e.Address == "" && len(e.ReferenceProperties) == 0
}

// Equal reports whether two EPRs name the same WS-Resource.
func (e EndpointReference) Equal(o EndpointReference) bool {
	if e.Address != o.Address || len(e.ReferenceProperties) != len(o.ReferenceProperties) {
		return false
	}
	for k, v := range e.ReferenceProperties {
		if ov, ok := o.ReferenceProperties[k]; !ok || ov != v {
			return false
		}
	}
	return true
}

// String renders a canonical, human-readable form usable as a map key.
func (e EndpointReference) String() string {
	if len(e.ReferenceProperties) == 0 {
		return e.Address
	}
	keys := make([]xmlutil.QName, 0, len(e.ReferenceProperties))
	for k := range e.ReferenceProperties {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Space != keys[j].Space {
			return keys[i].Space < keys[j].Space
		}
		return keys[i].Local < keys[j].Local
	})
	var b strings.Builder
	b.WriteString(e.Address)
	b.WriteByte('?')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte('&')
		}
		fmt.Fprintf(&b, "%s=%s", k, e.ReferenceProperties[k])
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
func (e EndpointReference) ElementNamed(name xmlutil.QName) *xmlutil.Element {
	el := xmlutil.NewContainer(name, xmlutil.NewElement(qAddress, e.Address))
	if len(e.ReferenceProperties) > 0 {
		props := &xmlutil.Element{Name: qRefProps}
		keys := make([]xmlutil.QName, 0, len(e.ReferenceProperties))
		for k := range e.ReferenceProperties {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i].Space != keys[j].Space {
				return keys[i].Space < keys[j].Space
			}
			return keys[i].Local < keys[j].Local
		})
		for _, k := range keys {
			props.Append(xmlutil.NewElement(k, e.ReferenceProperties[k]))
		}
		el.Append(props)
	}
	return el
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
	if props := el.Child(qRefProps); props != nil {
		epr.ReferenceProperties = make(map[xmlutil.QName]string, len(props.Children))
		for _, p := range props.Children {
			epr.ReferenceProperties[p.Name] = p.Text
		}
	}
	return epr, nil
}

// NewMessageID returns a fresh urn:uuid message identifier.
func NewMessageID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("wsa: entropy unavailable: %v", err))
	}
	// RFC 4122 version 4 variant bits.
	b[6] = (b[6] & 0x0f) | 0x40
	b[8] = (b[8] & 0x3f) | 0x80
	return fmt.Sprintf("urn:uuid:%x-%x-%x-%x-%x", b[0:4], b[4:6], b[6:8], b[8:10], b[10:16])
}

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
	epr.ReferenceProperties = make(map[xmlutil.QName]string)
	for _, pair := range strings.Split(props, "&") {
		key, value, ok := strings.Cut(pair, "=")
		if !ok {
			return EndpointReference{}, fmt.Errorf("wsa: malformed reference property %q", pair)
		}
		q, err := xmlutil.ParseQName(key)
		if err != nil {
			return EndpointReference{}, fmt.Errorf("wsa: reference property name: %w", err)
		}
		epr.ReferenceProperties[q] = value
	}
	return epr, nil
}
