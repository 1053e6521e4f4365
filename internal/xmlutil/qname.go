// Package xmlutil provides the XML the SOAP, WS-Addressing, WSRF and
// WS-Notification layers share: qualified names, a generic property
// document model, the XPath-lite expression evaluator used by
// QueryResourceProperties and topic expression dialects, and the one XML
// codec (MarshalElement, MarshalEnvelope, UnmarshalElement) every message
// and stored document goes through; encoding/xml is only its tests' oracle.
package xmlutil

import (
	"fmt"
	"strings"
)

// QName is an XML qualified name: a namespace URI plus a local part.
// It is the identity used for resource properties, topics, SOAP actions
// and fault codes throughout the toolkit.
type QName struct {
	Space string
	Local string
}

// Q builds a QName from a namespace and local part.
func Q(space, local string) QName { return QName{Space: space, Local: local} }

// String renders the QName in Clark notation, {namespace}local.
func (q QName) String() string {
	if q.Space == "" {
		return q.Local
	}
	return "{" + q.Space + "}" + q.Local
}

// IsZero reports whether the QName is empty.
func (q QName) IsZero() bool { return q.Space == "" && q.Local == "" }

// ParseQName parses Clark notation ({ns}local) or a bare local name.
func ParseQName(s string) (QName, error) {
	if s == "" {
		return QName{}, fmt.Errorf("xmlutil: empty qname")
	}
	if strings.HasPrefix(s, "{") {
		end := strings.Index(s, "}")
		if end < 0 {
			return QName{}, fmt.Errorf("xmlutil: malformed qname %q", s)
		}
		local := s[end+1:]
		if local == "" {
			return QName{}, fmt.Errorf("xmlutil: qname %q has empty local part", s)
		}
		return QName{Space: s[1:end], Local: local}, nil
	}
	return QName{Local: s}, nil
}
