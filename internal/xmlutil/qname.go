// Package xmlutil provides small XML helpers shared by the SOAP,
// WS-Addressing, WSRF and WS-Notification layers: qualified names,
// escaping, a generic property document model, and the XPath-lite
// expression evaluator used by QueryResourceProperties and by topic
// expression dialects.
package xmlutil

import (
	"encoding/xml"
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

// Name converts the QName to an encoding/xml Name.
func (q QName) Name() xml.Name { return xml.Name{Space: q.Space, Local: q.Local} }

// FromName converts an encoding/xml Name to a QName.
func FromName(n xml.Name) QName { return QName{Space: n.Space, Local: n.Local} }

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
