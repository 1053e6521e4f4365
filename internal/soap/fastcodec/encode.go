// Package fastcodec is a hand-rolled, allocation-lean codec for the
// fixed XML shapes the testbed exchanges on every hop: SOAP envelopes,
// WS-Addressing headers and the element trees inside them. The
// encoding/xml codec under the original path builds a token stream,
// consults reflection-driven machinery and re-declares namespaces on
// every element; profile E1 shows that floor dominating the per-call
// CPU of every service. The fast path appends bytes directly into the
// caller's buffer (encode) and tokenizes envelope bytes directly into
// xmlutil.Element trees with slab-allocated nodes and zero-copy text
// extraction (decode).
//
// Correctness is never bet on the fast path: both directions recognize
// only a conservative subset of XML — ASCII documents, ordinary
// elements/attributes/character data, the five predefined entities and
// numeric character references. Anything else (CDATA, comments,
// processing instructions past the prolog, DOCTYPE, non-ASCII text,
// exotic names) makes the codec report ok=false and the caller falls
// back to the encoding/xml path, which keeps the observable behaviour
// byte-for-semantics identical. FuzzCodecEquivalence enforces exactly
// that agreement against encoding/xml. There is no switch: every caller
// tries the fast path first and falls back.
package fastcodec

import (
	"sort"

	"uvacg/internal/xmlutil"
)

// xmlNamespace is the predeclared namespace bound to the "xml" prefix.
const xmlNamespace = "http://www.w3.org/XML/1998/namespace"

// maxDepth bounds encoder/decoder recursion. Deeper documents fall
// back to encoding/xml rather than risking the fast path's stack.
const maxDepth = 512

// Header is the document prolog the envelope encoder emits, identical
// to encoding/xml's xml.Header.
const Header = `<?xml version="1.0" encoding="UTF-8"?>` + "\n"

// AppendElement appends the XML serialization of e to dst and reports
// whether the tree was inside the fast path's recognized shape. On
// ok=false dst is returned unchanged and the caller must fall back to
// the encoding/xml path. The serialization is semantically equivalent
// to encoding/xml's rendering of xmlutil.Element (canonical sorted
// attributes), but elides redundant namespace re-declarations.
func AppendElement(dst []byte, e *xmlutil.Element) ([]byte, bool) {
	start := len(dst)
	enc := encoder{dst: dst}
	if !enc.element(e, "", 0) {
		return dst[:start], false
	}
	return enc.dst, true
}

// AppendEnvelope appends a full SOAP envelope document — prolog,
// Envelope/Header/Body wrappers in ns, the given header blocks and the
// body element — without materializing the wrapper elements. A nil
// body yields an empty Body, the wire form of a void response.
func AppendEnvelope(dst []byte, ns string, headers []*xmlutil.Element, body *xmlutil.Element) ([]byte, bool) {
	start := len(dst)
	enc := encoder{dst: dst}
	enc.dst = append(enc.dst, Header...)
	enc.dst = append(enc.dst, "<Envelope xmlns=\""...)
	if !enc.escaped(ns) {
		return dst[:start], false
	}
	enc.dst = append(enc.dst, '"', '>')
	if len(headers) > 0 {
		enc.dst = append(enc.dst, "<Header>"...)
		for _, h := range headers {
			if !enc.element(h, ns, 1) {
				return dst[:start], false
			}
		}
		enc.dst = append(enc.dst, "</Header>"...)
	}
	enc.dst = append(enc.dst, "<Body>"...)
	if body != nil {
		if !enc.element(body, ns, 1) {
			return dst[:start], false
		}
	}
	enc.dst = append(enc.dst, "</Body></Envelope>"...)
	return enc.dst, true
}

type encoder struct {
	dst []byte
	// attrSpaces interns the namespaces of qualified attributes seen so
	// far; index i is declared as prefix "a<i>" on every element that
	// uses it (ancestor declarations cannot be assumed in scope across
	// sibling subtrees).
	attrSpaces []string
}

// element appends one element tree. parentNS is the default namespace
// in scope, so xmlns is emitted only where it changes.
func (enc *encoder) element(e *xmlutil.Element, parentNS string, depth int) bool {
	if e == nil || depth > maxDepth || !validLocal(e.Name.Local) {
		return false
	}
	enc.dst = append(enc.dst, '<')
	enc.dst = append(enc.dst, e.Name.Local...)
	if e.Name.Space != parentNS {
		if e.Name.Space == "" {
			// encoding/xml never emits xmlns="", so a no-namespace child
			// under a namespaced parent silently inherits the parent's
			// namespace on its round trip. Emitting the undeclaration here
			// would be *more* faithful than the reference path — i.e. a
			// behaviour change — so such trees take the fallback instead.
			return false
		}
		enc.dst = append(enc.dst, ` xmlns="`...)
		if !enc.escaped(e.Name.Space) {
			return false
		}
		enc.dst = append(enc.dst, '"')
	}
	if len(e.Attrs) > 0 && !enc.attrs(e.Attrs) {
		return false
	}
	enc.dst = append(enc.dst, '>')
	if e.Text != "" && !enc.escaped(e.Text) {
		return false
	}
	for _, c := range e.Children {
		if !enc.element(c, e.Name.Space, depth+1) {
			return false
		}
	}
	enc.dst = append(enc.dst, '<', '/')
	enc.dst = append(enc.dst, e.Name.Local...)
	enc.dst = append(enc.dst, '>')
	return true
}

// attrs appends the attribute list in canonical (Space, Local) order,
// matching the deterministic ordering of xmlutil's MarshalXML.
func (enc *encoder) attrs(attrs map[xmlutil.QName]string) bool {
	var arr [8]xmlutil.QName
	keys := arr[:0]
	if len(attrs) > len(arr) {
		keys = make([]xmlutil.QName, 0, len(attrs))
	}
	for k := range attrs {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Space != keys[j].Space {
			return keys[i].Space < keys[j].Space
		}
		return keys[i].Local < keys[j].Local
	})
	// Sorted order clusters equal spaces, so one declaration per run.
	declared := ""
	for _, k := range keys {
		if !validLocal(k.Local) || k.Local == "xmlns" {
			return false
		}
		enc.dst = append(enc.dst, ' ')
		switch {
		case k.Space == "":
		case k.Space == xmlNamespace:
			enc.dst = append(enc.dst, "xml:"...)
		case k.Space == "xmlns":
			// A QName in the reserved xmlns pseudo-namespace would encode
			// as a namespace declaration, changing semantics.
			return false
		default:
			p := enc.prefixFor(k.Space)
			if k.Space != declared {
				enc.dst = append(enc.dst, "xmlns:"...)
				enc.dst = append(enc.dst, p...)
				enc.dst = append(enc.dst, '=', '"')
				if !enc.escaped(k.Space) {
					return false
				}
				enc.dst = append(enc.dst, '"', ' ')
				declared = k.Space
			}
			enc.dst = append(enc.dst, p...)
			enc.dst = append(enc.dst, ':')
		}
		enc.dst = append(enc.dst, k.Local...)
		enc.dst = append(enc.dst, '=', '"')
		if !enc.escaped(attrs[k]) {
			return false
		}
		enc.dst = append(enc.dst, '"')
	}
	return true
}

// attrPrefixes are the interned prefixes for qualified attributes; the
// table covers every realistic document (a ninth distinct attribute
// namespace allocates).
var attrPrefixes = [8]string{"a0", "a1", "a2", "a3", "a4", "a5", "a6", "a7"}

func (enc *encoder) prefixFor(space string) string {
	for i, s := range enc.attrSpaces {
		if s == space {
			if i < len(attrPrefixes) {
				return attrPrefixes[i]
			}
			return "a" + itoa(i)
		}
	}
	enc.attrSpaces = append(enc.attrSpaces, space)
	i := len(enc.attrSpaces) - 1
	if i < len(attrPrefixes) {
		return attrPrefixes[i]
	}
	return "a" + itoa(i)
}

func itoa(i int) string {
	var buf [20]byte
	pos := len(buf)
	for {
		pos--
		buf[pos] = byte('0' + i%10)
		if i /= 10; i == 0 {
			break
		}
	}
	return string(buf[pos:])
}

// escaped appends s with the exact escaping encoding/xml's EscapeText
// applies to the characters the fast path admits, and fails on anything
// outside printable ASCII plus tab/newline/carriage-return — those
// strings take the fallback path where encoding/xml's own replacement
// rules apply.
func (enc *encoder) escaped(s string) bool {
	last := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		var esc string
		switch c {
		case '&':
			esc = "&amp;"
		case '<':
			esc = "&lt;"
		case '>':
			esc = "&gt;"
		case '"':
			esc = "&#34;"
		case '\'':
			esc = "&#39;"
		case '\t':
			esc = "&#x9;"
		case '\n':
			esc = "&#xA;"
		case '\r':
			esc = "&#xD;"
		default:
			if c < 0x20 || c >= 0x7F {
				return false
			}
			continue
		}
		enc.dst = append(enc.dst, s[last:i]...)
		enc.dst = append(enc.dst, esc...)
		last = i + 1
	}
	enc.dst = append(enc.dst, s[last:]...)
	return true
}

// validLocal admits conservative ASCII element/attribute local names:
// a letter or underscore followed by letters, digits, '_', '-' or '.'.
// Everything else — including prefixed locals — falls back.
func validLocal(s string) bool {
	if s == "" || !isNameStart(s[0]) {
		return false
	}
	for i := 1; i < len(s); i++ {
		if !isNameByte(s[i]) {
			return false
		}
	}
	return true
}

func isNameStart(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_'
}

func isNameByte(c byte) bool {
	return isNameStart(c) || c >= '0' && c <= '9' || c == '-' || c == '.'
}
