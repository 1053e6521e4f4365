package xmlutil

import (
	"bytes"
	"fmt"
	"sync"
	"unicode/utf8"
)

// xmlNamespace is the predeclared namespace bound to the "xml" prefix.
const xmlNamespace = "http://www.w3.org/XML/1998/namespace"

// maxDepth bounds encoder and decoder recursion, and so the stack either
// may grow.
const maxDepth = 512

// header is the document prolog MarshalEnvelope writes.
const header = `<?xml version="1.0" encoding="UTF-8"?>` + "\n"

// MarshalElement serializes an element tree: xmlns only where the
// default namespace changes (xmlns="" where a child leaves its parent's),
// a prefix per element for qualified attributes, and text escaped as
// encoding/xml's EscapeText escapes it, U+FFFD for invalid UTF-8 and
// non-Chars. A nil element, an empty or prefixed local name, an attribute
// named xmlns or in the xmlns namespace and a tree deeper than maxDepth
// are errors: none of them reads back as the tree it came from.
func MarshalElement(e *Element) ([]byte, error) {
	return exact(func(dst []byte) ([]byte, error) {
		enc := encoder{dst: dst}
		ok := enc.element(e, "", 0)
		return enc.dst, enc.done(ok)
	})
}

// MarshalEnvelope serializes a SOAP envelope — prolog, Envelope, Header
// and Body in namespace ns, the header blocks and the body element —
// without materializing the wrapper elements. A nil body yields an
// empty Body, the wire form of a void response; the trees are written
// as MarshalElement writes them.
func MarshalEnvelope(ns string, headers []*Element, body *Element) ([]byte, error) {
	return exact(func(dst []byte) ([]byte, error) {
		return AppendEnvelope(dst, ns, headers, body)
	})
}

// AppendEnvelope appends what MarshalEnvelope returns to dst: the form
// for a writer that owns reusable scratch and is done with the bytes
// once they are written, where nothing decodes them in place.
func AppendEnvelope(dst []byte, ns string, headers []*Element, body *Element) ([]byte, error) {
	enc := encoder{dst: dst}
	ok := enc.envelope(ns, headers, body)
	return enc.dst, enc.done(ok)
}

func (enc *encoder) envelope(ns string, headers []*Element, body *Element) bool {
	enc.dst = append(enc.dst, header...)
	enc.dst = append(enc.dst, "<Envelope xmlns=\""...)
	enc.escaped(ns)
	enc.dst = append(enc.dst, '"', '>')
	if len(headers) > 0 {
		enc.dst = append(enc.dst, "<Header>"...)
		for _, h := range headers {
			if !enc.element(h, ns, 2) {
				return false
			}
		}
		enc.dst = append(enc.dst, "</Header>"...)
	}
	enc.dst = append(enc.dst, "<Body>"...)
	if body != nil && !enc.element(body, ns, 2) {
		return false
	}
	enc.dst = append(enc.dst, "</Body></Envelope>"...)
	return true
}

// scratch recycles the buffers exact encodes into.
var scratch = sync.Pool{New: func() any {
	b := make([]byte, 0, 4<<10)
	return &b
}}

// maxPooledScratch keeps a rare huge document (inline content for a
// plain SOAP requester) from pinning its buffer in the pool.
const maxPooledScratch = 1 << 20

// exact runs encode on pooled scratch and returns one allocation of
// exactly the bytes it wrote, so the document encoded before says
// nothing about the size of the next one's buffer.
func exact(encode func(dst []byte) ([]byte, error)) ([]byte, error) {
	bp := scratch.Get().(*[]byte)
	buf, err := encode((*bp)[:0])
	var out []byte
	if err == nil {
		out = bytes.Clone(buf)
	}
	if cap(buf) <= maxPooledScratch {
		*bp = buf[:0]
		scratch.Put(bp)
	}
	return out, err
}

type encoder struct {
	dst []byte
	// attrSpaces[:nspaces], then moreSpaces, intern the namespaces of
	// qualified attributes seen so far; index i is declared as prefix
	// "a<i>" on every element that uses it (ancestor declarations cannot
	// be assumed in scope across sibling subtrees). The array holds every
	// realistic document's, so interning does not allocate.
	attrSpaces [len(attrPrefixes)]string
	nspaces    int
	moreSpaces []string
	// bad and why name what made the tree unencodable.
	bad QName
	why string
}

func (enc *encoder) fail(name QName, why string) bool {
	enc.bad, enc.why = name, why
	return false
}

// done turns the encode's outcome into its error.
func (enc *encoder) done(ok bool) error {
	if ok {
		return nil
	}
	return fmt.Errorf("xmlutil: cannot encode element %v: %s", enc.bad, enc.why)
}

// element appends one element tree. parentNS is the default namespace
// in scope, so xmlns is written only where it changes.
func (enc *encoder) element(e *Element, parentNS string, depth int) bool {
	switch {
	case e == nil:
		return enc.fail(QName{}, "nil element")
	case depth > maxDepth:
		return enc.fail(e.Name, "nested deeper than 512")
	case !isNCName(e.Name.Local):
		return enc.fail(e.Name, "local name is not an XML NCName")
	}
	// An unprefixed element named xmlns is in no namespace however it
	// is declared (as encoding/xml reads it), so one in a namespace
	// takes a prefix.
	prefixed := e.Name.Local == "xmlns" && e.Name.Space != ""
	enc.dst = append(enc.dst, '<')
	if prefixed {
		enc.dst = append(enc.dst, "e:"...)
	}
	enc.dst = append(enc.dst, e.Name.Local...)
	switch {
	case prefixed:
		enc.dst = append(enc.dst, ` xmlns:e="`...)
		enc.escaped(e.Name.Space)
		enc.dst = append(enc.dst, '"')
	case e.Name.Space != parentNS:
		enc.dst = append(enc.dst, ` xmlns="`...)
		enc.escaped(e.Name.Space)
		enc.dst = append(enc.dst, '"')
		parentNS = e.Name.Space
	}
	if len(e.Attrs) > 0 && !enc.attrs(e) {
		return false
	}
	enc.dst = append(enc.dst, '>')
	enc.escaped(e.Text)
	for _, c := range e.Children {
		if !enc.element(c, parentNS, depth+1) {
			return false
		}
	}
	enc.dst = append(enc.dst, '<', '/')
	if prefixed {
		enc.dst = append(enc.dst, "e:"...)
	}
	enc.dst = append(enc.dst, e.Name.Local...)
	enc.dst = append(enc.dst, '>')
	return true
}

// attrs appends the attribute list in the canonical (Space, Local)
// order Element keeps it in.
func (enc *encoder) attrs(e *Element) bool {
	// Sorted order clusters equal spaces, so one declaration per run.
	declared := ""
	for _, a := range e.Attrs {
		k := a.Name
		switch {
		case !isNCName(k.Local):
			return enc.fail(k, "attribute name is not an XML NCName")
		case k.Space == "xmlns" || k.Space == "" && k.Local == "xmlns":
			// It would read back as a namespace declaration.
			return enc.fail(k, "attribute is a namespace declaration")
		}
		enc.dst = append(enc.dst, ' ')
		switch k.Space {
		case "":
		case xmlNamespace:
			enc.dst = append(enc.dst, "xml:"...)
		default:
			p := enc.prefixFor(k.Space)
			if k.Space != declared {
				enc.dst = append(enc.dst, "xmlns:"...)
				enc.dst = append(enc.dst, p...)
				enc.dst = append(enc.dst, '=', '"')
				enc.escaped(k.Space)
				enc.dst = append(enc.dst, '"', ' ')
				declared = k.Space
			}
			enc.dst = append(enc.dst, p...)
			enc.dst = append(enc.dst, ':')
		}
		enc.dst = append(enc.dst, k.Local...)
		enc.dst = append(enc.dst, '=', '"')
		enc.escaped(a.Value)
		enc.dst = append(enc.dst, '"')
	}
	return true
}

// attrPrefixes are the interned prefixes for qualified attributes; the
// table covers every realistic document (a ninth distinct attribute
// namespace allocates).
var attrPrefixes = [8]string{"a0", "a1", "a2", "a3", "a4", "a5", "a6", "a7"}

func (enc *encoder) prefixFor(space string) string {
	for i, s := range enc.attrSpaces[:enc.nspaces] {
		if s == space {
			return attrPrefixes[i]
		}
	}
	if enc.nspaces < len(attrPrefixes) {
		enc.attrSpaces[enc.nspaces] = space
		enc.nspaces++
		return attrPrefixes[enc.nspaces-1]
	}
	i := 0
	for i < len(enc.moreSpaces) && enc.moreSpaces[i] != space {
		i++
	}
	if i == len(enc.moreSpaces) {
		enc.moreSpaces = append(enc.moreSpaces, space)
	}
	return "a" + itoa(len(attrPrefixes)+i)
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

// escapes is what escaped writes for each ASCII byte: "" for a byte
// written as it is.
var escapes = func() (t [utf8.RuneSelf]string) {
	for c := 0; c < ' '; c++ {
		t[c] = "\uFFFD"
	}
	t['&'], t['<'], t['>'], t['"'], t['\''] = "&amp;", "&lt;", "&gt;", "&#34;", "&#39;"
	t['\t'], t['\n'], t['\r'] = "&#x9;", "&#xA;", "&#xD;"
	return t
}()

// escaped appends s escaped exactly as encoding/xml's EscapeText
// escapes it: the five markup characters and tab, newline and carriage
// return as references, and invalid UTF-8 and any rune outside XML's
// Char range as U+FFFD.
func (enc *encoder) escaped(s string) {
	last := 0
	for i := 0; i < len(s); {
		c := s[i]
		esc, width := "", 1
		if c < utf8.RuneSelf {
			if esc = escapes[c]; esc == "" {
				i++
				continue
			}
		} else {
			var r rune
			if r, width = utf8.DecodeRuneInString(s[i:]); width > 1 && isChar(r) {
				i += width
				continue
			}
			esc = "\uFFFD"
		}
		enc.dst = append(enc.dst, s[last:i]...)
		enc.dst = append(enc.dst, esc...)
		i += width
		last = i
	}
	enc.dst = append(enc.dst, s[last:]...)
}

// isNCName reports whether s is an XML name without a colon, by XML
// 1.0 (fifth edition)'s NameStartChar and NameChar productions.
func isNCName(s string) bool {
	for i := 0; i < len(s); {
		if k := nameBytes[s[i]]; k != 0 {
			if i == 0 && k != nameStart {
				return false
			}
			i++
			continue
		}
		// A byte that decodes alone is no NameChar or is invalid UTF-8.
		r, n := utf8.DecodeRuneInString(s[i:])
		if n == 1 || !isNameRune(r, i == 0) {
			return false
		}
		i += n
	}
	return s != ""
}

// Classes of nameBytes.
const (
	nameChar  = 1 // may continue a name: a digit, '-' or '.'
	nameStart = 2 // may start one too: a letter or '_'
)

// nameBytes classes the ASCII bytes of an NCName; every other byte is 0.
var nameBytes = func() (t [256]byte) {
	for c := range t {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
			t[c] = nameStart
		case c >= '0' && c <= '9', c == '-', c == '.':
			t[c] = nameChar
		}
	}
	return t
}()

// isNameRune classifies a rune of 0x80 and above by XML 1.0 (fifth
// edition): a NameStartChar when first is set, else a NameChar.
func isNameRune(r rune, first bool) bool {
	switch {
	case r >= 0xC0 && r <= 0xD6, r >= 0xD8 && r <= 0xF6, r >= 0xF8 && r <= 0x2FF,
		r >= 0x370 && r <= 0x37D, r >= 0x37F && r <= 0x1FFF, r == 0x200C, r == 0x200D,
		r >= 0x2070 && r <= 0x218F, r >= 0x2C00 && r <= 0x2FEF, r >= 0x3001 && r <= 0xD7FF,
		r >= 0xF900 && r <= 0xFDCF, r >= 0xFDF0 && r <= 0xFFFD, r >= 0x10000 && r <= 0xEFFFF:
		return true
	}
	return !first && (r == 0xB7 || r >= 0x300 && r <= 0x36F || r == 0x203F || r == 0x2040)
}
