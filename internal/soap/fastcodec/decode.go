package fastcodec

import (
	"strings"
	"sync"

	"uvacg/internal/xmlutil"
)

// Decode tokenizes data directly into an xmlutil.Element tree and
// reports whether the document was inside the fast path's recognized
// shape. ok=false — for malformed input as much as for valid XML the
// fast path does not handle — means the caller must fall back to the
// encoding/xml path, so a successful Decode is the only observable
// difference and it is checked (by FuzzCodecEquivalence) to agree with
// encoding/xml exactly.
//
// Allocation discipline: nodes come from one slab and child slices from
// one pointer arena, both sized from the input (so a retained element
// pins its own document's nodes and no more), and text/attribute values
// are substrings of a single string conversion of the input — zero-copy
// unless an entity or line-ending normalization forces a rewrite. The
// returned tree is owned by the caller and garbage-collected; only the
// parser's scratch stacks are pooled, cleared before they go back, so
// the pool never references a returned tree and retaining decoded
// documents (as resource property stores do) is safe.
func Decode(data []byte) (*xmlutil.Element, bool) {
	// One pass admits the ASCII subset: any byte outside printable
	// ASCII + tab/newline/CR means encoding/xml's unicode handling is
	// required and the fast path bows out.
	for i := 0; i < len(data); i++ {
		c := data[i]
		if c >= 0x7F || (c < 0x20 && c != '\t' && c != '\n' && c != '\r') {
			return nil, false
		}
	}
	p := parserPool.Get().(*parser)
	defer p.release()
	p.s, p.pos = string(data), 0
	// Every element ends in "</" or "/>", so their count bounds the nodes
	// (and the child pointers) a well-formed document needs; the shortest
	// element, <a/>, bounds what text full of either can ask for.
	n := min(strings.Count(p.s, "</")+strings.Count(p.s, "/>"), len(p.s)/4)
	p.elemSlab, p.ptrSlab = make([]xmlutil.Element, n), make([]*xmlutil.Element, n)
	p.skipSpace()
	// Prolog and any leading processing instructions are skipped, as
	// encoding/xml's Unmarshal skips ProcInst tokens before the root.
	for strings.HasPrefix(p.s[p.pos:], "<?") {
		// encoding/xml demands a target name right after "<?".
		if p.pos+2 >= len(p.s) || !isNameStart(p.s[p.pos+2]) {
			return nil, false
		}
		end := strings.Index(p.s[p.pos:], "?>")
		if end < 0 {
			return nil, false
		}
		// encoding/xml validates the xml declaration's version and
		// encoding pseudo-attributes (a non-1.0 version or non-UTF-8
		// charset is an error); rather than parse them, accept only the
		// canonical prolog whenever either keyword appears.
		pi := p.s[p.pos : p.pos+end+2]
		if (strings.Contains(pi, "version") || strings.Contains(pi, "encoding")) && pi+"\n" != Header {
			return nil, false
		}
		p.pos += end + 2
		p.skipSpace()
	}
	if p.pos >= len(p.s) || p.s[p.pos] != '<' {
		return nil, false
	}
	root, ok := p.element(0)
	if !ok {
		return nil, false
	}
	// Content after the root is ignored, matching xml.Unmarshal, which
	// stops reading at the root's end tag.
	return root, true
}

type nsBinding struct {
	prefix string
	uri    string
}

type rawAttr struct {
	prefix string
	local  string
	value  string
	dirty  bool // value needs entity decoding or \r normalization
}

type parser struct {
	s   string
	pos int

	bindings []nsBinding // namespace scope stack
	kids     []*xmlutil.Element
	attrs    []rawAttr

	elemSlab []xmlutil.Element
	ptrSlab  []*xmlutil.Element
}

var parserPool = sync.Pool{New: func() any { return new(parser) }}

// release returns the parser to the pool holding nothing of the call it
// served: the scratch stacks keep their capacity, zeroed through to it.
func (p *parser) release() {
	clear(p.bindings[:cap(p.bindings)])
	clear(p.kids[:cap(p.kids)])
	clear(p.attrs[:cap(p.attrs)])
	*p = parser{bindings: p.bindings[:0], kids: p.kids[:0], attrs: p.attrs[:0]}
	parserPool.Put(p)
}

// alloc hands out one Element from the slab. The slab runs dry only on
// input that opens more elements than it closes, which Decode refuses in
// the end; small chunks carry the parse until it does.
func (p *parser) alloc() *xmlutil.Element {
	if len(p.elemSlab) == 0 {
		p.elemSlab = make([]xmlutil.Element, 8)
	}
	e := &p.elemSlab[0]
	p.elemSlab = p.elemSlab[1:]
	return e
}

// allocPtrs copies kids into an arena-backed slice of exactly that
// length.
func (p *parser) allocPtrs(kids []*xmlutil.Element) []*xmlutil.Element {
	if len(p.ptrSlab) < len(kids) {
		p.ptrSlab = make([]*xmlutil.Element, len(kids))
	}
	out := p.ptrSlab[:len(kids):len(kids)]
	p.ptrSlab = p.ptrSlab[len(kids):]
	copy(out, kids)
	return out
}

func (p *parser) skipSpace() {
	for p.pos < len(p.s) {
		switch p.s[p.pos] {
		case ' ', '\t', '\n', '\r':
			p.pos++
		default:
			return
		}
	}
}

// name reads prefix:local at the cursor. An absent prefix returns "".
func (p *parser) name() (prefix, local string, ok bool) {
	start := p.pos
	if p.pos >= len(p.s) || !isNameStart(p.s[p.pos]) {
		return "", "", false
	}
	colon := -1
	for p.pos < len(p.s) {
		c := p.s[p.pos]
		if isNameByte(c) {
			p.pos++
			continue
		}
		if c == ':' && colon < 0 {
			colon = p.pos
			p.pos++
			// The part after the colon must restart a name.
			if p.pos >= len(p.s) || !isNameStart(p.s[p.pos]) {
				return "", "", false
			}
			continue
		}
		break
	}
	if colon < 0 {
		return "", p.s[start:p.pos], true
	}
	return p.s[start:colon], p.s[colon+1 : p.pos], true
}

// lookup resolves a namespace prefix against the scope stack,
// mirroring encoding/xml: "xml" is predeclared, an undeclared prefix
// resolves to itself, and "" resolves to the innermost default (or "").
func (p *parser) lookup(prefix string) string {
	if prefix == "xml" {
		return xmlNamespace
	}
	for i := len(p.bindings) - 1; i >= 0; i-- {
		if p.bindings[i].prefix == prefix {
			return p.bindings[i].uri
		}
	}
	if prefix == "" {
		return ""
	}
	return prefix
}

// element parses one element at the cursor ('<' already verified).
func (p *parser) element(depth int) (*xmlutil.Element, bool) {
	if depth > maxDepth {
		return nil, false
	}
	nsMark, attrMark := len(p.bindings), len(p.attrs)
	p.pos++ // '<'
	rawStart := p.pos
	prefix, local, ok := p.name()
	if !ok {
		return nil, false
	}
	rawName := p.s[rawStart:p.pos]

	// Attributes buffer first: every xmlns on this tag is in scope for
	// the tag's own name and all its attributes, regardless of order.
	selfClosing := false
	for {
		mark := p.pos
		p.skipSpace()
		if p.pos >= len(p.s) {
			return nil, false
		}
		if c := p.s[p.pos]; c == '>' {
			p.pos++
			break
		} else if c == '/' {
			if p.pos+1 >= len(p.s) || p.s[p.pos+1] != '>' {
				return nil, false
			}
			p.pos += 2
			selfClosing = true
			break
		}
		if mark == p.pos {
			return nil, false // attributes must be space-separated
		}
		ap, al, ok := p.name()
		if !ok {
			return nil, false
		}
		p.skipSpace()
		if p.pos >= len(p.s) || p.s[p.pos] != '=' {
			return nil, false
		}
		p.pos++
		p.skipSpace()
		val, dirty, ok := p.attrValue()
		if !ok {
			return nil, false
		}
		p.attrs = append(p.attrs, rawAttr{prefix: ap, local: al, value: val, dirty: dirty})
	}

	// Namespace declarations, then name resolution.
	for i := attrMark; i < len(p.attrs); i++ {
		a := p.attrs[i]
		if a.prefix == "xmlns" || (a.prefix == "" && a.local == "xmlns") {
			uri, ok := p.cleanValue(a)
			if !ok {
				return nil, false
			}
			pfx := ""
			if a.prefix == "xmlns" {
				pfx = a.local
			}
			p.bindings = append(p.bindings, nsBinding{prefix: pfx, uri: uri})
		}
	}
	e := p.alloc()
	e.Name = xmlutil.QName{Space: p.lookup(prefix), Local: local}
	for i := attrMark; i < len(p.attrs); i++ {
		a := p.attrs[i]
		if a.prefix == "xmlns" || (a.prefix == "" && a.local == "xmlns") {
			continue // declarations are consumed, not surfaced
		}
		space := ""
		if a.prefix != "" {
			space = p.lookup(a.prefix)
		}
		val, ok := p.cleanValue(a)
		if !ok {
			return nil, false
		}
		e.SetAttr(xmlutil.QName{Space: space, Local: a.local}, val)
	}
	p.attrs = p.attrs[:attrMark] // consumed; a failed parse is abandoned whole
	if selfClosing {
		p.bindings = p.bindings[:nsMark]
		return e, true
	}

	// Content: character data and child elements until the end tag.
	// Text accumulates across children and is trimmed once, matching
	// xmlutil's UnmarshalXML.
	kidMark := len(p.kids)
	text := ""
	var textBuf []byte
	addSeg := func(seg string) {
		switch {
		case seg == "":
		case text == "" && textBuf == nil:
			text = seg
		default:
			if textBuf == nil {
				textBuf = append(textBuf, text...)
			}
			textBuf = append(textBuf, seg...)
		}
	}
	for {
		lt := strings.IndexByte(p.s[p.pos:], '<')
		if lt < 0 {
			return nil, false
		}
		seg, ok := p.textSegment(p.s[p.pos : p.pos+lt])
		if !ok {
			return nil, false
		}
		addSeg(seg)
		p.pos += lt
		if p.pos+1 >= len(p.s) {
			return nil, false
		}
		switch p.s[p.pos+1] {
		case '/':
			p.pos += 2
			if !strings.HasPrefix(p.s[p.pos:], rawName) {
				return nil, false
			}
			p.pos += len(rawName)
			p.skipSpace()
			if p.pos >= len(p.s) || p.s[p.pos] != '>' {
				return nil, false
			}
			p.pos++
			if textBuf != nil {
				text = string(textBuf)
			}
			e.Text = strings.TrimSpace(text)
			if n := len(p.kids) - kidMark; n > 0 {
				e.Children = p.allocPtrs(p.kids[kidMark:])
			}
			p.kids = p.kids[:kidMark]
			p.bindings = p.bindings[:nsMark]
			return e, true
		case '!', '?':
			// Comments, CDATA, DOCTYPE, processing instructions: the
			// fallback path's business.
			return nil, false
		default:
			child, ok := p.element(depth + 1)
			if !ok {
				return nil, false
			}
			p.kids = append(p.kids, child)
		}
	}
}

// textSegment validates and normalizes one run of character data:
// entity references are decoded, raw \r\n / \r become \n (the XML
// line-ending normalization encoding/xml applies), and an unescaped
// "]]>" — a syntax error under encoding/xml — bows out.
func (p *parser) textSegment(seg string) (string, bool) {
	if strings.Contains(seg, "]]>") {
		return "", false
	}
	if strings.IndexByte(seg, '&') < 0 && strings.IndexByte(seg, '\r') < 0 {
		return seg, true
	}
	return decodeText(seg)
}

// attrValue parses a quoted attribute value at the cursor, returning
// the raw substring and whether it needs a rewrite pass.
func (p *parser) attrValue() (val string, dirty bool, ok bool) {
	if p.pos >= len(p.s) {
		return "", false, false
	}
	quote := p.s[p.pos]
	if quote != '"' && quote != '\'' {
		return "", false, false
	}
	p.pos++
	start := p.pos
	for p.pos < len(p.s) {
		switch c := p.s[p.pos]; c {
		case quote:
			val = p.s[start:p.pos]
			p.pos++
			return val, dirty, true
		case '<':
			return "", false, false // as encoding/xml: unescaped < in value
		case '&', '\r':
			dirty = true
		}
		p.pos++
	}
	return "", false, false
}

func (p *parser) cleanValue(a rawAttr) (string, bool) {
	if !a.dirty {
		return a.value, true
	}
	return decodeText(a.value)
}

// decodeText rewrites entity references and line endings. Only the
// five predefined entities and ASCII-valued character references are
// admitted; anything else falls back.
func decodeText(s string) (string, bool) {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); {
		switch c := s[i]; c {
		case '\r':
			out = append(out, '\n')
			if i++; i < len(s) && s[i] == '\n' {
				i++
			}
		case '&':
			semi := strings.IndexByte(s[i:], ';')
			if semi < 0 || semi > 10 {
				return "", false
			}
			r, ok := decodeEntity(s[i+1 : i+semi])
			if !ok {
				return "", false
			}
			out = append(out, r)
			i += semi + 1
		default:
			out = append(out, c)
			i++
		}
	}
	return string(out), true
}

func decodeEntity(name string) (byte, bool) {
	switch name {
	case "amp":
		return '&', true
	case "lt":
		return '<', true
	case "gt":
		return '>', true
	case "apos":
		return '\'', true
	case "quot":
		return '"', true
	}
	if len(name) < 2 || name[0] != '#' {
		return 0, false
	}
	digits, base := name[1:], 10
	if digits[0] == 'x' { // encoding/xml only honours lowercase x
		digits, base = digits[1:], 16
	}
	if digits == "" {
		return 0, false
	}
	n := 0
	for i := 0; i < len(digits); i++ {
		d := digitVal(digits[i], base)
		if d < 0 {
			return 0, false
		}
		if n = n*base + d; n > 0x7F {
			return 0, false // non-ASCII reference: fallback
		}
	}
	if n < 0x20 && n != '\t' && n != '\n' && n != '\r' {
		return 0, false
	}
	return byte(n), true
}

func digitVal(c byte, base int) int {
	switch {
	case c >= '0' && c <= '9':
		return int(c - '0')
	case base == 16 && c >= 'a' && c <= 'f':
		return int(c-'a') + 10
	case base == 16 && c >= 'A' && c <= 'F':
		return int(c-'A') + 10
	}
	return -1
}
