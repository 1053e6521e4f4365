package xmlutil

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"
	"unsafe"
)

// UnmarshalElement parses a document into its root element, text
// trimmed and namespace declarations consumed. It reads what
// encoding/xml's Unmarshal reads, to the same tree (FuzzCodecEquivalence
// holds it to that), less what no SOAP message or stored row carries: a
// DOCTYPE, a processing instruction inside the root, attributes not
// separated by white space, bytes that are not UTF-8 encoded XML Chars, a
// name that is no QName, and nesting deeper than maxDepth. What follows
// the root's end tag is not read.
//
// The tree aliases data: its names, text and attribute values point into
// it, so once data is passed here nobody may write to it again. Nodes
// come from one slab and child slices from one arena, both sized from the
// input, so a retained element pins its own document's nodes and no
// more; only the parser's scratch stacks are pooled, cleared before they
// go back, so the pool never references a returned tree.
func UnmarshalElement(data []byte) (*Element, error) {
	elems, dirty, bad := scan(data)
	if bad >= 0 {
		return nil, malformed(bad)
	}
	p := parserPool.Get().(*parser)
	defer p.release()
	p.s, p.pos, p.dirty = unsafe.String(unsafe.SliceData(data), len(data)), 0, dirty
	p.elemSlab, p.ptrSlab = make([]Element, elems), make([]*Element, elems)
	root, ok := p.document()
	if !ok {
		return nil, malformed(p.pos)
	}
	return root, nil
}

func malformed(pos int) error {
	return fmt.Errorf("xmlutil: malformed or unsupported XML at byte %d", pos)
}

// Byte classes of scan's table.
const (
	plain   byte = iota
	refused      // a control character: no XML Char
	slash        // one end of "</" or "/>"
	rewrite      // '&' or '\r': text holding one needs decodeText
	bracket      // ']', which may open a "]]>"
	wide         // a byte of a multibyte UTF-8 sequence
)

var classes = func() (t [256]byte) {
	for c := range t {
		switch {
		case c >= utf8.RuneSelf:
			t[c] = wide
		case c < 0x20 && c != '\t' && c != '\n' && c != '\r':
			t[c] = refused
		}
	}
	t['/'], t['&'], t['\r'], t[']'] = slash, rewrite, rewrite, bracket
	return t
}()

// scan is the one pass over the input before the parse. It refuses a
// control character and, once it has seen a byte of 0x80 or above, input
// that is not UTF-8 encoded Chars (so an ASCII document pays nothing for
// UTF-8); it bounds the elements a well-formed document holds; and it
// reports whether any '&', '\r' or "]]>" occurs, without which no text or
// attribute value needs a look beyond finding its end. bad is the offset
// of the first byte refused, or -1.
func scan(data []byte) (elems int, dirty bool, bad int) {
	ends, multibyte := 0, false
	for i, c := range data {
		k := classes[c]
		if k == plain {
			continue
		}
		switch k {
		case refused:
			return 0, false, i
		case slash:
			if i > 0 && data[i-1] == '<' {
				ends++
			}
			if i+1 < len(data) && data[i+1] == '>' {
				ends++
			}
		case rewrite:
			dirty = true
		case bracket:
			if i+2 < len(data) && data[i+1] == ']' && data[i+2] == '>' {
				dirty = true
			}
		case wide:
			multibyte = true
		}
	}
	if multibyte {
		for i := 0; i < len(data); {
			r, n := utf8.DecodeRune(data[i:])
			if r == utf8.RuneError && n == 1 || !isChar(r) {
				return 0, false, i
			}
			i += n
		}
	}
	// Every element ends in "</" or "/>", so their count bounds the nodes
	// (and the child pointers) a well-formed document needs; the shortest
	// element, <a/>, bounds what text full of either can ask for.
	return min(ends, len(data)/4), dirty, -1
}

// isChar is XML 1.0's Char production.
func isChar(r rune) bool {
	return r >= 0x20 && r <= 0xD7FF || r == '\t' || r == '\n' || r == '\r' ||
		r >= 0xE000 && r <= 0xFFFD || r >= 0x10000 && r <= utf8.MaxRune
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
	s     string
	pos   int
	dirty bool // scan found '&', '\r' or "]]>" somewhere in s

	bindings []nsBinding // namespace scope stack
	kids     []*Element
	attrs    []rawAttr

	elemSlab []Element
	ptrSlab  []*Element
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
// input that opens more elements than it closes, which the parse refuses
// in the end; small chunks carry the parse until it does.
func (p *parser) alloc() *Element {
	if len(p.elemSlab) == 0 {
		p.elemSlab = make([]Element, 8)
	}
	e := &p.elemSlab[0]
	p.elemSlab = p.elemSlab[1:]
	return e
}

// allocPtrs copies kids into an arena-backed slice of exactly that
// length.
func (p *parser) allocPtrs(kids []*Element) []*Element {
	if len(p.ptrSlab) < len(kids) {
		p.ptrSlab = make([]*Element, len(kids))
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

// document skips what xml.Unmarshal skips before the root — character
// data, comments, CDATA sections and processing instructions, among
// them any XML declaration, whose version and encoding are checked —
// and parses the root.
func (p *parser) document() (*Element, bool) {
	for {
		lt := strings.IndexByte(p.s[p.pos:], '<')
		if lt < 0 {
			return nil, false
		}
		if _, ok := p.textSegment(p.s[p.pos : p.pos+lt]); !ok {
			return nil, false
		}
		p.pos += lt
		switch {
		case strings.HasPrefix(p.s[p.pos:], "<?"):
			if !p.procInst() {
				return nil, false
			}
		case strings.HasPrefix(p.s[p.pos:], "<!"):
			if _, ok := p.bang(); !ok {
				return nil, false
			}
		default:
			return p.element(0)
		}
	}
}

// procInst skips the processing instruction at the cursor. Its target
// is a Name; an XML declaration (target "xml") that names a version
// must name 1.0, and one that names an encoding must name UTF-8 in any
// letter case, read as encoding/xml reads them (see pseudoAttr).
func (p *parser) procInst() bool {
	p.pos += 2 // "<?"
	start := p.pos
	if !p.nameRun(true) {
		return false
	}
	target := p.s[start:p.pos]
	p.skipSpace()
	end := strings.Index(p.s[p.pos:], "?>")
	if end < 0 {
		return false
	}
	content := p.s[p.pos : p.pos+end]
	p.pos += end + 2
	if target != "xml" {
		return true
	}
	v, enc := pseudoAttr("version", content), pseudoAttr("encoding", content)
	return (v == "" || v == "1.0") && (enc == "" || strings.EqualFold(enc, "utf-8"))
}

// pseudoAttr is the value of name in an XML declaration's content as
// encoding/xml reads it: the text up to the matching quote after the
// first `name=` that a quote follows, or "" when there is none.
func pseudoAttr(name, s string) string {
	key := name + "="
	for i := 0; i < len(s); {
		k := strings.Index(s[i:], key)
		if k < 0 || i+k+len(key) >= len(s) {
			return ""
		}
		i += k + len(key)
		if q := s[i]; q == '"' || q == '\'' {
			if j := strings.IndexByte(s[i+1:], q); j >= 0 {
				return s[i+1 : i+1+j]
			}
			return ""
		}
		i++
	}
	return ""
}

// bang reads the markup at "<!": a comment, skipped, or a CDATA
// section, whose text it returns with line endings normalized. A
// DOCTYPE, or any other declaration, is refused: SOAP forbids a DTD in
// a message.
func (p *parser) bang() (text string, ok bool) {
	rest := p.s[p.pos:]
	switch {
	case strings.HasPrefix(rest, "<!--"):
		// "--" may only close a comment.
		end := strings.Index(rest[4:], "--")
		if end < 0 || !strings.HasPrefix(rest[4+end:], "-->") {
			return "", false
		}
		p.pos += 4 + end + 3
		return "", true
	case strings.HasPrefix(rest, "<![CDATA["):
		end := strings.Index(rest[9:], "]]>")
		if end < 0 {
			return "", false
		}
		p.pos += 9 + end + 3
		text = rest[9 : 9+end]
		if p.dirty && strings.IndexByte(text, '\r') >= 0 {
			text = strings.ReplaceAll(strings.ReplaceAll(text, "\r\n", "\n"), "\r", "\n")
		}
		return text, true
	}
	return "", false
}

// nameRun advances over one XML name: a NameStartChar, then NameChars,
// with ':' among both only when colon is set.
func (p *parser) nameRun(colon bool) bool {
	start := p.pos
	for p.pos < len(p.s) {
		c := p.s[p.pos]
		if nameBytes[c] != 0 || colon && c == ':' {
			p.pos++
			continue
		}
		if c < utf8.RuneSelf {
			break
		}
		// encoding/xml ends a name only at a single-byte character, so a
		// multibyte one that is no NameChar fails the name.
		r, n := utf8.DecodeRuneInString(p.s[p.pos:])
		if !isNameRune(r, p.pos == start) {
			return false
		}
		p.pos += n
	}
	if p.pos == start {
		return false
	}
	c := p.s[start]
	return nameBytes[c] == nameStart || c >= utf8.RuneSelf || colon && c == ':'
}

// name reads a QName, prefix:local or local, at the cursor. An absent
// prefix returns "".
func (p *parser) name() (prefix, local string, ok bool) {
	start := p.pos
	if !p.nameRun(false) {
		return "", "", false
	}
	if p.pos >= len(p.s) || p.s[p.pos] != ':' {
		return "", p.s[start:p.pos], true
	}
	colon := p.pos
	p.pos++
	if !p.nameRun(false) {
		return "", "", false
	}
	return p.s[start:colon], p.s[colon+1 : p.pos], true
}

// lookup resolves a namespace prefix against the scope stack,
// mirroring encoding/xml: "xml" and "xmlns" are fixed, an undeclared
// prefix resolves to itself, and "" resolves to the innermost default
// (or "").
func (p *parser) lookup(prefix string) string {
	switch prefix {
	case "xml":
		return xmlNamespace
	case "xmlns":
		return prefix
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
func (p *parser) element(depth int) (*Element, bool) {
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
	plain := len(p.attrs) - attrMark
	for i := attrMark; i < len(p.attrs); i++ {
		a := p.attrs[i]
		if a.prefix == "xmlns" || (a.prefix == "" && a.local == "xmlns") {
			plain--
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
	e.Name = QName{Space: p.lookup(prefix), Local: local}
	if prefix == "" && local == "xmlns" {
		e.Name.Space = "" // encoding/xml leaves this name out of the default namespace
	}
	if plain > 0 {
		e.Attrs = make([]Attr, 0, plain)
	}
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
		e.SetAttr(QName{Space: space, Local: a.local}, val)
	}
	p.attrs = p.attrs[:attrMark] // consumed; a failed parse is abandoned whole
	if selfClosing {
		p.bindings = p.bindings[:nsMark]
		return e, true
	}

	// Content: character data, CDATA sections, comments and child
	// elements until the end tag. Text accumulates across children and
	// is trimmed once, as encoding/xml's reading of an Element does.
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
		case '!':
			seg, ok := p.bang()
			if !ok {
				return nil, false
			}
			addSeg(seg)
		case '?':
			return nil, false // SOAP forbids processing instructions
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
// "]]>" is refused.
func (p *parser) textSegment(seg string) (string, bool) {
	if !p.dirty {
		return seg, true
	}
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
	start := p.pos + 1
	end := strings.IndexByte(p.s[start:], quote)
	if end < 0 {
		return "", false, false
	}
	val = p.s[start : start+end]
	if strings.IndexByte(val, '<') >= 0 {
		return "", false, false // as encoding/xml: unescaped < in value
	}
	p.pos = start + end + 1
	return val, p.dirty && strings.ContainsAny(val, "&\r"), true
}

func (p *parser) cleanValue(a rawAttr) (string, bool) {
	if !a.dirty {
		return a.value, true
	}
	return decodeText(a.value)
}

// decodeText rewrites entity references and line endings. Only the
// five predefined entities and character references to an XML Char are
// admitted.
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
			if semi < 0 {
				return "", false
			}
			r, ok := decodeEntity(s[i+1 : i+semi])
			if !ok {
				return "", false
			}
			out = utf8.AppendRune(out, r)
			i += semi + 1
		default:
			out = append(out, c)
			i++
		}
	}
	return string(out), true
}

func decodeEntity(name string) (rune, bool) {
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
	n, err := strconv.ParseUint(digits, base, 32)
	if err != nil || n > utf8.MaxRune {
		return 0, false
	}
	r := rune(n)
	if r >= 0xD800 && r <= 0xDFFF {
		r = utf8.RuneError // as encoding/xml's string(rune(n))
	}
	return r, isChar(r)
}
