package xmlutil

import (
	"strings"
	"unicode/utf8"
)

// CloneEnvelope deep-copies an envelope's header blocks and body into
// one slab, as Clone copies one tree.
func CloneEnvelope(headers []*Element, body *Element) ([]*Element, *Element) {
	var s slab
	s.reserve(headers, body)
	return s.envelope(headers, body)
}

// ReadBackEnvelope returns what a reader decodes from the bytes
// MarshalEnvelope writes for headers and body, and the length of those
// bytes, without keeping them: the envelope is encoded into pooled
// scratch, which is measured and given back, and the trees are copied
// into one slab with their text trimmed and, where the encoder wrote
// U+FFFD, every string as it wrote it. It refuses what MarshalEnvelope
// refuses. The copy shares the strings the encoder wrote unchanged,
// which nobody may write.
func ReadBackEnvelope(ns string, headers []*Element, body *Element) ([]*Element, *Element, int, error) {
	bp := scratch.Get().(*[]byte)
	enc := encoder{dst: (*bp)[:0]}
	ok := enc.envelope(ns, headers, body)
	size := len(enc.dst)
	ReleaseScratch(bp, enc.dst)
	if err := enc.done(ok); err != nil {
		return nil, nil, 0, err
	}
	s := slab{read: true, scrub: enc.rewrote}
	s.reserve(headers, body)
	hs, b := s.envelope(headers, body)
	return hs, b, size, nil
}

// slab is the memory of one deep copy: its nodes, child lists and
// attribute lists come from three arrays, each allocated once at the
// size a count of the originals gives. A child or attribute list is cut
// to its length and capacity, so Append or SetAttr on a copy reallocates
// rather than write over its neighbour's.
type slab struct {
	elems []Element
	ptrs  []*Element
	attrs []Attr
	// read makes the copy what a reader decodes from the originals'
	// encoding: text trimmed, attributes in canonical order, and, with
	// scrub, every string as escaped writes it.
	read, scrub bool
}

// reserve makes room for copies of headers, as one list, and of body.
func (s *slab) reserve(headers []*Element, body *Element) {
	n := sizes{ptrs: len(headers)}
	for _, h := range headers {
		n.add(h)
	}
	n.add(body)
	s.elems = make([]Element, n.elems)
	s.ptrs = make([]*Element, n.ptrs)
	s.attrs = make([]Attr, n.attrs)
}

// sizes counts what a slab holds.
type sizes struct{ elems, ptrs, attrs int }

// add counts e's tree.
func (n *sizes) add(e *Element) {
	if e == nil {
		return
	}
	n.elems++
	n.ptrs += len(e.Children)
	n.attrs += len(e.Attrs)
	for _, c := range e.Children {
		n.add(c)
	}
}

// envelope copies headers and body into the slab; no headers copy to a
// nil list.
func (s *slab) envelope(headers []*Element, body *Element) ([]*Element, *Element) {
	var hs []*Element
	if n := len(headers); n > 0 {
		hs = s.ptrs[:n:n]
		s.ptrs = s.ptrs[n:]
		for i, h := range headers {
			hs[i] = s.copy(h)
		}
	}
	return hs, s.copy(body)
}

// copy copies e's tree into the slab; a nil tree copies to nil.
func (s *slab) copy(e *Element) *Element {
	if e == nil {
		return nil
	}
	out := &s.elems[0]
	s.elems = s.elems[1:]
	out.Name, out.Text = e.Name, e.Text
	if s.read {
		out.Name.Space = s.str(out.Name.Space)
		out.Text = strings.TrimSpace(s.str(out.Text))
	}
	if n := len(e.Attrs); n > 0 {
		out.Attrs = s.attrs[:n:n]
		s.attrs = s.attrs[n:]
		if s.read && (s.scrub || !canonical(e.Attrs)) {
			// A reader sets each attribute in the order written: the
			// last of a name wins, and the list comes out sorted.
			out.Attrs = out.Attrs[:0]
			for _, a := range e.Attrs {
				out.SetAttr(QName{Space: s.str(a.Name.Space), Local: a.Name.Local}, s.str(a.Value))
			}
		} else {
			copy(out.Attrs, e.Attrs)
		}
	}
	if n := len(e.Children); n > 0 {
		kids := s.ptrs[:n:n]
		s.ptrs = s.ptrs[n:]
		for i, c := range e.Children {
			kids[i] = s.copy(c)
		}
		out.Children = kids
	}
	return out
}

// str is v as the copy holds it.
func (s *slab) str(v string) string {
	if s.scrub {
		return scrubbed(v)
	}
	return v
}

// canonical reports whether attrs is in the order SetAttr keeps, one
// entry per name.
func canonical(attrs []Attr) bool {
	for i := 1; i < len(attrs); i++ {
		if !attrLess(attrs[i-1].Name, attrs[i].Name) {
			return false
		}
	}
	return true
}

// scrubbed is v as a reader decodes what escaped writes of it: U+FFFD in
// place of each byte or rune that is no XML Char, stepping as escaped
// steps.
func scrubbed(v string) string {
	var out []byte
	last := 0
	for i := 0; i < len(v); {
		width := 1
		if c := v[i]; c < utf8.RuneSelf {
			if escapes[c] != replacement {
				i++
				continue
			}
		} else {
			var r rune
			if r, width = utf8.DecodeRuneInString(v[i:]); width > 1 && isChar(r) {
				i += width
				continue
			}
		}
		out = append(out, v[last:i]...)
		out = append(out, replacement...)
		i += width
		last = i
	}
	if out == nil {
		return v
	}
	return string(append(out, v[last:]...))
}
