// Package resourcedb is the embedded database that backs WS-Resources,
// standing in for the ODBC store (MS SQL/MSDE/MySQL) WSRF.NET uses. A
// Store holds named Tables; each table row is one resource's state
// document, serialized by the table's codec.
//
// Two codecs are provided because the paper's §5 discussion hinges on the
// trade-off between them: StructuredCodec flattens documents into typed
// "columns" that can be indexed and queried in the database (fixed
// relational columns), while BlobCodec stores the document as opaque
// bytes — "effective for loading and storing, but makes it very
// difficult to query them in the database". Benchmark E3 quantifies
// exactly this trade-off.
package resourcedb

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"

	"uvacg/internal/soap/fastcodec"
	"uvacg/internal/xmlutil"
)

// Codec serializes resource state documents into row bytes.
type Codec interface {
	// Name identifies the codec in snapshots ("structured", "blob").
	Name() string
	// Encode serializes a state document.
	Encode(doc *xmlutil.Element) ([]byte, error)
	// Decode reverses Encode.
	Decode(data []byte) (*xmlutil.Element, error)
	// Indexable reports whether top-level properties can be read without
	// a full document decode (enables query indexes).
	Indexable() bool
}

// BlobCodec stores the document as its XML serialization: one opaque
// column. Queries must decode every row.
type BlobCodec struct{}

// Name implements Codec.
func (BlobCodec) Name() string { return "blob" }

// Indexable implements Codec.
func (BlobCodec) Indexable() bool { return false }

// Encode implements Codec. Blob rows ride the fast-path codec when the
// document fits its recognized shape — rows are written on every
// journaled Put, so this is squarely on the WAL hot path — and fall
// back to encoding/xml otherwise. Both encodings decode identically
// under either decoder, so rows written before and after the fast path
// interoperate.
func (BlobCodec) Encode(doc *xmlutil.Element) ([]byte, error) {
	if out, ok := fastcodec.AppendElement(nil, doc); ok {
		return out, nil
	}
	return xmlutil.MarshalElement(doc)
}

// Decode implements Codec.
func (BlobCodec) Decode(data []byte) (*xmlutil.Element, error) {
	if root, ok := fastcodec.Decode(data); ok {
		return root, nil
	}
	return xmlutil.UnmarshalElement(data)
}

// StructuredCodec flattens the document into (path, text, attrs) tuples —
// the relational-columns shape. Arbitrary nesting is supported by path
// keys, and top-level leaf properties are recoverable without decoding
// the whole row, which is what makes indexes possible.
type StructuredCodec struct{}

// Name implements Codec.
func (StructuredCodec) Name() string { return "structured" }

// Indexable implements Codec.
func (StructuredCodec) Indexable() bool { return true }

// Wire format: a sequence of records, each
//
//	depth  uvarint      nesting depth (0 = document root)
//	name   lenstr       Clark-notation QName
//	text   lenstr
//	nattrs uvarint, then nattrs × (lenstr name, lenstr value)
//
// written in document order; the tree is rebuilt from depths.

func writeLenStr(buf *bytes.Buffer, s string) {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], uint64(len(s)))
	buf.Write(tmp[:n])
	buf.WriteString(s)
}

func readLenStr(r *bytes.Reader) (string, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return "", err
	}
	if n > uint64(r.Len()) {
		return "", fmt.Errorf("resourcedb: corrupt row: string length %d exceeds remaining %d", n, r.Len())
	}
	b := make([]byte, n)
	if _, err := r.Read(b); err != nil {
		return "", err
	}
	return string(b), nil
}

// Encode implements Codec.
func (StructuredCodec) Encode(doc *xmlutil.Element) ([]byte, error) {
	if doc == nil {
		return nil, fmt.Errorf("resourcedb: nil document")
	}
	var buf bytes.Buffer
	var walk func(e *xmlutil.Element, depth uint64)
	walk = func(e *xmlutil.Element, depth uint64) {
		var tmp [binary.MaxVarintLen64]byte
		n := binary.PutUvarint(tmp[:], depth)
		buf.Write(tmp[:n])
		writeLenStr(&buf, e.Name.String())
		writeLenStr(&buf, e.Text)
		n = binary.PutUvarint(tmp[:], uint64(len(e.Attrs)))
		buf.Write(tmp[:n])
		// Deterministic attr order: reuse canonical XML marshal ordering
		// by sorting names.
		names := make([]xmlutil.QName, 0, len(e.Attrs))
		for k := range e.Attrs {
			names = append(names, k)
		}
		sortQNames(names)
		for _, k := range names {
			writeLenStr(&buf, k.String())
			writeLenStr(&buf, e.Attrs[k])
		}
		for _, c := range e.Children {
			walk(c, depth+1)
		}
	}
	walk(doc, 0)
	return buf.Bytes(), nil
}

func sortQNames(names []xmlutil.QName) {
	for i := 1; i < len(names); i++ {
		for j := i; j > 0 && qnameLess(names[j], names[j-1]); j-- {
			names[j], names[j-1] = names[j-1], names[j]
		}
	}
}

func qnameLess(a, b xmlutil.QName) bool {
	if a.Space != b.Space {
		return a.Space < b.Space
	}
	return a.Local < b.Local
}

// Decode implements Codec.
func (StructuredCodec) Decode(data []byte) (*xmlutil.Element, error) {
	r := bytes.NewReader(data)
	var root *xmlutil.Element
	// stack[d] is the most recent element at depth d.
	var stack []*xmlutil.Element
	for r.Len() > 0 {
		depth, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, fmt.Errorf("resourcedb: corrupt row: %w", err)
		}
		name, err := readLenStr(r)
		if err != nil {
			return nil, err
		}
		text, err := readLenStr(r)
		if err != nil {
			return nil, err
		}
		nattrs, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, err
		}
		q, err := xmlutil.ParseQName(name)
		if err != nil {
			return nil, err
		}
		e := &xmlutil.Element{Name: q, Text: text}
		for i := uint64(0); i < nattrs; i++ {
			an, err := readLenStr(r)
			if err != nil {
				return nil, err
			}
			av, err := readLenStr(r)
			if err != nil {
				return nil, err
			}
			aq, err := xmlutil.ParseQName(an)
			if err != nil {
				return nil, err
			}
			e.SetAttr(aq, av)
		}
		switch {
		case depth == 0:
			if root != nil {
				return nil, fmt.Errorf("resourcedb: corrupt row: multiple roots")
			}
			root = e
			stack = stack[:0]
			stack = append(stack, e)
		case int(depth) > len(stack):
			return nil, fmt.Errorf("resourcedb: corrupt row: depth jump to %d", depth)
		default:
			parent := stack[depth-1]
			parent.Children = append(parent.Children, e)
			stack = append(stack[:depth], e)
		}
	}
	if root == nil {
		return nil, fmt.Errorf("resourcedb: empty row")
	}
	return root, nil
}

// topLevelProperties extracts the (localName → texts) view of a
// document's direct children used to maintain query indexes.
func topLevelProperties(doc *xmlutil.Element) map[string][]string {
	out := make(map[string][]string, len(doc.Children))
	for _, c := range doc.Children {
		out[c.Name.Local] = append(out[c.Name.Local], strings.TrimSpace(c.Text))
	}
	return out
}
