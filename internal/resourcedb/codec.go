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

	"uvacg/internal/xmlutil"
)

// Codec serializes resource state documents into row bytes.
type Codec interface {
	// Name identifies the codec in WAL records ("structured", "blob").
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

// Encode implements Codec. Rows are written on every journaled Put, so
// this is squarely on the WAL hot path: the codec encodes into pooled
// scratch and hands out one exact copy. Rows written by encoding/xml
// before it left the product decode too.
func (BlobCodec) Encode(doc *xmlutil.Element) ([]byte, error) {
	return xmlutil.MarshalElement(doc)
}

// Decode implements Codec. The document's strings may point into data
// (see xmlutil.UnmarshalElement): once a row is passed here the document
// owns it, and nobody may write to it again. Rows are never written in
// place: Put stores Encode's fresh copy, and replay reads each row into
// a buffer of its own.
func (BlobCodec) Decode(data []byte) (*xmlutil.Element, error) {
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
		// Attrs are kept in canonical order, so rows are deterministic.
		for _, a := range e.Attrs {
			writeLenStr(&buf, a.Name.String())
			writeLenStr(&buf, a.Value)
		}
		for _, c := range e.Children {
			walk(c, depth+1)
		}
	}
	walk(doc, 0)
	return buf.Bytes(), nil
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
