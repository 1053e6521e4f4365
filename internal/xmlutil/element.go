package xmlutil

import (
	"fmt"
	"slices"
)

// Element is a generic XML infoset node. Resource property documents,
// notification message payloads and fault detail blocks are all trees of
// Elements; MarshalElement and UnmarshalElement carry one through SOAP
// serialization and resource storage without schema-specific structs.
type Element struct {
	Name QName
	// Attrs holds one entry per name in canonical (Space, Local) order,
	// the order every encoder writes them in. SetAttr keeps it so; build
	// it through SetAttr.
	Attrs    []Attr
	Text     string
	Children []*Element
}

// Attr is one attribute of an Element.
type Attr struct {
	Name  QName
	Value string
}

// attrLess is the canonical attribute order: namespace, then local name.
func attrLess(a, b QName) bool {
	if a.Space != b.Space {
		return a.Space < b.Space
	}
	return a.Local < b.Local
}

// NewElement builds a leaf element carrying character data.
func NewElement(name QName, text string) *Element {
	return &Element{Name: name, Text: text}
}

// NewContainer builds an element with the given children.
func NewContainer(name QName, children ...*Element) *Element {
	return &Element{Name: name, Children: children}
}

// attrIndex finds name in Attrs: its index if present, else where it
// belongs.
func (e *Element) attrIndex(name QName) (int, bool) {
	for i, a := range e.Attrs {
		if !attrLess(a.Name, name) {
			return i, a.Name == name
		}
	}
	return len(e.Attrs), false
}

// SetAttr sets an attribute, replacing one of the same name, and returns
// the element to allow chaining during document construction.
func (e *Element) SetAttr(name QName, value string) *Element {
	if i, ok := e.attrIndex(name); ok {
		e.Attrs[i].Value = value
	} else {
		e.Attrs = slices.Insert(e.Attrs, i, Attr{Name: name, Value: value})
	}
	return e
}

// Attr returns the value of the named attribute, or "" when absent.
func (e *Element) Attr(name QName) string {
	if i, ok := e.attrIndex(name); ok {
		return e.Attrs[i].Value
	}
	return ""
}

// Append adds children and returns the element for chaining.
func (e *Element) Append(children ...*Element) *Element {
	e.Children = append(e.Children, children...)
	return e
}

// Child returns the first child with the given name, or nil.
func (e *Element) Child(name QName) *Element {
	for _, c := range e.Children {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// ChildText returns the text of the first child with the given name.
func (e *Element) ChildText(name QName) string {
	if c := e.Child(name); c != nil {
		return c.Text
	}
	return ""
}

// ChildrenNamed returns every direct child with the given name.
func (e *Element) ChildrenNamed(name QName) []*Element {
	var out []*Element
	for _, c := range e.Children {
		if c.Name == name {
			out = append(out, c)
		}
	}
	return out
}

// Clone returns a deep copy of the element tree.
func (e *Element) Clone() *Element {
	if e == nil {
		return nil
	}
	out := &Element{Name: e.Name, Text: e.Text, Attrs: slices.Clone(e.Attrs)}
	if len(e.Children) > 0 {
		out.Children = make([]*Element, len(e.Children))
		for i, c := range e.Children {
			out.Children[i] = c.Clone()
		}
	}
	return out
}

// Equal reports deep equality of two element trees.
func (e *Element) Equal(o *Element) bool {
	if e == nil || o == nil {
		return e == o
	}
	if e.Name != o.Name || e.Text != o.Text || !slices.Equal(e.Attrs, o.Attrs) || len(e.Children) != len(o.Children) {
		return false
	}
	for i := range e.Children {
		if !e.Children[i].Equal(o.Children[i]) {
			return false
		}
	}
	return true
}

// String renders the element as XML text, or a diagnostic on error.
func (e *Element) String() string {
	b, err := MarshalElement(e)
	if err != nil {
		return fmt.Sprintf("<!-- marshal error: %v -->", err)
	}
	return string(b)
}
