package xmlutil

import (
	"encoding/xml"
	"strings"
)

// oracle reads a document as encoding/xml reads it into an Element: it
// is the UnmarshalXML the Element type carried while encoding/xml was
// the product's second codec, kept as what the codec is checked against.
type oracle struct{ e *Element }

// oracleUnmarshal is xml.Unmarshal into an Element.
func oracleUnmarshal(data []byte) (*Element, error) {
	o := oracle{e: &Element{}}
	if err := xml.Unmarshal(data, &o); err != nil {
		return nil, err
	}
	return o.e, nil
}

func (o *oracle) UnmarshalXML(dec *xml.Decoder, start xml.StartElement) error {
	e := o.e
	e.Name = QName{Space: start.Name.Space, Local: start.Name.Local}
	for _, a := range start.Attr {
		// Namespace declarations are consumed: encoding/xml resolves
		// prefixes with them.
		if a.Name.Space == "xmlns" || (a.Name.Space == "" && a.Name.Local == "xmlns") {
			continue
		}
		e.SetAttr(QName{Space: a.Name.Space, Local: a.Name.Local}, a.Value)
	}
	var text strings.Builder
	for {
		tok, err := dec.Token()
		if err != nil {
			return err
		}
		switch t := tok.(type) {
		case xml.StartElement:
			child := oracle{e: &Element{}}
			if err := child.UnmarshalXML(dec, t); err != nil {
				return err
			}
			e.Children = append(e.Children, child.e)
		case xml.CharData:
			text.Write(t)
		case xml.EndElement:
			e.Text = strings.TrimSpace(text.String())
			return nil
		}
	}
}
