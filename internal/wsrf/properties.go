package wsrf

import (
	"context"
	"strings"

	"uvacg/internal/soap"
	"uvacg/internal/xmlutil"
)

// ResourcePropertiesPortType implements WS-ResourceProperties: the
// standardized view of a resource's state that §5 of the paper credits
// with letting one set of client plumbing work against every service.
// Enable it with Service.Enable(ResourcePropertiesPortType{}).
type ResourcePropertiesPortType struct{}

// Name implements PortType.
func (ResourcePropertiesPortType) Name() string { return "WS-ResourceProperties" }

// Attach implements PortType.
func (ResourcePropertiesPortType) Attach(s *Service) {
	s.RegisterReadMethod(ActionGetResourceProperty, s.handleGetResourceProperty)
	s.RegisterReadMethod(ActionGetResourcePropertyDocument, s.handleGetDocument)
	s.RegisterReadMethod(ActionGetMultipleResourceProperties, s.handleGetMultiple)
	s.RegisterReadMethod(ActionQueryResourceProperties, s.handleQuery)
	s.RegisterMethod(ActionSetResourceProperties, s.handleSet)
}

// resolveProperty produces the current value(s) of one property:
// provider-computed values win (the [ResourceProperty] getter), else
// matching children of the state document (the [Resource] data members).
func (s *Service) resolveProperty(ctx context.Context, inv *Invocation, name xmlutil.QName) ([]*xmlutil.Element, error) {
	if p, ok := s.providers[name]; ok {
		return p(ctx, inv)
	}
	if inv.Doc == nil {
		return nil, nil
	}
	var out []*xmlutil.Element
	for _, c := range inv.Doc.Children {
		if c.Name == name || (name.Space == "" && c.Name.Local == name.Local) {
			out = append(out, c.Clone())
		}
	}
	return out, nil
}

func invalidPropertyFault(name string) error {
	return NewBaseFault("InvalidResourcePropertyQNameFault", "no resource property %q", name).SOAPFault(soap.CodeSender)
}

func (s *Service) handleGetResourceProperty(ctx context.Context, inv *Invocation, body *xmlutil.Element) (*xmlutil.Element, error) {
	if body == nil || strings.TrimSpace(body.Text) == "" {
		return nil, soap.SenderFault("GetResourceProperty requires a property QName")
	}
	name, err := xmlutil.ParseQName(strings.TrimSpace(body.Text))
	if err != nil {
		return nil, soap.SenderFault("bad property QName: %v", err)
	}
	values, err := s.resolveProperty(ctx, inv, name)
	if err != nil {
		return nil, err
	}
	if len(values) == 0 {
		return nil, invalidPropertyFault(name.String())
	}
	resp := &xmlutil.Element{Name: qGetRPResponse}
	resp.Append(values...)
	return resp, nil
}

// handleGetDocument returns the entire resource properties document —
// the WS-ResourceProperties operation that gives clients the full view
// the WSDL advertises, computed properties included.
func (s *Service) handleGetDocument(ctx context.Context, inv *Invocation, body *xmlutil.Element) (*xmlutil.Element, error) {
	doc, err := s.effectiveDocument(ctx, inv)
	if err != nil {
		return nil, err
	}
	resp := &xmlutil.Element{Name: qGetRPDocumentResp}
	resp.Append(doc)
	return resp, nil
}

func (s *Service) handleGetMultiple(ctx context.Context, inv *Invocation, body *xmlutil.Element) (*xmlutil.Element, error) {
	if body == nil {
		return nil, soap.SenderFault("GetMultipleResourceProperties requires a request body")
	}
	resp := &xmlutil.Element{Name: qGetMultipleResponse}
	requested := body.ChildrenNamed(qResourceProperty)
	if len(requested) == 0 {
		return nil, soap.SenderFault("GetMultipleResourceProperties names no properties")
	}
	for _, r := range requested {
		name, err := xmlutil.ParseQName(strings.TrimSpace(r.Text))
		if err != nil {
			return nil, soap.SenderFault("bad property QName %q: %v", r.Text, err)
		}
		values, err := s.resolveProperty(ctx, inv, name)
		if err != nil {
			return nil, err
		}
		if len(values) == 0 {
			return nil, invalidPropertyFault(name.String())
		}
		resp.Append(values...)
	}
	return resp, nil
}

// effectiveDocument materializes the full resource properties document:
// the state document plus every computed property — what the resource's
// WSDL-declared properties document would contain.
func (s *Service) effectiveDocument(ctx context.Context, inv *Invocation) (*xmlutil.Element, error) {
	var doc *xmlutil.Element
	if inv.Doc != nil {
		doc = inv.Doc.Clone()
	} else {
		doc = xmlutil.NewContainer(xmlutil.Q(NSImpl, "ResourceProperties"))
	}
	for name, p := range s.providers {
		values, err := p(ctx, inv)
		if err != nil {
			return nil, err
		}
		// Computed values shadow same-named static children.
		kept := doc.Children[:0]
		for _, c := range doc.Children {
			if c.Name != name {
				kept = append(kept, c)
			}
		}
		doc.Children = kept
		doc.Append(values...)
	}
	return doc, nil
}

func (s *Service) handleQuery(ctx context.Context, inv *Invocation, body *xmlutil.Element) (*xmlutil.Element, error) {
	if body == nil {
		return nil, soap.SenderFault("QueryResourceProperties requires a request body")
	}
	expr := body.Child(qQueryExpression)
	if expr == nil {
		return nil, soap.SenderFault("QueryResourceProperties requires a QueryExpression")
	}
	if d := expr.Attr(qDialect); d != "" && d != XPathDialect {
		return nil, NewBaseFault("UnknownQueryExpressionDialectFault", "dialect %q unsupported (use %s)", d, XPathDialect).SOAPFault(soap.CodeSender)
	}
	path, err := xmlutil.CompilePath(expr.Text)
	if err != nil {
		return nil, NewBaseFault("InvalidQueryExpressionFault", "%v", err).SOAPFault(soap.CodeSender)
	}
	doc, err := s.effectiveDocument(ctx, inv)
	if err != nil {
		return nil, err
	}
	resp := &xmlutil.Element{Name: qQueryRPResponse}
	for _, m := range path.Select(doc) {
		resp.Append(m.Clone())
	}
	return resp, nil
}

func (s *Service) handleSet(ctx context.Context, inv *Invocation, body *xmlutil.Element) (*xmlutil.Element, error) {
	if body == nil || len(body.Children) == 0 {
		return nil, soap.SenderFault("SetResourceProperties requires Insert/Update/Delete components")
	}
	if inv.Doc == nil {
		return nil, soap.ReceiverFault("resource has no modifiable state document")
	}
	for _, op := range body.Children {
		switch op.Name {
		case qInsert:
			for _, el := range op.Children {
				if err := s.checkModifiable(el.Name); err != nil {
					return nil, err
				}
				inv.Doc.Append(el.Clone())
			}
		case qUpdate:
			// Group replacement values by name, then swap each group in.
			byName := make(map[xmlutil.QName][]*xmlutil.Element)
			var order []xmlutil.QName
			for _, el := range op.Children {
				if err := s.checkModifiable(el.Name); err != nil {
					return nil, err
				}
				if _, seen := byName[el.Name]; !seen {
					order = append(order, el.Name)
				}
				byName[el.Name] = append(byName[el.Name], el.Clone())
			}
			for _, name := range order {
				inv.RemoveProperty(name)
				inv.Doc.Append(byName[name]...)
			}
		case qDelete:
			raw := op.Attr(qResourcePropertyName)
			if raw == "" {
				return nil, soap.SenderFault("Delete requires a resourceProperty attribute")
			}
			name, err := xmlutil.ParseQName(raw)
			if err != nil {
				return nil, soap.SenderFault("bad Delete property QName: %v", err)
			}
			if err := s.checkModifiable(name); err != nil {
				return nil, err
			}
			inv.RemoveProperty(name)
		default:
			return nil, soap.SenderFault("unknown SetResourceProperties component %v", op.Name)
		}
	}
	return &xmlutil.Element{Name: qSetRPResponse}, nil
}

func (s *Service) checkModifiable(name xmlutil.QName) error {
	if _, computed := s.providers[name]; computed {
		return NewBaseFault("UnableToModifyResourcePropertyFault", "property %s is computed and read-only", name).SOAPFault(soap.CodeSender)
	}
	return nil
}

// Request builders used by clients (the "plumbing" §5 says standard
// properties make shareable).

// GetResourcePropertyDocumentRequest builds the whole-document request
// body.
func GetResourcePropertyDocumentRequest() *xmlutil.Element {
	return &xmlutil.Element{Name: qGetRPDocument}
}

// GetResourcePropertyRequest builds the request body for one property.
func GetResourcePropertyRequest(name xmlutil.QName) *xmlutil.Element {
	return xmlutil.NewElement(qGetResourceProperty, name.String())
}

// GetMultipleResourcePropertiesRequest builds the request body for
// several properties.
func GetMultipleResourcePropertiesRequest(names ...xmlutil.QName) *xmlutil.Element {
	req := &xmlutil.Element{Name: qGetMultiple}
	for _, n := range names {
		req.Append(xmlutil.NewElement(qResourceProperty, n.String()))
	}
	return req
}

// QueryResourcePropertiesRequest builds a query request body.
func QueryResourcePropertiesRequest(expr string) *xmlutil.Element {
	q := xmlutil.NewElement(qQueryExpression, expr)
	q.SetAttr(qDialect, XPathDialect)
	return xmlutil.NewContainer(qQueryRP, q)
}

// SetRequest assembles a SetResourceProperties request body from
// component elements built with InsertComponent, UpdateComponent and
// DeleteComponent.
func SetRequest(components ...*xmlutil.Element) *xmlutil.Element {
	req := &xmlutil.Element{Name: qSetRP}
	req.Append(components...)
	return req
}

// InsertComponent builds an Insert component.
func InsertComponent(values ...*xmlutil.Element) *xmlutil.Element {
	c := &xmlutil.Element{Name: qInsert}
	c.Append(values...)
	return c
}

// UpdateComponent builds an Update component.
func UpdateComponent(values ...*xmlutil.Element) *xmlutil.Element {
	c := &xmlutil.Element{Name: qUpdate}
	c.Append(values...)
	return c
}

// DeleteComponent builds a Delete component.
func DeleteComponent(name xmlutil.QName) *xmlutil.Element {
	c := &xmlutil.Element{Name: qDelete}
	c.SetAttr(qResourcePropertyName, name.String())
	return c
}
