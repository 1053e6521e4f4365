package wsrf

import (
	"context"

	"uvacg/internal/wsa"
	"uvacg/internal/xmlutil"
)

// EPR returns the bound resource EPR.
func (rc *ResourceClient) EPR() wsa.EndpointReference { return rc.epr }

// GetMultiple fetches several properties in one
// GetMultipleResourceProperties round trip.
func (rc *ResourceClient) GetMultiple(ctx context.Context, names ...xmlutil.QName) (map[xmlutil.QName][]*xmlutil.Element, error) {
	req := &xmlutil.Element{Name: qGetMultiple}
	for _, n := range names {
		req.Append(xmlutil.NewElement(qResourceProperty, n.String()))
	}
	body, err := rc.c.Call(ctx, rc.epr, ActionGetMultipleResourceProperties, req)
	if err != nil {
		return nil, err
	}
	out := make(map[xmlutil.QName][]*xmlutil.Element)
	for _, el := range body.Children {
		out[el.Name] = append(out[el.Name], el)
	}
	return out, nil
}

// Set applies Insert, Update (UpdateComponent) and Delete
// (DeleteComponent) components through SetResourceProperties.
func (rc *ResourceClient) Set(ctx context.Context, components ...*xmlutil.Element) error {
	req := &xmlutil.Element{Name: qSetRP}
	req.Append(components...)
	_, err := rc.c.Call(ctx, rc.epr, ActionSetResourceProperties, req)
	return err
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
