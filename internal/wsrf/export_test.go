package wsrf

import (
	"context"

	"uvacg/internal/xmlutil"
)

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
