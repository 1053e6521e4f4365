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

// Add registers a member with a service-group resource, returning the
// entry key.
func (rc *ResourceClient) Add(ctx context.Context, member wsa.EndpointReference, content *xmlutil.Element) (string, error) {
	req := xmlutil.NewContainer(qAdd, member.ElementNamed(qMemberEPR))
	if content != nil {
		req.Append(xmlutil.NewContainer(qContent, content))
	}
	body, err := rc.c.Call(ctx, rc.epr, ActionAdd, req)
	if err != nil {
		return "", err
	}
	return body.ChildText(xmlutil.Q(NSServiceGroup, "EntryKey")), nil
}
