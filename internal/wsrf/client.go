package wsrf

import (
	"context"
	"fmt"
	"time"

	"uvacg/internal/transport"
	"uvacg/internal/wsa"
	"uvacg/internal/xmlutil"
)

// ResourceClient is the client-side "plumbing" for the standard WSRF
// port types — the higher-level interface §5 argues standardization
// enables: one client library that works against every WS-Resource,
// with no per-service proxy generation.
type ResourceClient struct {
	c   *transport.Client
	epr wsa.EndpointReference
}

// NewResourceClient binds a transport client to a WS-Resource's EPR.
func NewResourceClient(c *transport.Client, epr wsa.EndpointReference) *ResourceClient {
	return &ResourceClient{c: c, epr: epr}
}

// GetProperty fetches one resource property's value elements.
func (rc *ResourceClient) GetProperty(ctx context.Context, name xmlutil.QName) ([]*xmlutil.Element, error) {
	body, err := rc.c.Call(ctx, rc.epr, ActionGetResourceProperty, GetResourcePropertyRequest(name))
	if err != nil {
		return nil, err
	}
	return body.Children, nil
}

// GetPropertyText fetches a single-valued property's text.
func (rc *ResourceClient) GetPropertyText(ctx context.Context, name xmlutil.QName) (string, error) {
	values, err := rc.GetProperty(ctx, name)
	if err != nil {
		return "", err
	}
	if len(values) == 0 {
		return "", fmt.Errorf("wsrf: property %s has no value", name)
	}
	return values[0].Text, nil
}

// GetDocument fetches the entire resource properties document.
func (rc *ResourceClient) GetDocument(ctx context.Context) (*xmlutil.Element, error) {
	body, err := rc.c.Call(ctx, rc.epr, ActionGetResourcePropertyDocument, GetResourcePropertyDocumentRequest())
	if err != nil {
		return nil, err
	}
	if body == nil || len(body.Children) == 0 {
		return nil, fmt.Errorf("wsrf: empty resource properties document")
	}
	return body.Children[0], nil
}

// Query evaluates an XPath-lite expression over the resource properties
// document and returns the matches.
func (rc *ResourceClient) Query(ctx context.Context, expr string) ([]*xmlutil.Element, error) {
	body, err := rc.c.Call(ctx, rc.epr, ActionQueryResourceProperties, QueryResourcePropertiesRequest(expr))
	if err != nil {
		return nil, err
	}
	return body.Children, nil
}

// Destroy destroys the resource immediately.
func (rc *ResourceClient) Destroy(ctx context.Context) error {
	_, err := rc.c.Call(ctx, rc.epr, ActionDestroy, DestroyRequest())
	return err
}

// SetTerminationTime schedules destruction (zero time = indefinite).
func (rc *ResourceClient) SetTerminationTime(ctx context.Context, tt time.Time) error {
	_, err := rc.c.Call(ctx, rc.epr, ActionSetTerminationTime, SetTerminationTimeRequest(tt))
	return err
}
