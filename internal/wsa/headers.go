package wsa

import (
	"fmt"

	"uvacg/internal/soap"
	"uvacg/internal/xmlutil"
)

// MessageInfo is the decoded set of WS-Addressing headers on a message.
// To carries the full EPR of the target WS-Resource: the Address from the
// <To> header plus every header block flagged as a reference parameter —
// exactly the information WSRF.NET's wrapper uses to resolve which
// resource an invocation addresses.
type MessageInfo struct {
	To        EndpointReference
	Action    string
	MessageID string
	RelatesTo string
	ReplyTo   EndpointReference
}

// Apply stamps WS-Addressing headers for an invocation of action against
// the resource named by 'to' onto env. Reference properties are bound as
// individual SOAP headers marked isReferenceParameter="true", per the
// WS-Addressing SOAP binding. A fresh MessageID is always assigned.
func Apply(env *soap.Envelope, to EndpointReference, action string) *soap.Envelope {
	env.RemoveHeader(qTo)
	env.RemoveHeader(qAction)
	env.RemoveHeader(qMessageID)
	env.AddHeader(xmlutil.NewElement(qTo, to.Address))
	env.AddHeader(xmlutil.NewElement(qAction, action))
	env.AddHeader(xmlutil.NewElement(qMessageID, NewMessageID()))
	for _, p := range to.ReferenceProperties {
		env.AddHeader(refPropHeader(p))
	}
	return env
}

// ApplyReply stamps reply headers: RelatesTo pointing at the request's
// MessageID, plus a fresh MessageID and the reply action.
func ApplyReply(env *soap.Envelope, req MessageInfo, action string) *soap.Envelope {
	env.AddHeader(xmlutil.NewElement(qAction, action))
	env.AddHeader(xmlutil.NewElement(qMessageID, NewMessageID()))
	if req.MessageID != "" {
		env.AddHeader(xmlutil.NewElement(qRelatesTo, req.MessageID))
	}
	return env
}

// refPropHeader binds one reference property as a header block.
func refPropHeader(p Property) *xmlutil.Element {
	return xmlutil.NewElement(p.Name, p.Value).SetAttr(qIsRefProp, "true")
}

// Extract decodes the WS-Addressing headers from an envelope. The Action
// header is mandatory (dispatch depends on it); everything else is
// optional per the spec.
func Extract(env *soap.Envelope) (MessageInfo, error) {
	var info MessageInfo
	info.Action = env.HeaderText(qAction)
	if info.Action == "" {
		return info, fmt.Errorf("wsa: message has no Action header")
	}
	info.MessageID = env.HeaderText(qMessageID)
	info.RelatesTo = env.HeaderText(qRelatesTo)
	info.To.Address = env.HeaderText(qTo)
	for _, h := range env.Headers {
		if h.Attr(qIsRefProp) == "true" {
			info.To.ReferenceProperties = append(info.To.ReferenceProperties, Property{Name: h.Name, Value: h.Text})
		}
	}
	info.To.ReferenceProperties = canonical(info.To.ReferenceProperties)
	if rt := env.Header(qReplyTo); rt != nil {
		epr, err := ParseEPR(rt)
		if err != nil {
			return info, fmt.Errorf("wsa: bad ReplyTo: %w", err)
		}
		info.ReplyTo = epr
	}
	return info, nil
}
