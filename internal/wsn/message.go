package wsn

import (
	"fmt"

	"uvacg/internal/wsa"
	"uvacg/internal/xmlutil"
)

// NS is the WS-BaseNotification namespace.
const NS = "http://docs.oasis-open.org/wsn/2004/06/wsn-WS-BaseNotification-1.2-draft-01.xsd"

// Action URIs.
const (
	// ActionNotify delivers notifications to a consumer (one-way).
	ActionNotify = NS + "/Notify"
	// ActionSubscribe registers a consumer with a producer.
	ActionSubscribe = NS + "/Subscribe"
)

var (
	qNotify              = xmlutil.Q(NS, "Notify")
	qNotificationMessage = xmlutil.Q(NS, "NotificationMessage")
	qTopic               = xmlutil.Q(NS, "Topic")
	qProducerRef         = xmlutil.Q(NS, "ProducerReference")
	qMessage             = xmlutil.Q(NS, "Message")
	qSubscribe           = xmlutil.Q(NS, "Subscribe")
	qSubscribeResponse   = xmlutil.Q(NS, "SubscribeResponse")
	qConsumerRef         = xmlutil.Q(NS, "ConsumerReference")
	qSubscriptionRef     = xmlutil.Q(NS, "SubscriptionReference")
	qTopicExpression     = xmlutil.Q(NS, "TopicExpression")
	qDialectAttr         = xmlutil.Q("", "Dialect")
)

// Notification is one delivered event: the concrete topic it was
// published on, the producing WS-Resource, and an arbitrary payload.
// Service authors "provide an XML message body or an object which will
// be serialized" (paper §5); here the payload is always an element tree,
// and nobody writes to it once it is published or relayed: producers
// build a fresh one per event, the broker relays the one it parsed, and
// consumers only read.
type Notification struct {
	Topic    string
	Producer wsa.EndpointReference
	Message  *xmlutil.Element
}

// NotifyBody renders one or more notifications as the body of a Notify
// message. Each payload is placed in the body, not copied: a
// Notification's Message is read-only once published, so one payload can
// ride every Notify a fan-out sends at once.
func NotifyBody(notifications ...Notification) *xmlutil.Element {
	body := &xmlutil.Element{Name: qNotify}
	for _, n := range notifications {
		msg := xmlutil.NewContainer(qNotificationMessage,
			xmlutil.NewElement(qTopic, n.Topic).SetAttr(qDialectAttr, DialectConcrete),
		)
		if !n.Producer.IsZero() {
			msg.Append(n.Producer.ElementNamed(qProducerRef))
		}
		payload := &xmlutil.Element{Name: qMessage}
		if n.Message != nil {
			payload.Append(n.Message)
		}
		msg.Append(payload)
		body.Append(msg)
	}
	return body
}

// ParseNotifyBody decodes a Notify body into its notifications.
func ParseNotifyBody(body *xmlutil.Element) ([]Notification, error) {
	if body == nil || body.Name != qNotify {
		return nil, fmt.Errorf("wsn: body is not a Notify message")
	}
	var out []Notification
	for _, msg := range body.ChildrenNamed(qNotificationMessage) {
		n := Notification{Topic: msg.ChildText(qTopic)}
		if n.Topic == "" {
			return nil, fmt.Errorf("wsn: notification message has no topic")
		}
		if prod := msg.Child(qProducerRef); prod != nil {
			epr, err := wsa.ParseEPR(prod)
			if err != nil {
				return nil, fmt.Errorf("wsn: bad producer reference: %w", err)
			}
			n.Producer = epr
		}
		if payload := msg.Child(qMessage); payload != nil && len(payload.Children) > 0 {
			n.Message = payload.Children[0]
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("wsn: Notify carries no notification messages")
	}
	return out, nil
}

// SubscribeRequest builds the Subscribe body registering consumer for
// the topics matched by te.
func SubscribeRequest(consumer wsa.EndpointReference, te *TopicExpression) *xmlutil.Element {
	return xmlutil.NewContainer(qSubscribe,
		consumer.ElementNamed(qConsumerRef),
		te.Element(qTopicExpression),
	)
}

// ParseSubscribeRequest decodes a Subscribe body.
func ParseSubscribeRequest(body *xmlutil.Element) (consumer wsa.EndpointReference, te *TopicExpression, err error) {
	if body == nil || body.Name != qSubscribe {
		return consumer, nil, fmt.Errorf("wsn: body is not a Subscribe message")
	}
	consEl := body.Child(qConsumerRef)
	if consEl == nil {
		return consumer, nil, fmt.Errorf("wsn: Subscribe has no ConsumerReference")
	}
	consumer, err = wsa.ParseEPR(consEl)
	if err != nil {
		return consumer, nil, fmt.Errorf("wsn: bad consumer reference: %w", err)
	}
	te, err = ParseTopicExpressionElement(body.Child(qTopicExpression))
	if err != nil {
		return consumer, nil, err
	}
	return consumer, te, nil
}

// SubscribeResponseBody builds the response carrying the subscription's
// WS-Resource EPR.
func SubscribeResponseBody(subscription wsa.EndpointReference) *xmlutil.Element {
	return xmlutil.NewContainer(qSubscribeResponse, subscription.ElementNamed(qSubscriptionRef))
}

// ParseSubscribeResponse extracts the subscription EPR.
func ParseSubscribeResponse(body *xmlutil.Element) (wsa.EndpointReference, error) {
	if body == nil || body.Name != qSubscribeResponse {
		return wsa.EndpointReference{}, fmt.Errorf("wsn: body is not a SubscribeResponse")
	}
	ref := body.Child(qSubscriptionRef)
	if ref == nil {
		return wsa.EndpointReference{}, fmt.Errorf("wsn: SubscribeResponse has no SubscriptionReference")
	}
	return wsa.ParseEPR(ref)
}
