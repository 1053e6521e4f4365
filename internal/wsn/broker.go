package wsn

import (
	"context"

	"uvacg/internal/soap"
	"uvacg/internal/transport"
	"uvacg/internal/wsa"
	"uvacg/internal/wsrf"
	"uvacg/internal/xmlutil"
)

// Broker is the WS-BrokeredNotification intermediary of paper §4.3:
// "used when notification producers and consumers can not or do not
// care to have direct knowledge of each other ... a multicast
// mechanism". Producers Notify the broker; the broker re-publishes to
// every subscription matching the topic. It relays for any publisher and
// keeps no record of them.
type Broker struct {
	svc      *wsrf.Service
	producer *Producer
}

// NewBroker builds a broker service at path (e.g. "/NotificationBroker")
// on the given address. Both Service() and Producer().SubscriptionService()
// must be mounted on the mux.
func NewBroker(path, address string, subHome wsrf.ResourceHome, client *transport.Client) (*Broker, error) {
	svc, err := wsrf.NewService(wsrf.ServiceConfig{Path: path, Address: address, Home: nil})
	if err != nil {
		return nil, err
	}
	b := &Broker{svc: svc}
	producer, err := NewProducer(svc, subHome, client)
	if err != nil {
		return nil, err
	}
	b.producer = producer
	svc.RegisterServiceMethod(ActionNotify, b.handleNotify)
	return b, nil
}

// Service returns the broker's WSRF service.
func (b *Broker) Service() *wsrf.Service { return b.svc }

// Producer returns the broker's producer half (for local Subscribe and
// for mounting its subscription service).
func (b *Broker) Producer() *Producer { return b.producer }

// EPR returns the broker's endpoint.
func (b *Broker) EPR() wsa.EndpointReference { return b.svc.EPR() }

// handleNotify is the consumer half: incoming notifications are fanned
// out to the broker's own subscribers.
func (b *Broker) handleNotify(ctx context.Context, inv *wsrf.Invocation, body *xmlutil.Element) (*xmlutil.Element, error) {
	notifications, err := ParseNotifyBody(body)
	if err != nil {
		return nil, soap.SenderFault("%v", err)
	}
	b.producer.publish(ctx, notifications...)
	return nil, nil
}

// PublishViaBroker sends notifications to a broker as one one-way Notify
// — the single call producing services use (the ES broadcasting job
// status in paper Fig. 3 steps 9 and 10). Delivery is best-effort: a
// dropped one-way message is indistinguishable from a delivered one at
// the caller.
func PublishViaBroker(ctx context.Context, c *transport.Client, broker wsa.EndpointReference, ns ...Notification) error {
	return c.Notify(ctx, broker, ActionNotify, NotifyBody(ns...))
}

// PublishAckedViaBroker sends a notification as a request-response
// exchange: a nil return means the broker accepted (and relayed) the
// event, not merely that it was handed to the transport. Publishers
// whose durability bookkeeping depends on knowing the event arrived —
// e.g. an at-least-once "notified" marker — must use this instead of
// the fire-and-forget PublishViaBroker.
func PublishAckedViaBroker(ctx context.Context, c *transport.Client, broker wsa.EndpointReference, n Notification) error {
	_, err := c.Call(ctx, broker, ActionNotify, NotifyBody(n))
	return err
}
