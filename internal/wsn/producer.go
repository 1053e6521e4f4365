package wsn

import (
	"context"
	"errors"
	"fmt"
	"log"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"uvacg/internal/soap"
	"uvacg/internal/transport"
	"uvacg/internal/wsa"
	"uvacg/internal/wsrf"
	"uvacg/internal/xmlutil"
)

var (
	qSubscription = xmlutil.Q(NS, "Subscription")
	qCreationTime = xmlutil.Q(NS, "CreationTime")
)

// maxDeliveryFailures is how many consecutive delivery failures a
// subscription survives before the producer destroys it, so dead
// consumers do not accumulate forever.
const maxDeliveryFailures = 8

type subscription struct {
	id       string
	consumer wsa.EndpointReference
	te       *TopicExpression
}

// Producer makes a WSRF service a NotificationProducer: it registers the
// Subscribe action on the owning service, manages subscriptions as
// WS-Resources (destroyable, property-readable — destroying the
// subscription resource is how consumers unsubscribe), and offers the
// single Publish call the paper praises WSRF.NET for ("a single function
// that services may invoke", §5). It keeps state per subscription only: a
// notification is delivered and forgotten.
type Producer struct {
	owner  *wsrf.Service
	subSvc *wsrf.Service
	client *transport.Client
	out    *Outbox // every delivery leaves through it

	subscribeMu sync.Mutex // serializes Subscribe's look-up-then-create

	mu   sync.RWMutex
	subs map[string]subscription
	// byKey finds the subscription a (consumer, dialect, expression) has:
	// what makes Subscribe idempotent. Kept by index and unindex, like byRoot.
	byKey map[string]string
	// byRoot indexes subscription ids by their expression's first topic
	// segment ("*" for a Full expression that starts with a wildcard), so
	// Publish tests the subscriptions that can match and not every one
	// the producer has ever taken. Kept in step with subs by index and
	// unindex, nothing else.
	byRoot   map[string]map[string]struct{}
	failures map[string]int
}

// NewProducer wires notification production into owner. The returned
// producer's SubscriptionService must be mounted on the same mux as the
// owner. Existing subscriptions in subHome are recovered (surviving a
// service restart). Deliveries are sent on client and retried by its
// chain, not here: every grid host's chain re-sends a Notify
// (core.IdempotentActions) as notification delivery is at-least-once by
// contract, so a consumer's transient failure is absorbed instead of
// counting toward its subscription's destruction.
func NewProducer(owner *wsrf.Service, subHome wsrf.ResourceHome, client *transport.Client) (*Producer, error) {
	subSvc, err := wsrf.NewService(wsrf.ServiceConfig{
		Path:    owner.Path() + "-subscriptions",
		Address: owner.Address(),
		Home:    subHome,
	})
	if err != nil {
		return nil, err
	}
	subSvc.Enable(wsrf.ResourcePropertiesPortType{})

	p := &Producer{
		owner:    owner,
		subSvc:   subSvc,
		client:   client,
		subs:     make(map[string]subscription),
		byKey:    make(map[string]string),
		byRoot:   make(map[string]map[string]struct{}),
		failures: make(map[string]int),
	}
	p.out = NewOutbox(p.deliver)
	subSvc.OnDestroy(func(id string) {
		p.mu.Lock()
		p.unindex(id)
		delete(p.failures, id)
		p.mu.Unlock()
	})
	if err := p.recover(); err != nil {
		return nil, err
	}
	// After recover: a subscription whose time passed while the service
	// was down is indexed before its timer unindexes it.
	subSvc.Enable(wsrf.LifetimePortType{})
	owner.RegisterServiceMethod(ActionSubscribe, p.handleSubscribe)
	return p, nil
}

// SubscriptionService returns the subscription-manager service to mount
// alongside the owner.
func (p *Producer) SubscriptionService() *wsrf.Service { return p.subSvc }

// recover rebuilds the in-memory subscription cache from the home. An
// unreadable subscription is refused like a corrupt one, not dropped.
func (p *Producer) recover() error {
	home := p.subSvc.Home()
	for _, id := range home.IDs() {
		doc, err := home.Load(id)
		if errors.Is(err, wsrf.ErrNoSuchResource) {
			continue // destroyed since IDs listed it
		}
		if err != nil {
			return fmt.Errorf("wsn: unreadable subscription %q: %w", id, err)
		}
		sub, err := subscriptionFromDoc(id, doc)
		if err != nil {
			return fmt.Errorf("wsn: corrupt subscription %q: %w", id, err)
		}
		p.index(sub)
	}
	return nil
}

// key is what makes two subscriptions the same one.
func (sub subscription) key() string {
	return sub.consumer.String() + "\x00" + sub.te.Dialect + "\x00" + sub.te.Expr
}

// index files a subscription under its id, its key and its root segment;
// the caller holds p.mu (or, in recover, the only reference).
func (p *Producer) index(sub subscription) {
	p.subs[sub.id] = sub
	p.byKey[sub.key()] = sub.id
	root := sub.te.segs[0]
	if p.byRoot[root] == nil {
		p.byRoot[root] = make(map[string]struct{})
	}
	p.byRoot[root][sub.id] = struct{}{}
}

// unindex forgets a subscription; the caller holds p.mu.
func (p *Producer) unindex(id string) {
	if sub, ok := p.subs[id]; ok {
		root := sub.te.segs[0]
		if delete(p.byRoot[root], id); len(p.byRoot[root]) == 0 {
			delete(p.byRoot, root)
		}
		if p.byKey[sub.key()] == id {
			delete(p.byKey, sub.key())
		}
		delete(p.subs, id)
	}
}

func subscriptionFromDoc(id string, doc *xmlutil.Element) (subscription, error) {
	consEl := doc.Child(qConsumerRef)
	if consEl == nil {
		return subscription{}, fmt.Errorf("no consumer reference")
	}
	consumer, err := wsa.ParseEPR(consEl)
	if err != nil {
		return subscription{}, err
	}
	te, err := ParseTopicExpressionElement(doc.Child(qTopicExpression))
	if err != nil {
		return subscription{}, err
	}
	return subscription{id: id, consumer: consumer, te: te}, nil
}

func subscriptionDoc(consumer wsa.EndpointReference, te *TopicExpression) *xmlutil.Element {
	return xmlutil.NewContainer(qSubscription,
		consumer.ElementNamed(qConsumerRef),
		te.Element(qTopicExpression),
		xmlutil.NewElement(qCreationTime, time.Now().UTC().Format(time.RFC3339Nano)),
	)
}

// handleSubscribe is the wire entry point for Subscribe.
func (p *Producer) handleSubscribe(ctx context.Context, inv *wsrf.Invocation, body *xmlutil.Element) (*xmlutil.Element, error) {
	consumer, te, err := ParseSubscribeRequest(body)
	if err != nil {
		return nil, soap.SenderFault("%v", err)
	}
	epr, err := p.Subscribe(consumer, te)
	if err != nil {
		return nil, soap.ReceiverFault("wsn: subscribe: %v", err)
	}
	return SubscribeResponseBody(epr), nil
}

// Subscribe registers a consumer directly (server-local path; the wire
// path arrives via the Subscribe action). It returns the subscription's
// WS-Resource EPR. Idempotent on (consumer, dialect, expression): a master
// that restarted beside its durable subscriptions and asks again gets the
// subscription it has, not a second delivery of every event.
func (p *Producer) Subscribe(consumer wsa.EndpointReference, te *TopicExpression) (wsa.EndpointReference, error) {
	if consumer.IsZero() {
		return wsa.EndpointReference{}, fmt.Errorf("wsn: subscribe with empty consumer EPR")
	}
	sub := subscription{consumer: consumer, te: te}
	p.subscribeMu.Lock()
	defer p.subscribeMu.Unlock()
	p.mu.RLock()
	existing, ok := p.byKey[sub.key()]
	p.mu.RUnlock()
	if ok {
		return p.subSvc.EPRFor(existing), nil
	}
	epr, err := p.subSvc.CreateResource("", subscriptionDoc(consumer, te))
	if err != nil {
		return wsa.EndpointReference{}, err
	}
	sub.id = epr.Property(wsrf.QResourceID)
	// The index outlives the Subscribe message consumer and te may have
	// come in: it keeps copies.
	sub.consumer, sub.te = consumer.Own(), te.own()
	p.mu.Lock()
	p.index(sub)
	p.mu.Unlock()
	return epr, nil
}

// Publish delivers a notification on a concrete topic to every matching
// subscriber as a one-way Notify, returning — once each delivery was
// attempted — the number that succeeded. Deliveries leave through the
// outbox: one slow or dead consumer (possibly sitting out delivery retries)
// holds up only its own queue, and consumers whose deliveries keep failing
// across publishes are unsubscribed.
func (p *Producer) Publish(ctx context.Context, topic string, producerRef wsa.EndpointReference, message *xmlutil.Element) int {
	return p.publish(ctx, Notification{Topic: topic, Producer: producerRef, Message: message})
}

// publish queues every delivery ns cause before it waits for any, so what
// is published together reaches a consumer together.
func (p *Producer) publish(ctx context.Context, ns ...Notification) int {
	var delivered atomic.Int64
	var wg sync.WaitGroup
	var deliveries []Delivery
	for _, n := range ns {
		for _, sub := range p.matching(n.Topic) {
			deliveries = append(deliveries, Delivery{To: sub.consumer, N: n, Done: func(err error) {
				defer wg.Done()
				if err != nil {
					p.recordFailure(sub.id)
					return
				}
				p.clearFailures(sub.id)
				delivered.Add(1)
			}})
		}
	}
	wg.Add(len(deliveries))
	p.out.Enqueue(ctx, deliveries...)
	wg.Wait()
	return int(delivered.Load())
}

// matching lists the live subscriptions topic satisfies: Matches decides,
// over the ones filed under the topic's root segment and the few Full
// expressions whose first segment is a wildcard.
func (p *Producer) matching(topic string) []subscription {
	root, _, _ := strings.Cut(topic, "/")
	var matched []subscription
	test := func(ids map[string]struct{}) {
		for id := range ids {
			if sub := p.subs[id]; sub.te.Matches(topic) {
				matched = append(matched, sub)
			}
		}
	}
	p.mu.RLock()
	defer p.mu.RUnlock()
	test(p.byRoot[root])
	if root != "*" {
		test(p.byRoot["*"])
	}
	return matched
}

// deliver is the outbox's send: one Notify carrying batch to one consumer.
// The client's chain retries it like any idempotent call.
func (p *Producer) deliver(ctx context.Context, to wsa.EndpointReference, batch []Notification) error {
	return p.client.Notify(ctx, to, ActionNotify, NotifyBody(batch...))
}

func (p *Producer) recordFailure(id string) {
	p.mu.Lock()
	p.failures[id]++
	dead := p.failures[id] >= maxDeliveryFailures
	p.mu.Unlock()
	if dead {
		// DestroyResource triggers the OnDestroy hook, which evicts the
		// cache entry. When it fails the subscription stays charged, so
		// its next failed delivery tries again.
		if err := p.subSvc.DestroyResource(id); err != nil {
			log.Printf("wsn: destroying dead subscription %s: %v", id, err)
		}
	}
}

func (p *Producer) clearFailures(id string) {
	p.mu.Lock()
	delete(p.failures, id)
	p.mu.Unlock()
}

// SubscribeVia performs a wire Subscribe against any producer service
// and returns the subscription EPR — the client-side helper.
func SubscribeVia(ctx context.Context, c *transport.Client, producer wsa.EndpointReference, consumer wsa.EndpointReference, te *TopicExpression) (wsa.EndpointReference, error) {
	body, err := c.Call(ctx, producer, ActionSubscribe, SubscribeRequest(consumer, te))
	if err != nil {
		return wsa.EndpointReference{}, err
	}
	return ParseSubscribeResponse(body)
}
