package wsn

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"uvacg/internal/pipeline"
	"uvacg/internal/soap"
	"uvacg/internal/transport"
	"uvacg/internal/wsa"
	"uvacg/internal/wsrf"
	"uvacg/internal/xmlutil"
)

// Subscription management actions (pause/resume are part of
// WS-BaseNotification's subscription manager).
const (
	ActionPauseSubscription  = NS + "/PauseSubscription"
	ActionResumeSubscription = NS + "/ResumeSubscription"
)

var (
	qSubscription = xmlutil.Q(NS, "Subscription")
	qCreationTime = xmlutil.Q(NS, "CreationTime")
	qPaused       = xmlutil.Q(NS, "Paused")
	qPauseReq     = xmlutil.Q(NS, "PauseSubscription")
	qPauseResp    = xmlutil.Q(NS, "PauseSubscriptionResponse")
	qResumeReq    = xmlutil.Q(NS, "ResumeSubscription")
	qResumeResp   = xmlutil.Q(NS, "ResumeSubscriptionResponse")
)

// maxDeliveryFailures is how many consecutive delivery failures a
// subscription survives before the producer destroys it, so dead
// consumers do not accumulate forever.
const maxDeliveryFailures = 8

type subscription struct {
	id       string
	consumer wsa.EndpointReference
	te       *TopicExpression
	paused   bool
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

	mu    sync.RWMutex
	retry soap.Interceptor // per-consumer delivery retry, nil = single attempt
	subs  map[string]subscription
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
// service restart).
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
	subSvc.Enable(wsrf.LifetimePortType{})

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
	subSvc.RegisterMethod(ActionPauseSubscription, p.handlePause)
	subSvc.RegisterMethod(ActionResumeSubscription, p.handleResume)
	if err := p.recover(); err != nil {
		return nil, err
	}
	owner.RegisterServiceMethod(ActionSubscribe, p.handleSubscribe)
	return p, nil
}

// handlePause suspends delivery to a subscription without destroying it
// (WS-BaseNotification PauseSubscription). The paused flag is itself a
// resource property.
func (p *Producer) handlePause(ctx context.Context, inv *wsrf.Invocation, body *xmlutil.Element) (*xmlutil.Element, error) {
	p.setPaused(inv, true)
	return &xmlutil.Element{Name: qPauseResp}, nil
}

// handleResume re-enables delivery.
func (p *Producer) handleResume(ctx context.Context, inv *wsrf.Invocation, body *xmlutil.Element) (*xmlutil.Element, error) {
	p.setPaused(inv, false)
	return &xmlutil.Element{Name: qResumeResp}, nil
}

func (p *Producer) setPaused(inv *wsrf.Invocation, paused bool) {
	if paused {
		inv.SetProperty(qPaused, "true")
	} else {
		inv.RemoveProperty(qPaused)
	}
	p.mu.Lock()
	if sub, ok := p.subs[inv.ResourceID]; ok {
		sub.paused = paused
		p.subs[inv.ResourceID] = sub
	}
	p.mu.Unlock()
}

// PauseRequest builds the PauseSubscription body.
func PauseRequest() *xmlutil.Element { return &xmlutil.Element{Name: qPauseReq} }

// ResumeRequest builds the ResumeSubscription body.
func ResumeRequest() *xmlutil.Element { return &xmlutil.Element{Name: qResumeReq} }

// MustProducer is NewProducer that panics; for static wiring.
func MustProducer(owner *wsrf.Service, subHome wsrf.ResourceHome, client *transport.Client) *Producer {
	p, err := NewProducer(owner, subHome, client)
	if err != nil {
		panic(err)
	}
	return p
}

// SubscriptionService returns the subscription-manager service to mount
// alongside the owner.
func (p *Producer) SubscriptionService() *wsrf.Service { return p.subSvc }

// recover rebuilds the in-memory subscription cache from the home.
func (p *Producer) recover() error {
	home := p.subSvc.Home()
	for _, id := range home.IDs() {
		doc, err := home.Load(id)
		if err != nil {
			continue
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
	return subscription{id: id, consumer: consumer, te: te, paused: doc.ChildText(qPaused) == "true"}, nil
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
	p.mu.Lock()
	p.index(sub)
	p.mu.Unlock()
	return epr, nil
}

// Unsubscribe destroys a subscription by its resource id.
func (p *Producer) Unsubscribe(id string) error {
	return p.subSvc.DestroyResource(id)
}

// SubscriptionCount reports the live subscription count.
func (p *Producer) SubscriptionCount() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return len(p.subs)
}

// SetDeliveryRetry installs a bounded-backoff retry (pipeline.Retry)
// around each Notify delivery. Notification delivery is
// at-least-once by contract, so re-sending is always safe: whatever
// Idempotent predicate the policy carries (a client chain's excludes
// one-way sends) gives way to one admitting ActionNotify, so a host hands
// its client's policy over as it is. A policy with MaxAttempts < 2
// removes any installed retry.
func (p *Producer) SetDeliveryRetry(policy pipeline.RetryPolicy) {
	policy.Idempotent = pipeline.IdempotentActions(ActionNotify)
	p.mu.Lock()
	if policy.MaxAttempts < 2 {
		p.retry = nil
	} else {
		p.retry = pipeline.Retry(policy)
	}
	p.mu.Unlock()
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
			if sub := p.subs[id]; !sub.paused && sub.te.Matches(topic) {
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

// deliver is the outbox's send: one Notify carrying batch to one consumer,
// through the delivery-retry interceptor when installed. The notify body
// is rebuilt per attempt by the client, so each retry carries fresh
// WS-Addressing headers.
func (p *Producer) deliver(ctx context.Context, to wsa.EndpointReference, batch []Notification) error {
	p.mu.RLock()
	retry := p.retry
	p.mu.RUnlock()
	notify := func(ctx context.Context) error {
		return p.client.Notify(ctx, to, ActionNotify, NotifyBody(batch...))
	}
	if retry == nil {
		return notify(ctx)
	}
	call := &soap.CallInfo{
		Side:   soap.ClientSide,
		Addr:   to.Address,
		Action: ActionNotify,
		OneWay: true,
	}
	_, err := retry(ctx, call, func(ctx context.Context, _ *soap.CallInfo) (*soap.Envelope, error) {
		return nil, notify(ctx)
	})
	return err
}

func (p *Producer) recordFailure(id string) {
	p.mu.Lock()
	p.failures[id]++
	dead := p.failures[id] >= maxDeliveryFailures
	p.mu.Unlock()
	if dead {
		// DestroyResource triggers the OnDestroy hook, which evicts the
		// cache entry.
		_ = p.subSvc.DestroyResource(id)
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
