package wsn

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"uvacg/internal/resourcedb"
	"uvacg/internal/soap"
	"uvacg/internal/transport"
	"uvacg/internal/wsa"
	"uvacg/internal/wsrf"
	"uvacg/internal/xmlutil"
)

var qEvent = xmlutil.Q("urn:uvacg:test", "Event")

func TestNotifyBodyRoundTrip(t *testing.T) {
	n1 := Notification{
		Topic:    "jobset-1/job-2/exited",
		Producer: wsa.NewEPR("inproc://node-a/ES").WithProperty(wsrf.QResourceID, "job-2"),
		Message:  xmlutil.NewElement(qEvent, "exit code 0"),
	}
	n2 := Notification{Topic: "jobset-1/job-3/started"}
	body := NotifyBody(n1, n2)
	back, err := ParseNotifyBody(body)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 {
		t.Fatalf("%d notifications", len(back))
	}
	if back[0].Topic != n1.Topic || !back[0].Producer.Equal(n1.Producer) || back[0].Message.Text != "exit code 0" {
		t.Fatalf("notification[0] = %+v", back[0])
	}
	if back[1].Message != nil {
		t.Fatalf("empty payload mishandled: %+v", back[1])
	}
}

// TestSharedPayloadFansOutUnchanged: a Notify body holds the payload it
// was given, not a copy, so one payload rides every Notify of a fan-out at
// once. Published to eight consumers, then relayed by the broker from one
// Notify, every Notify carries the same bytes, and the payload reads as it
// did before.
func TestSharedPayloadFansOutUnchanged(t *testing.T) {
	const consumers = 8
	network := transport.NewNetwork()
	client := transport.NewClient().WithNetwork(network)
	broker, err := NewBroker("/NB", "inproc://master",
		wsrf.NewStateHome(resourcedb.NewStore().MustTable("subs", resourcedb.BlobCodec{})), client)
	if err != nil {
		t.Fatal(err)
	}
	masterMux := soap.NewMux()
	masterMux.Handle(broker.Service().Path(), broker.Service().Dispatcher())
	network.Register("master", transport.NewServer(masterMux))

	bodies := make(chan string, 2*consumers) // every Notify of both fan-outs
	for i := 0; i < consumers; i++ {
		d := soap.NewDispatcher()
		d.Register(ActionNotify, func(_ context.Context, req *soap.Envelope) (*soap.Envelope, error) {
			data, err := soap.New(req.Body).Marshal()
			if err != nil {
				return nil, err
			}
			bodies <- string(data)
			return nil, nil
		})
		mux := soap.NewMux()
		mux.Handle("/listener", d)
		host := fmt.Sprintf("client-%d", i)
		network.Register(host, transport.NewServer(mux))
		if _, err := broker.Producer().Subscribe(wsa.NewEPR("inproc://"+host+"/listener"), Simple("set")); err != nil {
			t.Fatal(err)
		}
	}

	job := wsa.NewEPR("inproc://node-a/ExecutionService").WithProperty(wsrf.QResourceID, "job-7")
	payload := xmlutil.NewContainer(qEvent,
		xmlutil.NewElement(xmlutil.Q("urn:uvacg:test", "Status"), "exited").SetAttr(xmlutil.Q("", "code"), "0"),
		job.ElementNamed(xmlutil.Q("urn:uvacg:test", "Job")),
	)
	want := payload.Clone()
	ctx := context.Background()
	if n := broker.Producer().Publish(ctx, "set/job/exited", job, payload); n != consumers {
		t.Fatalf("published to %d consumers, want %d", n, consumers)
	}
	if _, err := client.Call(ctx, broker.EPR(), ActionNotify, NotifyBody(Notification{Topic: "set/job/exited", Producer: job, Message: payload})); err != nil {
		t.Fatal(err)
	}
	var first string
	for i := 0; i < 2*consumers; i++ {
		select {
		case got := <-bodies:
			if i == 0 {
				first = got
			} else if got != first {
				t.Errorf("Notify %d differs from the first:\n got: %s\nwant: %s", i, got, first)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%d of %d Notifies arrived", i, 2*consumers)
		}
	}
	if !payload.Equal(want) {
		t.Fatalf("the payload changed as it fanned out:\n got: %s\nwant: %s", payload, want)
	}
}

func TestParseNotifyBodyErrors(t *testing.T) {
	if _, err := ParseNotifyBody(nil); err == nil {
		t.Error("nil body accepted")
	}
	if _, err := ParseNotifyBody(&xmlutil.Element{Name: qNotify}); err == nil {
		t.Error("empty Notify accepted")
	}
	bad := xmlutil.NewContainer(qNotify, xmlutil.NewContainer(qNotificationMessage))
	if _, err := ParseNotifyBody(bad); err == nil {
		t.Error("topicless message accepted")
	}
}

func TestSubscribeMessagesRoundTrip(t *testing.T) {
	consumer := wsa.NewEPR("inproc://client/listener")
	te := Simple("jobset-7")
	gotConsumer, gotTE, err := ParseSubscribeRequest(SubscribeRequest(consumer, te))
	if err != nil {
		t.Fatal(err)
	}
	if !gotConsumer.Equal(consumer) || gotTE.Expr != "jobset-7" {
		t.Fatalf("%v %v", gotConsumer, gotTE)
	}
	sub := wsa.NewEPR("inproc://broker/NB-subscriptions").WithProperty(wsrf.QResourceID, "s1")
	gotSub, err := ParseSubscribeResponse(SubscribeResponseBody(sub))
	if err != nil {
		t.Fatal(err)
	}
	if !gotSub.Equal(sub) {
		t.Fatalf("subscription EPR = %v", gotSub)
	}
	if _, _, err := ParseSubscribeRequest(nil); err == nil {
		t.Error("nil subscribe accepted")
	}
	if _, err := ParseSubscribeResponse(nil); err == nil {
		t.Error("nil response accepted")
	}
}

// wsnHarness hosts a producing service plus a consumer on one network.
type wsnHarness struct {
	network  *transport.Network
	client   *transport.Client
	producer *Producer
	owner    *wsrf.Service
	consumer *Consumer
	consEPR  wsa.EndpointReference
}

func newWSNHarness(t *testing.T) *wsnHarness {
	t.Helper()
	network := transport.NewNetwork()
	client := transport.NewClient().WithNetwork(network)

	store := resourcedb.NewStore()
	owner := wsrf.MustService(wsrf.ServiceConfig{Path: "/ES", Address: "inproc://node-a"})
	producer := mustProducer(owner, wsrf.NewStateHome(store.MustTable("subs", resourcedb.BlobCodec{})), client)

	nodeMux := soap.NewMux()
	nodeMux.Handle(owner.Path(), owner.Dispatcher())
	nodeMux.Handle(producer.SubscriptionService().Path(), producer.SubscriptionService().Dispatcher())
	network.Register("node-a", transport.NewServer(nodeMux))

	consumer := NewConsumer()
	clientMux := soap.NewMux()
	consumer.Mount(clientMux, "/listener")
	network.Register("client", transport.NewServer(clientMux))

	return &wsnHarness{
		network:  network,
		client:   client,
		producer: producer,
		owner:    owner,
		consumer: consumer,
		consEPR:  wsa.NewEPR("inproc://client/listener"),
	}
}

func waitFor(t *testing.T, ch <-chan Notification) Notification {
	t.Helper()
	select {
	case n := <-ch:
		return n
	case <-time.After(5 * time.Second):
		t.Fatal("notification never arrived")
		return Notification{}
	}
}

func TestSubscribePublishEndToEnd(t *testing.T) {
	h := newWSNHarness(t)
	ctx := context.Background()
	events := h.consumer.Channel(Simple("jobset-1"), 16)

	subEPR, err := SubscribeVia(ctx, h.client, h.owner.EPR(), h.consEPR, Simple("jobset-1"))
	if err != nil {
		t.Fatal(err)
	}
	if subEPR.Property(wsrf.QResourceID) == "" {
		t.Fatal("subscription EPR has no resource id")
	}

	delivered := h.producer.Publish(ctx, "jobset-1/job-1/exited", h.owner.EPR(), xmlutil.NewElement(qEvent, "code 0"))
	if delivered != 1 {
		t.Fatalf("delivered = %d", delivered)
	}
	n := waitFor(t, events)
	if n.Topic != "jobset-1/job-1/exited" || n.Message.Text != "code 0" {
		t.Fatalf("got %+v", n)
	}
}

func TestPublishFiltersByTopic(t *testing.T) {
	h := newWSNHarness(t)
	ctx := context.Background()
	if _, err := h.producer.Subscribe(h.consEPR, Simple("jobset-1")); err != nil {
		t.Fatal(err)
	}
	if n := h.producer.Publish(ctx, "jobset-2/job-1/exited", h.owner.EPR(), nil); n != 0 {
		t.Fatalf("foreign topic delivered to %d subscribers", n)
	}
	if n := h.producer.Publish(ctx, "jobset-1/job-1/exited", h.owner.EPR(), nil); n != 1 {
		t.Fatalf("matching topic delivered to %d subscribers", n)
	}
}

func TestUnsubscribeViaResourceDestroy(t *testing.T) {
	h := newWSNHarness(t)
	ctx := context.Background()
	subEPR, err := SubscribeVia(ctx, h.client, h.owner.EPR(), h.consEPR, Simple("jobset-1"))
	if err != nil {
		t.Fatal(err)
	}
	if h.producer.subscriptionCount() != 1 {
		t.Fatalf("count = %d", h.producer.subscriptionCount())
	}
	// Unsubscribing is destroying the subscription WS-Resource — the
	// WSRF lifetime port type, no bespoke Unsubscribe operation needed.
	rc := wsrf.NewResourceClient(h.client, subEPR)
	if err := rc.Destroy(ctx); err != nil {
		t.Fatal(err)
	}
	if h.producer.subscriptionCount() != 0 {
		t.Fatalf("count after destroy = %d", h.producer.subscriptionCount())
	}
	if n := h.producer.Publish(ctx, "jobset-1/x", h.owner.EPR(), nil); n != 0 {
		t.Fatalf("destroyed subscription still delivered (%d)", n)
	}
}

// waitUnsubscribed waits for p's subscriptions to be gone.
func waitUnsubscribed(t *testing.T, p *Producer) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); p.subscriptionCount() != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("a subscription outlived its termination time")
		}
	}
}

// TestSubscriptionExpiresAtItsTerminationTime: a subscription whose
// termination time comes is destroyed, and delivers nothing after.
func TestSubscriptionExpiresAtItsTerminationTime(t *testing.T) {
	h := newWSNHarness(t)
	ctx := context.Background()
	subEPR, err := SubscribeVia(ctx, h.client, h.owner.EPR(), h.consEPR, Simple("jobset-1"))
	if err != nil {
		t.Fatal(err)
	}
	if err := wsrf.NewResourceClient(h.client, subEPR).SetTerminationTime(ctx, time.Now().Add(20*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	waitUnsubscribed(t, h.producer)
	if n := h.producer.Publish(ctx, "jobset-1/x", h.owner.EPR(), nil); n != 0 {
		t.Fatalf("an expired subscription still delivered (%d)", n)
	}
}

// TestSubscriptionExpiredWhileDownIsDestroyedOnStart: a producer started
// over a subscription whose termination time passed while none ran
// destroys it, and keeps no index entry for it.
func TestSubscriptionExpiredWhileDownIsDestroyedOnStart(t *testing.T) {
	client := transport.NewClient().WithNetwork(transport.NewNetwork())
	home := wsrf.NewStateHome(resourcedb.NewStore().MustTable("subs", resourcedb.BlobCodec{}))
	owner := func() *wsrf.Service {
		return wsrf.MustService(wsrf.ServiceConfig{Path: "/NB", Address: "inproc://master"})
	}
	epr, err := mustProducer(owner(), home, client).Subscribe(wsa.NewEPR("inproc://client/listener"), Simple("jobs"))
	if err != nil {
		t.Fatal(err)
	}
	id := epr.Property(wsrf.QResourceID)
	doc, err := home.Load(id)
	if err != nil {
		t.Fatal(err)
	}
	doc.Append(xmlutil.NewElement(wsrf.QTerminationTime, time.Now().Add(-time.Minute).UTC().Format(time.RFC3339Nano)))
	if err := home.Save(id, doc); err != nil {
		t.Fatal(err)
	}

	p := mustProducer(owner(), home, client)
	waitUnsubscribed(t, p)
	if home.Exists(id) {
		t.Fatal("the expired subscription is still stored")
	}
}

func TestSubscriptionPropertiesReadable(t *testing.T) {
	h := newWSNHarness(t)
	ctx := context.Background()
	subEPR, err := SubscribeVia(ctx, h.client, h.owner.EPR(), h.consEPR, Simple("jobset-9"))
	if err != nil {
		t.Fatal(err)
	}
	rc := wsrf.NewResourceClient(h.client, subEPR)
	values, err := rc.GetProperty(ctx, qTopicExpression)
	if err != nil {
		t.Fatal(err)
	}
	if len(values) != 1 || values[0].Text != "jobset-9" {
		t.Fatalf("topic property = %v", values)
	}
}

func TestProducerRecoversSubscriptionsFromHome(t *testing.T) {
	network := transport.NewNetwork()
	client := transport.NewClient().WithNetwork(network)
	store := resourcedb.NewStore()
	home := wsrf.NewStateHome(store.MustTable("subs", resourcedb.BlobCodec{}))

	owner1 := wsrf.MustService(wsrf.ServiceConfig{Path: "/ES", Address: "inproc://node-a"})
	p1 := mustProducer(owner1, home, client)
	if _, err := p1.Subscribe(wsa.NewEPR("inproc://client/listener"), Simple("jobs")); err != nil {
		t.Fatal(err)
	}

	// A new producer over the same home (service restart) sees the
	// subscription without any client action.
	owner2 := wsrf.MustService(wsrf.ServiceConfig{Path: "/ES2", Address: "inproc://node-a"})
	p2 := mustProducer(owner2, home, client)
	if p2.subscriptionCount() != 1 {
		t.Fatalf("recovered %d subscriptions", p2.subscriptionCount())
	}
}

// failingHome fails Load for one id with err; IDs still lists it.
type failingHome struct {
	wsrf.ResourceHome
	bad string
	err error
}

func (h failingHome) Load(id string) (*xmlutil.Element, error) {
	if id == h.bad {
		return nil, h.err
	}
	return h.ResourceHome.Load(id)
}

// TestProducerRefusesAnUnreadableSubscription: a restarted producer that
// cannot read one of its subscriptions — a row journaled under another
// codec — refuses to start, naming it, as it refuses a corrupt one.
// Skipping it would leave its consumer subscribed on the books and deaf
// in fact. A subscription destroyed since IDs listed it is still skipped.
func TestProducerRefusesAnUnreadableSubscription(t *testing.T) {
	client := transport.NewClient().WithNetwork(transport.NewNetwork())
	home := wsrf.NewStateHome(resourcedb.NewStore().MustTable("subs", resourcedb.BlobCodec{}))
	owner := func() *wsrf.Service {
		return wsrf.MustService(wsrf.ServiceConfig{Path: "/NB", Address: "inproc://master"})
	}
	epr, err := mustProducer(owner(), home, client).Subscribe(wsa.NewEPR("inproc://client/listener"), Simple("jobs"))
	if err != nil {
		t.Fatal(err)
	}
	id := epr.Property(wsrf.QResourceID)

	_, err = NewProducer(owner(), failingHome{home, id, fmt.Errorf("row %q does not decode", id)}, client)
	if err == nil || !strings.Contains(err.Error(), id) {
		t.Fatalf("a producer over an unreadable subscription started: %v", err)
	}
	p, err := NewProducer(owner(), failingHome{home, id, fmt.Errorf("%w: %q", wsrf.ErrNoSuchResource, id)}, client)
	if err != nil || p.subscriptionCount() != 0 {
		t.Fatalf("a subscription destroyed since IDs listed it: %v", err)
	}
}

func TestDeadConsumerIsEventuallyUnsubscribed(t *testing.T) {
	h := newWSNHarness(t)
	ctx := context.Background()
	// Subscribe an endpoint on a host that does not exist.
	if _, err := h.producer.Subscribe(wsa.NewEPR("inproc://ghost/listener"), Simple("jobs")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < maxDeliveryFailures; i++ {
		h.producer.Publish(ctx, "jobs/x", h.owner.EPR(), nil)
	}
	if h.producer.subscriptionCount() != 0 {
		t.Fatalf("dead subscription survived %d failures", maxDeliveryFailures)
	}
}

// TestRefusedNotifyChargesItsSubscription: a consumer whose host answers
// but holds no service at its path refuses each Notify with the Sender
// fault. A refusal is a failed delivery: Publish does not count it, and
// the subscription is destroyed after maxDeliveryFailures of them.
func TestRefusedNotifyChargesItsSubscription(t *testing.T) {
	h := newWSNHarness(t)
	ctx := context.Background()
	unmounted := wsa.NewEPR("inproc://client/unmounted")
	err := h.producer.deliver(ctx, unmounted, []Notification{{Topic: "jobs/x", Producer: h.owner.EPR()}})
	if f, ok := soap.AsFault(err); !ok || f.Code != soap.CodeSender {
		t.Fatalf("Notify to an unmounted path: %v, want the Sender fault", err)
	}
	if _, err := h.producer.Subscribe(unmounted, Simple("jobs")); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= maxDeliveryFailures; i++ {
		if n := h.producer.Publish(ctx, "jobs/x", h.owner.EPR(), nil); n != 0 {
			t.Fatalf("publish %d: %d delivered to a path no service holds", i, n)
		}
		want := 1
		if i == maxDeliveryFailures {
			want = 0
		}
		if got := h.producer.subscriptionCount(); got != want {
			t.Fatalf("%d subscriptions after %d refusals, want %d", got, i, want)
		}
	}
}

// deliver hands c one Notify of ns, as its endpoint receives it.
func deliver(t *testing.T, c *Consumer, ns ...Notification) {
	t.Helper()
	call := &soap.CallInfo{Side: soap.ServerSide, Action: ActionNotify, Request: soap.New(NotifyBody(ns...))}
	if _, err := c.dispatcher.DispatchCall(context.Background(), call); err != nil {
		t.Fatal(err)
	}
}

// subscriptionCount reports the live subscription count.
func (p *Producer) subscriptionCount() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return len(p.subs)
}

// mustProducer is NewProducer that panics.
func mustProducer(owner *wsrf.Service, subHome wsrf.ResourceHome, client *transport.Client) *Producer {
	p, err := NewProducer(owner, subHome, client)
	if err != nil {
		panic(err)
	}
	return p
}

func TestConsumerMultipleHandlersAndDeliver(t *testing.T) {
	c := NewConsumer()
	var got []string
	c.Handle(Simple("a"), func(_ context.Context, n Notification) { got = append(got, "h1:"+n.Topic) })
	c.Handle(MustTopicExpression(DialectFull, "a/*"), func(_ context.Context, n Notification) { got = append(got, "h2:"+n.Topic) })
	c.Handle(Simple("b"), func(_ context.Context, n Notification) { got = append(got, "h3:"+n.Topic) })
	deliver(t, c, Notification{Topic: "a/x"})
	if len(got) != 2 || got[0] != "h1:a/x" || got[1] != "h2:a/x" {
		t.Fatalf("handlers fired: %v", got)
	}
}

func TestConsumerChannelOverflowDrops(t *testing.T) {
	c := NewConsumer()
	ch := c.Channel(Simple("t"), 2)
	for i := 0; i < 5; i++ {
		deliver(t, c, Notification{Topic: "t", Message: xmlutil.NewElement(qEvent, fmt.Sprint(i))})
	}
	if len(ch) != 2 {
		t.Fatalf("buffered %d", len(ch))
	}
	first := <-ch
	if first.Message.Text != "0" {
		t.Fatalf("first buffered = %q", first.Message.Text)
	}
}

func TestBrokerFanout(t *testing.T) {
	network := transport.NewNetwork()
	client := transport.NewClient().WithNetwork(network)
	store := resourcedb.NewStore()

	broker, err := NewBroker("/NotificationBroker", "inproc://master", wsrf.NewStateHome(store.MustTable("subs", resourcedb.BlobCodec{})), client)
	if err != nil {
		t.Fatal(err)
	}
	masterMux := soap.NewMux()
	masterMux.Handle(broker.Service().Path(), broker.Service().Dispatcher())
	masterMux.Handle(broker.Producer().SubscriptionService().Path(), broker.Producer().SubscriptionService().Dispatcher())
	network.Register("master", transport.NewServer(masterMux))

	// Two consumers: the Scheduler and the client application, exactly
	// the paper's dual subscription.
	var chans []<-chan Notification
	for i := 0; i < 2; i++ {
		cons := NewConsumer()
		chans = append(chans, cons.Channel(Simple("jobset-1"), 16))
		mux := soap.NewMux()
		cons.Mount(mux, "/listener")
		host := fmt.Sprintf("consumer-%d", i)
		network.Register(host, transport.NewServer(mux))
		ctx := context.Background()
		if _, err := SubscribeVia(ctx, client, broker.EPR(), wsa.NewEPR("inproc://"+host+"/listener"), Simple("jobset-1")); err != nil {
			t.Fatal(err)
		}
	}

	ctx := context.Background()
	// A publisher the broker has never heard of notifies it once.
	producerEPR := wsa.NewEPR("inproc://node-a/ES")
	err = PublishViaBroker(ctx, client, broker.EPR(), Notification{
		Topic:    "jobset-1/job-1/exited",
		Producer: producerEPR,
		Message:  xmlutil.NewElement(qEvent, "0"),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Both consumers see the single event: the broker is the multicast.
	for i, ch := range chans {
		n := waitFor(t, ch)
		if n.Topic != "jobset-1/job-1/exited" {
			t.Fatalf("consumer %d got %+v", i, n)
		}
	}
}

func TestSubscribeRejectsEmptyConsumer(t *testing.T) {
	h := newWSNHarness(t)
	if _, err := h.producer.Subscribe(wsa.EndpointReference{}, Simple("t")); err == nil {
		t.Fatal("empty consumer accepted")
	}
}

// TestBrokerKeepsNothingPerNotification: a broker relays and forgets.
// 20 000 notifications on as many concrete topics, relayed to one
// subscriber and drained, leave the heap where they found it — no last
// message per topic, no entry per notification.
func TestBrokerKeepsNothingPerNotification(t *testing.T) {
	network := transport.NewNetwork()
	client := transport.NewClient().WithNetwork(network)
	broker, err := NewBroker("/NB", "inproc://master",
		wsrf.NewStateHome(resourcedb.NewStore().MustTable("subs", resourcedb.BlobCodec{})), client)
	if err != nil {
		t.Fatal(err)
	}
	mux := soap.NewMux()
	mux.Handle(broker.Service().Path(), broker.Service().Dispatcher())
	network.Register("master", transport.NewServer(mux))
	var received atomic.Int64
	consumer, consumerMux := NewConsumer(), soap.NewMux()
	consumer.Handle(Simple("set"), func(context.Context, Notification) { received.Add(1) })
	consumer.Mount(consumerMux, "/listener")
	network.Register("client", transport.NewServer(consumerMux))
	if _, err := broker.Producer().Subscribe(wsa.NewEPR("inproc://client/listener"), Simple("set")); err != nil {
		t.Fatal(err)
	}

	const batch, n = 100, 20000
	relayed := 0
	relay := func(k int) { // request-response: the relay is over when the call returns
		ns := make([]Notification, 0, k)
		for ; k > 0; k-- {
			relayed++
			ns = append(ns, Notification{Topic: fmt.Sprintf("set/job-%d/exited", relayed), Producer: broker.EPR(), Message: xmlutil.NewElement(qEvent, "0")})
		}
		if _, err := client.Call(context.Background(), broker.EPR(), ActionNotify, NotifyBody(ns...)); err != nil {
			t.Fatal(err)
		}
	}
	heap := func() int64 {
		for deadline := time.Now().Add(10 * time.Second); received.Load() < int64(relayed); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("the subscriber received %d of %d", received.Load(), relayed)
			}
		}
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	relay(batch) // warm pools and the subscriber's outbox queue
	before := heap()
	for i := 0; i < n; i += batch {
		relay(batch)
	}
	grown := heap() - before
	runtime.KeepAlive(broker) // alive through the second reading, so whatever it kept counts
	if grown >= 2<<20 {
		t.Fatalf("relaying %d notifications on distinct topics grew the heap by %d KiB", n, grown>>10)
	}
}

// TestSubscribeIsIdempotent: the same (consumer, dialect, expression) asked
// for again — concurrently, or by a subscriber that restarted beside the
// producer's durable subscriptions — is the subscription it already has,
// and an event reaches that consumer once. A different expression, or the
// same one after an unsubscribe, is a new subscription.
func TestSubscribeIsIdempotent(t *testing.T) {
	h := newWSNHarness(t)
	ctx := context.Background()
	events := h.consumer.Channel(Simple("jobset-1"), 16)

	first, err := SubscribeVia(ctx, h.client, h.owner.EPR(), h.consEPR, Simple("jobset-1"))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			again, err := SubscribeVia(ctx, h.client, h.owner.EPR(), h.consEPR, Simple("jobset-1"))
			if err != nil || !again.Equal(first) {
				t.Errorf("asking again returned %v, %v; the subscription is %v", again, err, first)
			}
		}()
	}
	wg.Wait()

	// The producer restarts over the same home; the subscriber asks again.
	owner2 := wsrf.MustService(wsrf.ServiceConfig{Path: "/ES", Address: "inproc://node-a"})
	restarted := mustProducer(owner2, h.producer.SubscriptionService().Home(), h.client)
	again, err := restarted.Subscribe(h.consEPR, Simple("jobset-1"))
	if err != nil || !again.Equal(first) {
		t.Fatalf("after a restart Subscribe returned %v, %v; the recovered subscription is %v", again, err, first)
	}
	for name, p := range map[string]*Producer{"live": h.producer, "restarted": restarted} {
		if n := p.subscriptionCount(); n != 1 {
			t.Fatalf("%s producer holds %d subscriptions, want 1", name, n)
		}
		if n := p.Publish(ctx, "jobset-1/job/exited", h.owner.EPR(), nil); n != 1 {
			t.Fatalf("%s producer delivered the event %d times, want once", name, n)
		}
		waitFor(t, events)
	}
	select {
	case n := <-events:
		t.Fatalf("a second copy of %q arrived", n.Topic)
	case <-time.After(20 * time.Millisecond):
	}

	other, err := h.producer.Subscribe(h.consEPR, MustTopicExpression(DialectConcrete, "jobset-1"))
	if err != nil || other.Equal(first) {
		t.Fatalf("another dialect returned %v, %v: not its own subscription", other, err)
	}
	if err := h.producer.subSvc.DestroyResource(first.Property(wsrf.QResourceID)); err != nil {
		t.Fatal(err)
	}
	fresh, err := h.producer.Subscribe(h.consEPR, Simple("jobset-1"))
	if err != nil || fresh.Equal(first) {
		t.Fatalf("subscribing after an unsubscribe returned %v, %v: want a new subscription", fresh, err)
	}
}

// pointsInto reports whether s is a view of buf's bytes.
func pointsInto(s string, buf []byte) bool {
	if s == "" || len(buf) == 0 {
		return false
	}
	p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(buf)))
	return p >= lo && p < lo+uintptr(len(buf))
}

// TestSubscribeKeepsCopies: a subscription outlives the Subscribe message
// its consumer EPR and topic expression were read from; the producer's
// index keeps copies of them, which point into none of its bytes.
func TestSubscribeKeepsCopies(t *testing.T) {
	h := newWSNHarness(t)
	consumer := h.consEPR.WithProperty(wsrf.QResourceID, "listener-1")
	data, err := xmlutil.MarshalElement(SubscribeRequest(consumer, MustTopicExpression(DialectFull, "jobset-1/*/exited")))
	if err != nil {
		t.Fatal(err)
	}
	body, err := xmlutil.UnmarshalElement(data)
	if err != nil {
		t.Fatal(err)
	}
	gotConsumer, te, err := ParseSubscribeRequest(body)
	if err != nil {
		t.Fatal(err)
	}
	if !pointsInto(te.Expr, data) {
		t.Fatal("the parsed expression is a copy already: the test reads nothing")
	}
	if _, err := h.producer.Subscribe(gotConsumer, te); err != nil {
		t.Fatal(err)
	}
	h.producer.mu.RLock()
	defer h.producer.mu.RUnlock()
	for _, sub := range h.producer.subs {
		if !sub.consumer.Equal(consumer) || sub.te.Dialect != DialectFull || sub.te.Expr != "jobset-1/*/exited" {
			t.Fatalf("kept %v on %s %q", sub.consumer, sub.te.Dialect, sub.te.Expr)
		}
		kept := append([]string{sub.consumer.Address, sub.te.Dialect, sub.te.Expr}, sub.te.segs...)
		for _, p := range sub.consumer.ReferenceProperties {
			kept = append(kept, p.Name.Space, p.Name.Local, p.Value)
		}
		for root := range h.producer.byRoot {
			kept = append(kept, root)
		}
		for _, s := range kept {
			if pointsInto(s, data) {
				t.Errorf("the subscription keeps %q as a view of the message", s)
			}
		}
	}
}
