package wsn

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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
		Message:  TextMessage(qEvent, "exit code 0"),
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
	if back[0].Topic != n1.Topic || !back[0].Producer.Equal(n1.Producer) || back[0].PayloadText() != "exit code 0" {
		t.Fatalf("notification[0] = %+v", back[0])
	}
	if back[1].Message != nil || back[1].PayloadText() != "" {
		t.Fatalf("empty payload mishandled: %+v", back[1])
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
	producer := MustProducer(owner, wsrf.NewStateHome(store.MustTable("subs", resourcedb.BlobCodec{})), client)

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

	delivered := h.producer.Publish(ctx, "jobset-1/job-1/exited", h.owner.EPR(), TextMessage(qEvent, "code 0"))
	if delivered != 1 {
		t.Fatalf("delivered = %d", delivered)
	}
	n := waitFor(t, events)
	if n.Topic != "jobset-1/job-1/exited" || n.PayloadText() != "code 0" {
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
	if h.producer.SubscriptionCount() != 1 {
		t.Fatalf("count = %d", h.producer.SubscriptionCount())
	}
	// Unsubscribing is destroying the subscription WS-Resource — the
	// WSRF lifetime port type, no bespoke Unsubscribe operation needed.
	rc := wsrf.NewResourceClient(h.client, subEPR)
	if err := rc.Destroy(ctx); err != nil {
		t.Fatal(err)
	}
	if h.producer.SubscriptionCount() != 0 {
		t.Fatalf("count after destroy = %d", h.producer.SubscriptionCount())
	}
	if n := h.producer.Publish(ctx, "jobset-1/x", h.owner.EPR(), nil); n != 0 {
		t.Fatalf("destroyed subscription still delivered (%d)", n)
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
	p1 := MustProducer(owner1, home, client)
	if _, err := p1.Subscribe(wsa.NewEPR("inproc://client/listener"), Simple("jobs")); err != nil {
		t.Fatal(err)
	}

	// A new producer over the same home (service restart) sees the
	// subscription without any client action.
	owner2 := wsrf.MustService(wsrf.ServiceConfig{Path: "/ES2", Address: "inproc://node-a"})
	p2 := MustProducer(owner2, home, client)
	if p2.SubscriptionCount() != 1 {
		t.Fatalf("recovered %d subscriptions", p2.SubscriptionCount())
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
	if h.producer.SubscriptionCount() != 0 {
		t.Fatalf("dead subscription survived %d failures", maxDeliveryFailures)
	}
}

func TestConsumerMultipleHandlersAndDeliver(t *testing.T) {
	c := NewConsumer()
	var got []string
	c.Handle(Simple("a"), func(_ context.Context, n Notification) { got = append(got, "h1:"+n.Topic) })
	c.Handle(MustTopicExpression(DialectFull, "a/*"), func(_ context.Context, n Notification) { got = append(got, "h2:"+n.Topic) })
	c.Handle(Simple("b"), func(_ context.Context, n Notification) { got = append(got, "h3:"+n.Topic) })
	c.Deliver(Notification{Topic: "a/x"})
	if len(got) != 2 || got[0] != "h1:a/x" || got[1] != "h2:a/x" {
		t.Fatalf("handlers fired: %v", got)
	}
}

func TestConsumerChannelOverflowDrops(t *testing.T) {
	c := NewConsumer()
	ch := c.Channel(Simple("t"), 2)
	for i := 0; i < 5; i++ {
		c.Deliver(Notification{Topic: "t", Message: TextMessage(qEvent, fmt.Sprint(i))})
	}
	if len(ch) != 2 {
		t.Fatalf("buffered %d", len(ch))
	}
	first := <-ch
	if first.PayloadText() != "0" {
		t.Fatalf("first buffered = %q", first.PayloadText())
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
	// A publisher registers and notifies the broker once.
	producerEPR := wsa.NewEPR("inproc://node-a/ES")
	if _, err := client.Call(ctx, broker.EPR(), ActionRegisterPublisher, RegisterPublisherRequest(producerEPR)); err != nil {
		t.Fatal(err)
	}
	if pubs := broker.Publishers(); len(pubs) != 1 || !pubs[0].Equal(producerEPR) {
		t.Fatalf("publishers = %v", pubs)
	}
	err = PublishViaBroker(ctx, client, broker.EPR(), Notification{
		Topic:    "jobset-1/job-1/exited",
		Producer: producerEPR,
		Message:  TextMessage(qEvent, "0"),
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
	deadline := time.Now().Add(5 * time.Second)
	for broker.Relayed() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("broker relayed count never incremented")
		}
		time.Sleep(time.Millisecond)
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
			ns = append(ns, Notification{Topic: fmt.Sprintf("set/job-%d/exited", relayed), Producer: broker.EPR(), Message: TextMessage(qEvent, "0")})
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
	if broker.Relayed() != relayed { // and the broker is still alive to have kept something
		t.Fatalf("broker relayed %d, want %d", broker.Relayed(), relayed)
	}
	if grown >= 2<<20 {
		t.Fatalf("relaying %d notifications on distinct topics grew the heap by %d KiB", n, grown>>10)
	}
}

func TestPauseResumeSubscription(t *testing.T) {
	h := newWSNHarness(t)
	ctx := context.Background()
	events := h.consumer.Channel(Simple("jobs"), 16)
	subEPR, err := SubscribeVia(ctx, h.client, h.owner.EPR(), h.consEPR, Simple("jobs"))
	if err != nil {
		t.Fatal(err)
	}

	// Paused: nothing delivered.
	if _, err := h.client.Call(ctx, subEPR, ActionPauseSubscription, PauseRequest()); err != nil {
		t.Fatal(err)
	}
	if n := h.producer.Publish(ctx, "jobs/x", h.owner.EPR(), nil); n != 0 {
		t.Fatalf("paused subscription delivered (%d)", n)
	}
	// Paused is visible as a resource property.
	rc := wsrf.NewResourceClient(h.client, subEPR)
	if got, err := rc.GetPropertyText(ctx, qPaused); err != nil || got != "true" {
		t.Fatalf("Paused property = %q %v", got, err)
	}

	// Resumed: delivery comes back.
	if _, err := h.client.Call(ctx, subEPR, ActionResumeSubscription, ResumeRequest()); err != nil {
		t.Fatal(err)
	}
	if n := h.producer.Publish(ctx, "jobs/y", h.owner.EPR(), TextMessage(qEvent, "back")); n != 1 {
		t.Fatalf("resumed subscription not delivered (%d)", n)
	}
	n := waitFor(t, events)
	if n.PayloadText() != "back" {
		t.Fatalf("got %+v", n)
	}
}

func TestPausedStateSurvivesRestart(t *testing.T) {
	network := transport.NewNetwork()
	client := transport.NewClient().WithNetwork(network)
	store := resourcedb.NewStore()
	home := wsrf.NewStateHome(store.MustTable("subs", resourcedb.BlobCodec{}))

	owner1 := wsrf.MustService(wsrf.ServiceConfig{Path: "/ES", Address: "inproc://node-a"})
	p1 := MustProducer(owner1, home, client)
	subEPR, err := p1.Subscribe(wsa.NewEPR("inproc://client/listener"), Simple("jobs"))
	if err != nil {
		t.Fatal(err)
	}
	mux := soap.NewMux()
	mux.Handle(owner1.Path(), owner1.Dispatcher())
	mux.Handle(p1.SubscriptionService().Path(), p1.SubscriptionService().Dispatcher())
	network.Register("node-a", transport.NewServer(mux))
	ctx := context.Background()
	if _, err := client.Call(ctx, subEPR, ActionPauseSubscription, PauseRequest()); err != nil {
		t.Fatal(err)
	}

	// A restarted producer over the same home sees the pause.
	owner2 := wsrf.MustService(wsrf.ServiceConfig{Path: "/ES2", Address: "inproc://node-a"})
	p2 := MustProducer(owner2, home, client)
	if n := p2.Publish(ctx, "jobs/x", owner2.EPR(), nil); n != 0 {
		t.Fatalf("restart lost the paused flag (%d deliveries)", n)
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
	restarted := MustProducer(owner2, h.producer.SubscriptionService().Home(), h.client)
	again, err := restarted.Subscribe(h.consEPR, Simple("jobset-1"))
	if err != nil || !again.Equal(first) {
		t.Fatalf("after a restart Subscribe returned %v, %v; the recovered subscription is %v", again, err, first)
	}
	for name, p := range map[string]*Producer{"live": h.producer, "restarted": restarted} {
		if n := p.SubscriptionCount(); n != 1 {
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
	if err := h.producer.Unsubscribe(first.Property(wsrf.QResourceID)); err != nil {
		t.Fatal(err)
	}
	fresh, err := h.producer.Subscribe(h.consEPR, Simple("jobset-1"))
	if err != nil || fresh.Equal(first) {
		t.Fatalf("subscribing after an unsubscribe returned %v, %v: want a new subscription", fresh, err)
	}
}
