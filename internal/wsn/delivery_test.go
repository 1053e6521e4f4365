package wsn

import (
	"context"
	"errors"
	"log"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"uvacg/internal/pipeline"
	"uvacg/internal/resourcedb"
	"uvacg/internal/soap"
	"uvacg/internal/transport"
	"uvacg/internal/wsa"
	"uvacg/internal/wsrf"
)

// deliveryHarness is a producer plus two consumer hosts, with the
// client's transports wrapped in fault injection: deliveries to the
// "flaky" host fail while failRemaining is positive. The client retries
// Notify, as every grid host's chain does.
type deliveryHarness struct {
	producer      *Producer
	okEvents      <-chan Notification
	flakyEvents   <-chan Notification
	failRemaining atomic.Int64
}

func newDeliveryHarness(t *testing.T) *deliveryHarness {
	t.Helper()
	h := &deliveryHarness{}
	network := transport.NewNetwork()
	client := transport.NewClient().WithNetwork(network)
	client.Use(pipeline.Retry(pipeline.RetryPolicy{Idempotent: pipeline.IdempotentActions(ActionNotify)}))
	client.WrapSchemes(func(_ string, rt transport.RoundTripper) transport.RoundTripper {
		return transport.WrapFaults(rt, func(op transport.FaultOp, addr string) transport.FaultDecision {
			if strings.Contains(addr, "flaky") && h.failRemaining.Add(-1) >= 0 {
				return transport.FaultDecision{Err: errors.New("injected delivery failure")}
			}
			return transport.FaultDecision{}
		})
	})

	store := resourcedb.NewStore()
	owner := wsrf.MustService(wsrf.ServiceConfig{Path: "/ES", Address: "inproc://node-a"})
	h.producer = mustProducer(owner, wsrf.NewStateHome(store.MustTable("subs", resourcedb.BlobCodec{})), client)
	nodeMux := soap.NewMux()
	nodeMux.Handle(owner.Path(), owner.Dispatcher())
	nodeMux.Handle(h.producer.SubscriptionService().Path(), h.producer.SubscriptionService().Dispatcher())
	network.Register("node-a", transport.NewServer(nodeMux))

	for _, host := range []string{"ok", "flaky"} {
		consumer := NewConsumer()
		ch := consumer.Channel(MustTopicExpression(DialectFull, "*//"), 64)
		mux := soap.NewMux()
		consumer.Mount(mux, "/listener")
		network.Register(host, transport.NewServer(mux))
		if host == "ok" {
			h.okEvents = ch
		} else {
			h.flakyEvents = ch
		}
	}
	return h
}

func (h *deliveryHarness) subscribe(t *testing.T, host string) {
	t.Helper()
	if _, err := h.producer.Subscribe(wsa.NewEPR("inproc://"+host+"/listener"), Simple("jobs")); err != nil {
		t.Fatal(err)
	}
}

// TestNotifyRetryRecoversTransientConsumer: a consumer whose first two
// deliveries fail still receives the notification from the third, within
// one Publish, because every producer re-sends a Notify under the one
// retry.
func TestNotifyRetryRecoversTransientConsumer(t *testing.T) {
	h := newDeliveryHarness(t)
	h.subscribe(t, "flaky")
	h.failRemaining.Store(2)

	if got := h.producer.Publish(context.Background(), "jobs/j1/exited", wsa.EndpointReference{}, nil); got != 1 {
		t.Fatalf("Publish delivered %d, want 1", got)
	}
	select {
	case n := <-h.flakyEvents:
		if n.Topic != "jobs/j1/exited" {
			t.Fatalf("delivered topic %q", n.Topic)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("transiently failing consumer never received the notification")
	}
	if left := h.failRemaining.Load(); left != -1 {
		t.Fatalf("the Notify crossed the wire %d time(s), want 3", 2-left)
	}
	if n := h.producer.subscriptionCount(); n != 1 {
		t.Fatalf("subscription count %d after recovered delivery", n)
	}
}

// TestNotifyRetryDropsPermanentConsumer: a permanently failing
// consumer exhausts its retries on every publish and is eventually
// unsubscribed, while a healthy consumer — notified concurrently —
// receives every notification; the broker/producer never wedges.
func TestNotifyRetryDropsPermanentConsumer(t *testing.T) {
	h := newDeliveryHarness(t)
	h.subscribe(t, "ok")
	h.subscribe(t, "flaky")
	h.failRemaining.Store(1 << 30) // permanent

	const publishes = maxDeliveryFailures + 2
	for i := 0; i < publishes; i++ {
		if got := h.producer.Publish(context.Background(), "jobs/j1/exited", wsa.EndpointReference{}, nil); got != 1 {
			t.Fatalf("publish %d delivered to %d consumers, want 1 (healthy only)", i, got)
		}
	}
	for i := 0; i < publishes; i++ {
		select {
		case <-h.okEvents:
		case <-time.After(5 * time.Second):
			t.Fatalf("healthy consumer missed notification %d", i)
		}
	}
	if n := h.producer.subscriptionCount(); n != 1 {
		t.Fatalf("subscription count %d, want 1: dead consumer not dropped", n)
	}
}

// flakyHome is a subscription home whose Destroy fails while failDestroy
// is positive: the removal did not reach the journal.
type flakyHome struct {
	wsrf.ResourceHome
	failDestroy atomic.Int64
}

func (h *flakyHome) Destroy(id string) error {
	if h.failDestroy.Add(-1) >= 0 {
		return errors.New("injected journal failure")
	}
	return h.ResourceHome.Destroy(id)
}

// lockedLog collects what the log package writes, from any goroutine.
type lockedLog struct {
	mu  sync.Mutex
	buf strings.Builder
}

func (l *lockedLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.Write(p)
}

func (l *lockedLog) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.String()
}

// TestFailedDestroyOfDeadSubscriptionIsLogged: when the removal of a dead
// subscription fails, the producer logs the error once, naming the
// subscription, and the next failed delivery removes it.
func TestFailedDestroyOfDeadSubscriptionIsLogged(t *testing.T) {
	logged := new(lockedLog)
	defer log.SetOutput(log.Writer())
	log.SetOutput(logged)

	home := &flakyHome{ResourceHome: wsrf.NewStateHome(resourcedb.NewStore().MustTable("subs", resourcedb.BlobCodec{}))}
	home.failDestroy.Store(1)
	owner := wsrf.MustService(wsrf.ServiceConfig{Path: "/ES", Address: "inproc://node-a"})
	p := mustProducer(owner, home, transport.NewClient().WithNetwork(transport.NewNetwork()))
	sub, err := p.Subscribe(wsa.NewEPR("inproc://ghost/listener"), Simple("jobs"))
	if err != nil {
		t.Fatal(err)
	}
	id := sub.Property(wsrf.QResourceID)
	ctx := context.Background()
	for i := 0; i < maxDeliveryFailures; i++ {
		p.Publish(ctx, "jobs/x", owner.EPR(), nil)
	}
	if n := p.subscriptionCount(); n != 1 {
		t.Fatalf("%d subscriptions after a failed destroy, want the dead one still held", n)
	}
	if got := logged.String(); strings.Count(got, id) != 1 || !strings.Contains(got, "injected journal failure") {
		t.Fatalf("log %q: want one line naming subscription %s and the error", got, id)
	}
	p.Publish(ctx, "jobs/x", owner.EPR(), nil)
	if n := p.subscriptionCount(); n != 0 || home.Exists(id) {
		t.Fatalf("%d subscriptions (stored: %v) after the next failed delivery, want none", n, home.Exists(id))
	}
}
