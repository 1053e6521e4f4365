package wsn

// EXPERIMENTS.md E4, the paper-reproduction rig this package owns.

import (
	"context"
	"fmt"
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

const nsBench = "urn:uvacg:bench"

// notifyHarness is the E4 rig: a producing service, optionally fronted
// by a Notification Broker, and n subscribed consumers. It compares
// push delivery against the polling a WSRF client would otherwise do.
type notifyHarness struct {
	client    *transport.Client
	producer  *Producer
	broker    *Broker // nil when consumers subscribe to the producer directly
	consumers int

	statusRC *wsrf.ResourceClient
	received atomic.Int64
}

// newNotifyHarness wires n consumers to the producer (direct) or to a
// broker the producer publishes through.
func newNotifyHarness(tb testing.TB, consumers int, viaBroker bool) *notifyHarness {
	tb.Helper()
	must := func(err error) {
		tb.Helper()
		if err != nil {
			tb.Fatal(err)
		}
	}
	network := transport.NewNetwork()
	client := transport.NewClient().WithNetwork(network)
	store := resourcedb.NewStore()

	h := &notifyHarness{client: client, consumers: consumers}

	// The producing service also exposes a pollable status resource —
	// the polling baseline reads it with GetResourceProperty.
	owner, err := wsrf.NewService(wsrf.ServiceConfig{
		Path:    "/ES",
		Address: "inproc://producer",
		Home:    wsrf.NewStateHome(store.MustTable("jobs", resourcedb.StructuredCodec{})),
	})
	must(err)
	owner.Enable(wsrf.ResourcePropertiesPortType{})
	statusEPR, err := owner.CreateResource("job-1", xmlutil.NewContainer(xmlutil.Q(nsBench, "JobState"),
		xmlutil.NewElement(xmlutil.Q(nsBench, "Status"), "Running"),
	))
	must(err)
	h.statusRC = wsrf.NewResourceClient(client, statusEPR)

	h.producer, err = NewProducer(owner, wsrf.NewStateHome(store.MustTable("subs", resourcedb.BlobCodec{})), client)
	must(err)

	producerMux := soap.NewMux()
	producerMux.Handle(owner.Path(), owner.Dispatcher())
	producerMux.Handle(h.producer.SubscriptionService().Path(), h.producer.SubscriptionService().Dispatcher())
	network.Register("producer", transport.NewServer(producerMux))

	subscribeTo := h.producer
	if viaBroker {
		h.broker, err = NewBroker("/NB", "inproc://master",
			wsrf.NewStateHome(store.MustTable("broker-subs", resourcedb.BlobCodec{})), client)
		must(err)
		masterMux := soap.NewMux()
		masterMux.Handle(h.broker.Service().Path(), h.broker.Service().Dispatcher())
		masterMux.Handle(h.broker.Producer().SubscriptionService().Path(), h.broker.Producer().SubscriptionService().Dispatcher())
		network.Register("master", transport.NewServer(masterMux))
		subscribeTo = h.broker.Producer()
	}

	for i := 0; i < consumers; i++ {
		cons := NewConsumer()
		cons.Handle(Simple("bench"), func(context.Context, Notification) {
			h.received.Add(1)
		})
		mux := soap.NewMux()
		cons.Mount(mux, "/listener")
		host := fmt.Sprintf("consumer-%d", i)
		network.Register(host, transport.NewServer(mux))
		_, err := subscribeTo.Subscribe(wsa.NewEPR("inproc://"+host+"/listener"), Simple("bench"))
		must(err)
	}
	return h
}

// publishAndWait publishes one event and blocks until every consumer
// has processed it — the end-to-end push path.
func (h *notifyHarness) publishAndWait(ctx context.Context) error {
	start := h.received.Load()
	payload := TextMessage(xmlutil.Q(nsBench, "Event"), "tick")
	if h.broker != nil {
		if err := PublishViaBroker(ctx, h.client, h.broker.EPR(), Notification{Topic: "bench/tick", Message: payload}); err != nil {
			return err
		}
	} else {
		h.producer.Publish(ctx, "bench/tick", wsa.EndpointReference{}, payload)
	}
	deadline := time.Now().Add(10 * time.Second)
	for h.received.Load() < start+int64(h.consumers) {
		if time.Now().After(deadline) {
			return fmt.Errorf("fan-out never completed (%d/%d)", h.received.Load()-start, h.consumers)
		}
		// Busy-spin with a tiny pause: delivery is in-process.
		time.Sleep(time.Microsecond)
	}
	return nil
}

// pollOnce performs one polling-baseline status read: what all n
// consumers would each have to do repeatedly without notification. One
// call's cost × poll rate × consumers is the polling load.
func (h *notifyHarness) pollOnce(ctx context.Context) error {
	_, err := h.statusRC.GetPropertyText(ctx, xmlutil.Q(nsBench, "Status"))
	return err
}

// BenchmarkE4_NotifyVsPoll compares push delivery against the polling a
// client must otherwise do (§5: WS-Notification's value), direct and
// brokered.
func BenchmarkE4_NotifyVsPoll(b *testing.B) {
	ctx := context.Background()
	direct := newNotifyHarness(b, 1, false)
	brokered := newNotifyHarness(b, 1, true)
	b.Run("notify-direct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := direct.publishAndWait(ctx); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("notify-brokered", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := brokered.publishAndWait(ctx); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("poll-GetResourceProperty", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := direct.pollOnce(ctx); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE4_BrokerFanout scales the broker's multicast in subscriber
// count (§4.3: the broker as a multicast mechanism).
func BenchmarkE4_BrokerFanout(b *testing.B) {
	ctx := context.Background()
	for _, n := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("subscribers=%d", n), func(b *testing.B) {
			h := newNotifyHarness(b, n, true)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := h.publishAndWait(ctx); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE4_BurstToOneConsumer is what a job set's dispatch does to the
// broker: 16 events published back to back — 16 publishers, as 16 one-way
// Notifies arriving together have — for one consumer behind a real HTTP
// listener. It reports the socket exchanges the consumer's server answered
// per event, and the time per event until the last handler ran.
func BenchmarkE4_BurstToOneConsumer(b *testing.B) {
	const burst = 16
	ctx := context.Background()
	owner := wsrf.MustService(wsrf.ServiceConfig{Path: "/ES", Address: "inproc://producer"})
	producer := MustProducer(owner,
		wsrf.NewStateHome(resourcedb.NewStore().MustTable("subs", resourcedb.BlobCodec{})), transport.NewClient())

	var handled, exchanges atomic.Int64
	cons := NewConsumer()
	cons.Handle(Simple("bench"), func(context.Context, Notification) { handled.Add(1) })
	mux := soap.NewMux()
	cons.Mount(mux, "/listener")
	srv := transport.NewServer(mux)
	srv.Use(func(ctx context.Context, call *soap.CallInfo, next soap.Handler) (*soap.Envelope, error) {
		exchanges.Add(1)
		return next(ctx, call)
	})
	base, shutdown, err := transport.ListenHTTP(srv, "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer shutdown(ctx)
	if _, err := producer.Subscribe(wsa.NewEPR(base+"/listener"), Simple("bench")); err != nil {
		b.Fatal(err)
	}
	payload := TextMessage(xmlutil.Q(nsBench, "Event"), "tick")

	b.ResetTimer()
	for i := 1; i <= b.N; i++ {
		var wg sync.WaitGroup
		for e := 0; e < burst; e++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				producer.Publish(ctx, "bench/tick", wsa.EndpointReference{}, payload)
			}()
		}
		wg.Wait()
		for deadline := time.Now().Add(10 * time.Second); handled.Load() < int64(i*burst); time.Sleep(time.Microsecond) {
			if time.Now().After(deadline) {
				b.Fatalf("burst %d: %d of %d events handled", i, handled.Load(), i*burst)
			}
		}
	}
	b.StopTimer()
	events := float64(b.N * burst)
	b.ReportMetric(float64(exchanges.Load())/events, "exchanges/event")
	b.ReportMetric(float64(b.Elapsed().Microseconds())/events, "µs/event")
}

// BenchmarkPublishIdleSubscriptions is one publish reaching its one
// subscriber on a producer that also holds 1 000 subscriptions to other
// roots — a master that has run 500 job sets and dropped none of their
// subscriptions. The cost must not depend on the idle ones.
func BenchmarkPublishIdleSubscriptions(b *testing.B) {
	ctx := context.Background()
	for _, idle := range []int{0, 1000} {
		b.Run(fmt.Sprintf("idle=%d", idle), func(b *testing.B) {
			h := newNotifyHarness(b, 1, false)
			for i := 0; i < idle; i++ {
				if _, err := h.producer.Subscribe(wsa.NewEPR("inproc://consumer-0/listener"), Simple(fmt.Sprintf("set-%d", i))); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := h.publishAndWait(ctx); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestNotifyHarnessDeliveryCounts keeps the rig honest: one publish
// reaches each of three consumers exactly once, direct and brokered.
func TestNotifyHarnessDeliveryCounts(t *testing.T) {
	ctx := context.Background()
	for _, viaBroker := range []bool{false, true} {
		h := newNotifyHarness(t, 3, viaBroker)
		if err := h.publishAndWait(ctx); err != nil {
			t.Fatalf("viaBroker=%v: %v", viaBroker, err)
		}
		if got := h.received.Load(); got != 3 {
			t.Fatalf("viaBroker=%v: received %d", viaBroker, got)
		}
		if err := h.pollOnce(ctx); err != nil {
			t.Fatal(err)
		}
	}
}
