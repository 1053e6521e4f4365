package wsn

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"uvacg/internal/pipeline"
	"uvacg/internal/resourcedb"
	"uvacg/internal/soap"
	"uvacg/internal/transport"
	"uvacg/internal/wsa"
	"uvacg/internal/wsrf"
)

// wire is a fake send: it records every batch per destination and lets a
// test hold an exchange "on the wire" until it says so.
type wire struct {
	mu      sync.Mutex
	batches map[string][][]string // destination → batches of topics, in send order
	flows   []string              // the request ID each exchange travelled under, in send order
	started chan string           // a destination's exchange began; buffered past what any test that reads it sends
	gates   map[string]chan error // destinations whose exchanges wait for a verdict
}

func newWire(gated ...string) *wire {
	w := &wire{batches: make(map[string][][]string), started: make(chan string, 1024), gates: make(map[string]chan error)}
	for _, dest := range gated {
		w.gates[dest] = make(chan error)
	}
	return w
}

func (w *wire) send(ctx context.Context, to wsa.EndpointReference, batch []Notification) error {
	if err := ctx.Err(); err != nil {
		return err // as transport.Client refuses a cancelled send
	}
	topics := make([]string, len(batch))
	for i, n := range batch {
		topics[i] = n.Topic
	}
	w.mu.Lock()
	w.batches[to.Address] = append(w.batches[to.Address], topics)
	flow, _ := pipeline.RequestIDFrom(ctx)
	w.flows = append(w.flows, flow)
	gate := w.gates[to.Address]
	w.mu.Unlock()
	select {
	case w.started <- to.Address:
	default: // nobody is counting exchanges (TestOutboxLeavesNoGoroutine)
	}
	if gate != nil {
		return <-gate
	}
	return nil
}

func (w *wire) sent(dest string) [][]string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([][]string(nil), w.batches[dest]...)
}

func (w *wire) awaitStart(t *testing.T, dest string) {
	t.Helper()
	select {
	case got := <-w.started:
		if got != dest {
			t.Fatalf("an exchange with %s began, expected %s", got, dest)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("no exchange with %s began", dest)
	}
}

func drained(t *testing.T, o *Outbox) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := o.Drain(ctx); err != nil {
		t.Fatalf("outbox never drained: %v", err)
	}
}

func to(dest string, topic string, done func(error)) Delivery {
	return Delivery{To: wsa.NewEPR(dest), N: Notification{Topic: topic}, Done: done}
}

// TestOutboxOrderAndCoalescing: a message for an idle destination leaves
// alone and at once; what queues while it is on the wire leaves after it
// as one Notify, in order, at most maxBatch messages at a time.
func TestOutboxOrderAndCoalescing(t *testing.T) {
	w := newWire("a")
	o := NewOutbox(w.send)
	ctx := context.Background()

	o.Enqueue(ctx, to("a", "t/0", nil))
	w.awaitStart(t, "a") // at once: nothing else was needed to make it leave
	if got := w.sent("a"); len(got) != 1 || len(got[0]) != 1 {
		t.Fatalf("the idle destination's message left as %v, want alone", got)
	}
	// While that exchange is on the wire, several producers queue more.
	const more = maxBatch + 10
	var wg sync.WaitGroup
	next := make(chan int, more)
	for i := 1; i <= more; i++ {
		next <- i
	}
	close(next)
	var order sync.Mutex // producers race; each queues under it so the expected order is known
	var want []string
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				order.Lock()
				topic := fmt.Sprintf("t/%d", i)
				want = append(want, topic)
				o.Enqueue(ctx, to("a", topic, nil))
				order.Unlock()
			}
		}()
	}
	wg.Wait()
	if got := w.sent("a"); len(got) != 1 {
		t.Fatalf("%d exchanges with one in flight, want 1", len(got))
	}
	w.gates["a"] <- nil
	w.awaitStart(t, "a")
	w.gates["a"] <- nil
	w.awaitStart(t, "a")
	w.gates["a"] <- nil
	drained(t, o)

	got := w.sent("a")
	if len(got) != 3 || len(got[1]) != maxBatch || len(got[2]) != more-maxBatch {
		t.Fatalf("batches of %d, %d, ... (%d exchanges), want 1, %d, %d", len(got[0]), len(got[1]), len(got), maxBatch, more-maxBatch)
	}
	var flat []string
	for _, b := range got[1:] {
		flat = append(flat, b...)
	}
	if fmt.Sprint(flat) != fmt.Sprint(want) {
		t.Fatalf("sent in order %v, queued in order %v", flat, want)
	}
}

// TestOutboxOneCallLeavesTogether: what one Enqueue queues for an idle
// destination is one Notify, per destination.
func TestOutboxOneCallLeavesTogether(t *testing.T) {
	w := newWire()
	o := NewOutbox(w.send)
	o.Enqueue(context.Background(),
		to("a", "j/directory", nil), to("b", "j/directory", nil),
		to("a", "j/started", nil), to("b", "j/started", nil))
	drained(t, o)
	for _, dest := range []string{"a", "b"} {
		if got := fmt.Sprint(w.sent(dest)); got != "[[j/directory j/started]]" {
			t.Fatalf("%s got %s, want both messages in one Notify", dest, got)
		}
	}
}

// TestOutboxBatchContext: a batch travels under the request ID of its first
// message — an envelope has one — and detached from the cancellation of
// the request that queued it.
func TestOutboxBatchContext(t *testing.T) {
	w := newWire("a")
	o := NewOutbox(w.send)
	flow := func(id string) context.Context {
		ctx, cancel := context.WithCancel(pipeline.WithRequestID(context.Background(), id))
		cancel()
		return ctx
	}
	o.Enqueue(flow("set-1"), to("a", "1/0", nil))
	w.awaitStart(t, "a")
	o.Enqueue(flow("set-2"), to("a", "2/1", nil))
	o.Enqueue(flow("set-1"), to("a", "1/1", nil))
	w.gates["a"] <- nil
	w.awaitStart(t, "a")
	w.gates["a"] <- nil
	drained(t, o)
	if got := fmt.Sprint(w.sent("a"), w.flows); got != "[[1/0] [2/1 1/1]] [set-1 set-2]" {
		t.Fatalf("exchanges and their request IDs: %s", got)
	}
}

// TestOutboxBlockedDestinationDelaysNoOther: with a's exchange stuck, b's
// messages keep leaving, and a's wait in its queue.
func TestOutboxBlockedDestinationDelaysNoOther(t *testing.T) {
	w := newWire("a")
	o := NewOutbox(w.send)
	ctx := context.Background()
	o.Enqueue(ctx, to("a", "t/0", nil))
	w.awaitStart(t, "a")
	for i := 0; i < 3; i++ {
		done := make(chan error, 1)
		o.Enqueue(ctx, to("a", fmt.Sprintf("t/%d", i+1), nil), to("b", fmt.Sprintf("t/%d", i), func(err error) { done <- err }))
		w.awaitStart(t, "b")
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("b's delivery waits for a's")
		}
	}
	short, cancel := context.WithTimeout(ctx, 10*time.Millisecond)
	defer cancel()
	if err := o.Drain(short); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Drain with an exchange in flight returned %v", err)
	}
	w.gates["a"] <- nil
	w.awaitStart(t, "a")
	w.gates["a"] <- nil
	drained(t, o)
	if got := fmt.Sprint(w.sent("a")); got != "[[t/0] [t/1 t/2 t/3]]" {
		t.Fatalf("a got %s", got)
	}
}

// TestOutboxLeavesNoGoroutine: senders exist only while there is something
// to send.
func TestOutboxLeavesNoGoroutine(t *testing.T) {
	w := newWire()
	o := NewOutbox(w.send)
	before := runtime.NumGoroutine()
	var wg sync.WaitGroup
	for p := 0; p < 8; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				o.Enqueue(context.Background(), to(fmt.Sprintf("d%d", (p+i)%5), "t", nil))
			}
		}(p)
	}
	wg.Wait()
	drained(t, o)
	o.mu.Lock()
	held := len(o.queues)
	o.mu.Unlock()
	if held != 0 {
		t.Fatalf("%d queues held by an idle outbox", held)
	}
	total := 0
	for d := 0; d < 5; d++ {
		for _, b := range w.sent(fmt.Sprintf("d%d", d)) {
			total += len(b)
		}
	}
	if total != 8*200 {
		t.Fatalf("%d messages sent, 1600 queued", total)
	}
	// A sender deletes its queue and then returns: give the last ones a moment.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines with every queue empty, %d before", runtime.NumGoroutine(), before)
		}
	}
}

// TestBatchFailureChargesEachSubscription: a failed Notify counts against
// the subscription of every message it carried, the eighth consecutive one
// unsubscribes, and a consumer that takes its batches is never charged.
func TestBatchFailureChargesEachSubscription(t *testing.T) {
	h := newDeliveryHarness(t)
	h.subscribe(t, "ok")
	flakyEPR := wsa.NewEPR("inproc://flaky/listener")
	for _, root := range []string{"jobs", "sets"} {
		if _, err := h.producer.Subscribe(flakyEPR, Simple(root)); err != nil {
			t.Fatal(err)
		}
	}
	h.failRemaining.Store(1 << 30)
	ctx := context.Background()

	// Seven rounds of one message for each of the flaky consumer's two
	// subscriptions, published together: one Notify, two charges.
	for i := 0; i < maxDeliveryFailures-1; i++ {
		if got := h.producer.publish(ctx, Notification{Topic: "jobs/j/exited"}, Notification{Topic: "sets/s/done"}); got != 1 {
			t.Fatalf("round %d: %d deliveries succeeded, want the healthy consumer's one", i, got)
		}
	}
	if n := h.producer.SubscriptionCount(); n != 3 {
		t.Fatalf("%d subscriptions after %d failures each, want all 3 kept", n, maxDeliveryFailures-1)
	}
	// The eighth failure on "jobs" alone drops that subscription only.
	h.producer.Publish(ctx, "jobs/j/exited", wsa.EndpointReference{}, nil)
	if n := h.producer.SubscriptionCount(); n != 2 {
		t.Fatalf("%d subscriptions after the eighth failure on one, want 2", n)
	}
	// A success clears the other's count.
	h.failRemaining.Store(0)
	if got := h.producer.Publish(ctx, "sets/s/done", wsa.EndpointReference{}, nil); got != 1 {
		t.Fatalf("recovered consumer took %d deliveries, want 1", got)
	}
	h.producer.mu.RLock()
	charged := len(h.producer.failures)
	h.producer.mu.RUnlock()
	if charged != 0 {
		t.Fatalf("%d subscriptions still charged after a success", charged)
	}
}

// TestBrokerRelaysTogether: a Notify of k messages into the broker reaches
// an idle consumer as one Notify of k, in order — the broker queues every
// message before it waits for any.
func TestBrokerRelaysTogether(t *testing.T) {
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

	// The consumer's server records each Notify as it arrived.
	arrived := make(chan []Notification, 16)
	consumerMux := soap.NewMux()
	NewConsumer().Mount(consumerMux, "/listener")
	srv := transport.NewServer(consumerMux)
	srv.Use(func(ctx context.Context, call *soap.CallInfo, next soap.Handler) (*soap.Envelope, error) {
		if ns, err := ParseNotifyBody(call.Request.Body); err == nil {
			arrived <- ns
		}
		return next(ctx, call)
	})
	network.Register("client", srv)
	if _, err := broker.Producer().Subscribe(wsa.NewEPR("inproc://client/listener"), Simple("set")); err != nil {
		t.Fatal(err)
	}

	const k = 5
	var ns []Notification
	for i := 0; i < k; i++ {
		ns = append(ns, Notification{Topic: fmt.Sprintf("set/job/%d", i)})
	}
	// Request-response, so the relay is over when the call returns.
	if _, err := client.Call(context.Background(), broker.EPR(), ActionNotify, NotifyBody(ns...)); err != nil {
		t.Fatal(err)
	}
	if broker.Relayed() != k {
		t.Fatalf("broker relayed %d, want %d", broker.Relayed(), k)
	}
	select {
	case got := <-arrived:
		if len(got) != k {
			t.Fatalf("the consumer's first Notify carries %d messages, want all %d", len(got), k)
		}
		for i, n := range got {
			if n.Topic != ns[i].Topic {
				t.Fatalf("message %d is %q, want %q", i, n.Topic, ns[i].Topic)
			}
		}
	case <-time.After(5 * time.Second):
		t.Fatal("nothing reached the consumer")
	}
	select {
	case extra := <-arrived:
		t.Fatalf("a second Notify of %d messages reached the consumer", len(extra))
	default:
	}
}

// TestBatchedNotifyAcrossBindings: a Notify carrying three messages — what
// an outbox sends after a busy exchange — arrives over inproc, http and
// soap.tcp as the body that was sent, byte for byte once re-encoded, and
// parses back into the same three notifications in order.
func TestBatchedNotifyAcrossBindings(t *testing.T) {
	job := wsa.NewEPR("http://node-a:8701/ExecutionService").WithProperty(wsrf.QResourceID, "job-7")
	sent := []Notification{
		{Topic: "jobset-1/gen/directory", Producer: job, Message: TextMessage(qEvent, "dir <&> \"quoted\"")},
		{Topic: "jobset-1/gen/started", Producer: job, Message: TextMessage(qEvent, "started")},
		{Topic: "jobset-1/gen/exited", Producer: job},
	}
	want, err := soap.New(NotifyBody(sent...)).Marshal()
	if err != nil {
		t.Fatal(err)
	}

	received := make(chan *soap.Envelope, 1)
	d := soap.NewDispatcher()
	d.Register(ActionNotify, func(_ context.Context, req *soap.Envelope) (*soap.Envelope, error) {
		received <- req
		return nil, nil
	})
	mux := soap.NewMux()
	mux.Handle("/listener", d)
	srv := transport.NewServer(mux)

	network := transport.NewNetwork()
	network.Register("client", srv)
	httpBase, shutdown, err := transport.ListenHTTP(srv, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(context.Background())
	tl, err := transport.ListenTCP(srv, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer tl.Close()
	client := transport.NewClient().WithNetwork(network)

	for _, base := range []string{"inproc://client", httpBase, tl.BaseURL()} {
		if err := client.Notify(context.Background(), wsa.NewEPR(base+"/listener"), ActionNotify, NotifyBody(sent...)); err != nil {
			t.Fatalf("%s: %v", base, err)
		}
		var req *soap.Envelope
		select {
		case req = <-received:
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: the Notify never arrived", base)
		}
		got, err := soap.New(req.Body).Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("%s: body differs\nsent: %s\n got: %s", base, want, got)
		}
		back, err := ParseNotifyBody(req.Body)
		if err != nil || len(back) != len(sent) {
			t.Fatalf("%s: parsed %d notifications, %v", base, len(back), err)
		}
		for i, n := range back {
			if n.Topic != sent[i].Topic || !n.Producer.Equal(job) || n.PayloadText() != sent[i].PayloadText() {
				t.Errorf("%s: message %d = %+v, sent %+v", base, i, n, sent[i])
			}
		}
	}
}
