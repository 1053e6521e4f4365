package transport_test

// The co-located route is the wire minus the socket: these tests hold it
// to what an HTTP exchange with the same server carries, checks and
// hides. (The across-bindings context tests run on it too, through the
// "colocated" fixture of allBindings.)

import (
	"context"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"uvacg/internal/pipeline"
	"uvacg/internal/soap"
	"uvacg/internal/transport"
	"uvacg/internal/wsa"
	"uvacg/internal/wsrf"
	"uvacg/internal/xmlutil"
)

const nsC = "urn:uvacg:test:colocated"

var (
	qAsk    = xmlutil.Q(nsC, "Ask")
	qAnswer = xmlutil.Q(nsC, "Answer")
	qJob    = xmlutil.Q(nsC, "JobID")
)

// listen serves srv over HTTP and returns its base URL, a client that
// holds the route to it and a client that does not.
func listen(t *testing.T, srv *transport.Server) (base string, routed, dialled *transport.Client) {
	t.Helper()
	base, shutdown, err := transport.ListenHTTP(srv, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		shutdown(ctx)
	})
	routed, dialled = transport.NewClient(), transport.NewClient()
	routed.Colocate(srv, base)
	return base, routed, dialled
}

// TestColocatedCarriesTheSameEnvelope: a recording handler receives the
// same request over HTTP and over the route — To, Action, RequestID and
// Deadline headers, reference properties, body; byte for byte once
// re-encoded, the per-message MessageID aside — and the caller gets the
// same reply, RelatesTo, *soap.Fault and unknown-path fault.
func TestColocatedCarriesTheSameEnvelope(t *testing.T) {
	received := make(chan *soap.Envelope, 1)
	d := soap.NewDispatcher()
	d.Register("urn:Ask", func(ctx context.Context, req *soap.Envelope) (*soap.Envelope, error) {
		received <- req.Clone()
		return soap.New(xmlutil.NewElement(qAnswer, "re: "+req.Body.Text)), nil
	})
	d.Register("urn:Fail", func(ctx context.Context, req *soap.Envelope) (*soap.Envelope, error) {
		return nil, soap.SenderFault("no such job %s", req.Body.Text)
	})
	mux := soap.NewMux()
	mux.Handle("/Rec", d)
	srv := transport.NewServer(mux)
	srv.Use(pipeline.ServerRequestID(), pipeline.ServerDeadline())
	base, routed, dialled := listen(t, srv)

	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(time.Minute))
	defer cancel()
	ctx = pipeline.WithRequestID(ctx, "urn:uuid:one-flow")
	to := wsa.NewEPR(base+"/Rec").WithProperty(qJob, "job-17")

	type exchange struct {
		request, reply []byte
		relatesTo      string
		fault, unknown *soap.Fault
	}
	run := func(c *transport.Client) exchange {
		t.Helper()
		c.Use(pipeline.ClientRequestID(), pipeline.ClientDeadline())
		resp, err := c.Invoke(ctx, to, "urn:Ask", soap.New(xmlutil.NewElement(qAsk, "status?")))
		if err != nil {
			t.Fatal(err)
		}
		req := <-received
		info, err := wsa.Extract(req)
		if err != nil {
			t.Fatal(err)
		}
		if info.To.Address != to.Address || info.Action != "urn:Ask" || info.To.Property(qJob) != "job-17" || info.MessageID == "" {
			t.Fatalf("addressing headers as received: %+v", info)
		}
		var x exchange
		x.relatesTo = blank(resp, "RelatesTo")
		if x.relatesTo != blank(req, "MessageID") {
			t.Fatalf("reply relates to %q, request was %q", x.relatesTo, info.MessageID)
		}
		blank(resp, "MessageID")
		if x.request, err = req.Marshal(); err != nil {
			t.Fatal(err)
		}
		if x.reply, err = resp.Marshal(); err != nil {
			t.Fatal(err)
		}
		for _, want := range []string{"urn:uuid:one-flow", "Deadline", "job-17", "status?"} {
			if !strings.Contains(string(x.request), want) {
				t.Fatalf("request as received lacks %q: %s", want, x.request)
			}
		}
		_, err = c.Call(ctx, to, "urn:Fail", xmlutil.NewElement(qAsk, "job-9"))
		if x.fault, _ = soap.AsFault(err); x.fault == nil {
			t.Fatalf("want a *soap.Fault, got %v", err)
		}
		_, err = c.Call(ctx, wsa.NewEPR(base+"/Absent"), "urn:Ask", xmlutil.NewElement(qAsk, ""))
		if x.unknown, _ = soap.AsFault(err); x.unknown == nil {
			t.Fatalf("want a *soap.Fault for an unknown path, got %v", err)
		}
		return x
	}
	wire, route := run(dialled), run(routed)
	if string(wire.request) != string(route.request) {
		t.Errorf("request envelopes differ:\n http: %s\nroute: %s", wire.request, route.request)
	}
	if string(wire.reply) != string(route.reply) {
		t.Errorf("reply envelopes differ:\n http: %s\nroute: %s", wire.reply, route.reply)
	}
	if wire.relatesTo == route.relatesTo {
		t.Errorf("both exchanges carried MessageID %q", wire.relatesTo)
	}
	for name, pair := range map[string][2]*soap.Fault{"handler": {wire.fault, route.fault}, "unknown path": {wire.unknown, route.unknown}} {
		if pair[0].Code != pair[1].Code || pair[0].Reason != pair[1].Reason {
			t.Errorf("%s fault differs: http %v, route %v", name, pair[0], pair[1])
		}
	}
	if wire.fault.Code != soap.CodeSender || wire.fault.Reason != "no such job job-9" || !strings.Contains(wire.unknown.Reason, `no service at "/Absent"`) {
		t.Errorf("faults: %v / %v", wire.fault, wire.unknown)
	}
}

// blank empties the WS-Addressing header named local and returns what it
// held.
func blank(env *soap.Envelope, local string) string {
	h := env.Header(xmlutil.Q(wsa.NS, local))
	if h == nil {
		return ""
	}
	was := h.Text
	h.Text = ""
	return was
}

// TestColocatedRefusesOversizedEnvelopes: the envelope bound a reader on a
// socket enforces holds on the route too, in both directions. The socket
// rows are the port reached over http:// (which learns the port's frames
// from its first answer) and over soap.tcp://: a frame is held to the
// bound HTTP holds a body to. A listener answers a reply no frame may
// carry with a Receiver fault that names the bound, so the connection
// is not dropped before its answer and the request not sent again.
func TestColocatedRefusesOversizedEnvelopes(t *testing.T) {
	var handled atomic.Int64
	d := soap.NewDispatcher()
	d.Register("urn:Grow", func(ctx context.Context, req *soap.Envelope) (*soap.Envelope, error) {
		handled.Add(1)
		return soap.New(xmlutil.NewElement(qAnswer, strings.Repeat("y", 8<<10))), nil
	})
	mux := soap.NewMux()
	mux.Handle("/Big", d)
	base, routed, dialled := listen(t, transport.NewServer(mux))
	defer transport.SetMaxEnvelope(4 << 10)()

	ctx := context.Background()
	tcpBase := transport.SchemeTCP + "://" + strings.TrimPrefix(base, "http://")
	for name, c := range map[string]*transport.Client{"http": dialled, "route": routed, "soap.tcp": transport.NewClient()} {
		base := base
		if name == "soap.tcp" {
			base = tcpBase
		}
		// Reply over the bound: the handler runs, the caller is refused.
		_, err := c.Call(ctx, wsa.NewEPR(base+"/Big"), "urn:Grow", xmlutil.NewElement(qAsk, "small"))
		if name == "soap.tcp" {
			if f, _ := soap.AsFault(err); f == nil || f.Code != soap.CodeReceiver || !strings.Contains(f.Reason, soap.ErrEnvelopeTooLarge.Error()) {
				t.Errorf("%s: oversized reply: want a Receiver fault naming the bound, got %v", name, err)
			}
		} else if !errors.Is(err, soap.ErrEnvelopeTooLarge) {
			t.Errorf("%s: oversized reply: want ErrEnvelopeTooLarge, got %v", name, err)
		}
		// Request over the bound: refused before any handler.
		before := handled.Load()
		_, err = c.Call(ctx, wsa.NewEPR(base+"/Big"), "urn:Grow", xmlutil.NewElement(qAsk, strings.Repeat("x", 8<<10)))
		if err == nil || handled.Load() != before {
			t.Errorf("%s: oversized request: err %v, handler ran %d time(s)", name, err, handled.Load()-before)
		}
		if err := c.Notify(ctx, wsa.NewEPR(base+"/Big"), "urn:Grow", xmlutil.NewElement(qAsk, strings.Repeat("x", 8<<10))); err == nil {
			t.Errorf("%s: oversized one-way accepted", name)
		}
	}
	if _, err := routed.Call(ctx, wsa.NewEPR(base+"/Big"), "urn:Grow", xmlutil.NewElement(qAsk, strings.Repeat("x", 8<<10))); !errors.Is(err, soap.ErrEnvelopeTooLarge) {
		t.Errorf("route: oversized request: want ErrEnvelopeTooLarge, got %v", err)
	}
}

type ctxKey struct{}

// TestColocatedCalleeSeesWhatASocketCarries: a handler that holds a
// request ID and a value of its own on its context calls a neighbour on
// the same server over
// the route, as the ES calls its FSS. The neighbour sees none of them —
// no wire carries a context — but does see the caller's cancellation;
// and a one-way callee outlives it.
func TestColocatedCalleeSeesWhatASocketCarries(t *testing.T) {
	type seen struct {
		requestID, value bool
		to               string
	}
	observed := make(chan seen, 1)
	cancelled := make(chan error, 1)
	entered := make(chan struct{}, 1)
	oneWayDone := make(chan error, 1)
	release := make(chan struct{})

	look := func(ctx context.Context) seen {
		var s seen
		_, s.requestID = pipeline.RequestIDFrom(ctx)
		s.value = ctx.Value(ctxKey{}) != nil
		info, _ := wsa.FromContext(ctx)
		s.to = info.To.Address
		return s
	}
	callee := soap.NewDispatcher()
	callee.Register("urn:Look", func(ctx context.Context, req *soap.Envelope) (*soap.Envelope, error) {
		observed <- look(ctx)
		return nil, nil
	})
	callee.Register("urn:WaitForCancel", func(ctx context.Context, req *soap.Envelope) (*soap.Envelope, error) {
		entered <- struct{}{}
		select {
		case <-ctx.Done():
			cancelled <- ctx.Err()
		case <-time.After(5 * time.Second):
			cancelled <- nil
		}
		return nil, nil
	})
	callee.Register("urn:OneWay", func(ctx context.Context, req *soap.Envelope) (*soap.Envelope, error) {
		entered <- struct{}{}
		<-release
		oneWayDone <- ctx.Err()
		return nil, nil
	})

	mux := soap.NewMux()
	srv := transport.NewServer(mux)
	base, routed, _ := listen(t, srv)
	routed.Use(pipeline.ClientRequestID())
	neighbour := wsa.NewEPR(base + "/Callee")

	// The caller: a WSRF service method, reached over the route as well,
	// that calls its neighbour from inside its own invocation.
	outerSaw := make(chan seen, 1)
	caller := wsrf.MustService(wsrf.ServiceConfig{Path: "/Caller", Address: base})
	caller.RegisterServiceMethod("urn:Outer", func(ctx context.Context, inv *wsrf.Invocation, body *xmlutil.Element) (*xmlutil.Element, error) {
		ctx = context.WithValue(ctx, ctxKey{}, "the caller's own")
		outerSaw <- look(ctx)
		_, err := routed.Call(ctx, neighbour, "urn:Look", xmlutil.NewElement(qAsk, ""))
		return nil, err
	})
	mux.Handle("/Caller", caller.Dispatcher())
	mux.Handle("/Callee", callee)
	srv.Use(pipeline.ServerRequestID())

	if _, err := routed.Call(context.Background(), caller.EPR(), "urn:Outer", xmlutil.NewElement(qAsk, "")); err != nil {
		t.Fatal(err)
	}
	if got := <-outerSaw; !got.requestID || !got.value {
		t.Fatalf("the caller's own context lacks what the test means to hide: %+v", got)
	}
	// The request ID is the one thing that crosses, and it crosses in the
	// header ClientRequestID stamps and ServerRequestID lifts.
	if got := <-observed; got.value || !got.requestID || got.to != neighbour.Address {
		t.Fatalf("callee context: %+v; want only the header-borne request ID and its own addressing", got)
	}
	// Without the header there is no request ID either.
	bare := transport.NewClient()
	bare.Colocate(srv, base)
	if _, err := bare.Call(pipeline.WithRequestID(context.Background(), "urn:uuid:ctx-only"), neighbour, "urn:Look", xmlutil.NewElement(qAsk, "")); err != nil {
		t.Fatal(err)
	}
	if got := <-observed; got.requestID {
		t.Fatal("a request ID reached the callee without a header to carry it")
	}

	// Cancellation is visible to a request-response callee…
	ctx, cancel := context.WithCancel(context.Background())
	go routed.Call(ctx, neighbour, "urn:WaitForCancel", xmlutil.NewElement(qAsk, ""))
	<-entered
	cancel()
	if err := <-cancelled; !errors.Is(err, context.Canceled) {
		t.Fatalf("callee saw %v when its caller cancelled", err)
	}
	// …and not to a one-way callee, which the caller has already left.
	ctx, cancel = context.WithCancel(context.Background())
	if err := routed.Notify(ctx, neighbour, "urn:OneWay", xmlutil.NewElement(qAsk, "")); err != nil {
		t.Fatal(err)
	}
	<-entered
	cancel()
	close(release)
	if err := <-oneWayDone; err != nil {
		t.Fatalf("one-way callee's context ended with its caller's: %v", err)
	}
}

// TestColocatedRouteIsPerClient: the route belongs to the client it was
// given to. A second transport.NewClient() in the same process still
// reaches the listener through a socket — which is what the bench
// ledger's http_rtt row, TestHTTPBinding and the E-series rigs build one
// for — and after remove so does the first.
func TestColocatedRouteIsPerClient(t *testing.T) {
	d := soap.NewDispatcher()
	d.Register("urn:Ask", func(ctx context.Context, req *soap.Envelope) (*soap.Envelope, error) {
		return soap.New(xmlutil.NewElement(qAnswer, "ok")), nil
	})
	mux := soap.NewMux()
	mux.Handle("/Svc", d)
	srv := transport.NewServer(mux)
	var accepts atomic.Int64
	hs := httptest.NewUnstartedServer(transport.NewHTTPHandler(srv))
	hs.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			accepts.Add(1)
		}
	}
	hs.Start()
	defer hs.Close()

	ctx := context.Background()
	ask := func(c *transport.Client) {
		t.Helper()
		for i := 0; i < 5; i++ {
			body, err := c.Call(ctx, wsa.NewEPR(hs.URL+"/Svc"), "urn:Ask", xmlutil.NewElement(qAsk, ""))
			if err != nil || body.Text != "ok" {
				t.Fatalf("call %d: %v %v", i, body, err)
			}
		}
	}
	routed := transport.NewClient()
	remove := routed.Colocate(srv, hs.URL)
	ask(routed)
	if n := accepts.Load(); n != 0 {
		t.Fatalf("the routed client opened %d connection(s) to its own process", n)
	}
	ask(transport.NewClient())
	if n := accepts.Load(); n == 0 {
		t.Fatal("a client without the route never crossed a socket: the route leaked out of the client it was set on")
	}
	before := accepts.Load()
	remove()
	ask(routed)
	if accepts.Load() == before {
		t.Fatal("after remove the client still delivered in-process")
	}
}

// TestColocatedRouteFlipsUnderCalls: the route table is read on every
// call and written when a listener opens and closes. Calls in flight
// while it flips land on one side or the other and all succeed (the
// listener is up throughout); run with -race.
func TestColocatedRouteFlipsUnderCalls(t *testing.T) {
	d := soap.NewDispatcher()
	d.Register("urn:Ask", func(ctx context.Context, req *soap.Envelope) (*soap.Envelope, error) {
		return soap.New(xmlutil.NewElement(qAnswer, "ok")), nil
	})
	mux := soap.NewMux()
	mux.Handle("/Svc", d)
	srv := transport.NewServer(mux)
	base, routed, _ := listen(t, srv)

	stop := make(chan struct{})
	done := make(chan error, 4)
	for g := 0; g < cap(done); g++ {
		go func() {
			for {
				select {
				case <-stop:
					done <- nil
					return
				default:
				}
				if _, err := routed.Call(context.Background(), wsa.NewEPR(base+"/Svc"), "urn:Ask", xmlutil.NewElement(qAsk, "")); err != nil {
					done <- err
					return
				}
			}
		}()
	}
	for i := 0; i < 100; i++ {
		remove := routed.Colocate(srv, base, "http://127.0.0.1:1")
		time.Sleep(100 * time.Microsecond)
		remove()
	}
	close(stop)
	for g := 0; g < cap(done); g++ {
		if err := <-done; err != nil {
			t.Errorf("call during a route flip: %v", err)
		}
	}
}
