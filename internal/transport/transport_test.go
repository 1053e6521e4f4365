package transport

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"uvacg/internal/soap"
	"uvacg/internal/wsa"
	"uvacg/internal/xmlutil"
)

const nsT = "urn:uvacg:test"

var (
	qPing = xmlutil.Q(nsT, "Ping")
	qPong = xmlutil.Q(nsT, "Pong")
	qRID  = xmlutil.Q(nsT, "ResourceID")
)

// testService builds a mux with an echo action, a fault action, a void
// action, a resource-aware action and a one-way sink.
func testService(t *testing.T) (*soap.Mux, *oneWaySink) {
	t.Helper()
	sink := &oneWaySink{ch: make(chan *soap.Envelope, 16)}
	d := soap.NewDispatcher()
	d.Register("urn:Echo", func(ctx context.Context, req *soap.Envelope) (*soap.Envelope, error) {
		return soap.New(xmlutil.NewElement(qPong, req.Body.Text)), nil
	})
	d.Register("urn:Fail", func(ctx context.Context, req *soap.Envelope) (*soap.Envelope, error) {
		return nil, soap.SenderFault("no such job")
	})
	d.Register("urn:Void", func(ctx context.Context, req *soap.Envelope) (*soap.Envelope, error) {
		return nil, nil
	})
	d.Register("urn:WhoAmI", func(ctx context.Context, req *soap.Envelope) (*soap.Envelope, error) {
		info, _ := wsa.FromContext(ctx)
		return soap.New(xmlutil.NewElement(qPong, info.To.Property(qRID))), nil
	})
	d.Register("urn:Sink", sink.handle)
	mux := soap.NewMux()
	mux.Handle("/Test", d)
	return mux, sink
}

type oneWaySink struct {
	ch chan *soap.Envelope
}

func (s *oneWaySink) handle(ctx context.Context, req *soap.Envelope) (*soap.Envelope, error) {
	s.ch <- req.Clone()
	return nil, nil
}

func (s *oneWaySink) wait(t *testing.T) *soap.Envelope {
	t.Helper()
	select {
	case env := <-s.ch:
		return env
	case <-time.After(5 * time.Second):
		t.Fatal("one-way message never arrived")
		return nil
	}
}

// exerciseBinding runs the binding-independent behaviour suite against a
// service reachable at base (scheme://host:port).
func exerciseBinding(t *testing.T, client *Client, base string, sink *oneWaySink) {
	t.Helper()
	ctx := context.Background()
	svc := wsa.NewEPR(base + "/Test")

	t.Run("echo", func(t *testing.T) {
		body, err := client.Call(ctx, svc, "urn:Echo", xmlutil.NewElement(qPing, "hello"))
		if err != nil {
			t.Fatal(err)
		}
		if body.Name != qPong || body.Text != "hello" {
			t.Fatalf("got %v", body)
		}
	})

	t.Run("fault becomes error", func(t *testing.T) {
		_, err := client.Call(ctx, svc, "urn:Fail", xmlutil.NewElement(qPing, ""))
		f, ok := soap.AsFault(err)
		if !ok || f.Code != soap.CodeSender || f.Reason != "no such job" {
			t.Fatalf("want sender fault, got %v", err)
		}
	})

	t.Run("void response", func(t *testing.T) {
		body, err := client.Call(ctx, svc, "urn:Void", xmlutil.NewElement(qPing, ""))
		if err != nil {
			t.Fatal(err)
		}
		if body != nil {
			t.Fatalf("void should return nil body, got %v", body)
		}
	})

	t.Run("reference properties reach the handler", func(t *testing.T) {
		resource := svc.WithProperty(qRID, "job-17")
		body, err := client.Call(ctx, resource, "urn:WhoAmI", xmlutil.NewElement(qPing, ""))
		if err != nil {
			t.Fatal(err)
		}
		if body.Text != "job-17" {
			t.Fatalf("resource id did not survive transport: %q", body.Text)
		}
	})

	t.Run("unknown action faults", func(t *testing.T) {
		_, err := client.Call(ctx, svc, "urn:Nope", xmlutil.NewElement(qPing, ""))
		if _, ok := soap.AsFault(err); !ok {
			t.Fatalf("want fault, got %v", err)
		}
	})

	t.Run("unknown path faults", func(t *testing.T) {
		_, err := client.Call(ctx, wsa.NewEPR(base+"/Absent"), "urn:Echo", xmlutil.NewElement(qPing, ""))
		if _, ok := soap.AsFault(err); !ok {
			t.Fatalf("want fault, got %v", err)
		}
	})

	t.Run("one-way", func(t *testing.T) {
		err := client.Notify(ctx, svc, "urn:Sink", xmlutil.NewElement(qPing, "async"))
		if err != nil {
			t.Fatal(err)
		}
		env := sink.wait(t)
		if env.Body.Text != "async" {
			t.Fatalf("sink got %v", env.Body)
		}
	})
}

func TestHTTPBinding(t *testing.T) {
	mux, sink := testService(t)
	hs := httptest.NewServer(NewHTTPHandler(NewServer(mux)))
	defer hs.Close()
	exerciseBinding(t, NewClient(), hs.URL, sink)
}

func TestTCPBinding(t *testing.T) {
	mux, sink := testService(t)
	tl, err := ListenTCP(NewServer(mux), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer tl.Close()
	exerciseBinding(t, NewClient(), tl.BaseURL(), sink)
}

func TestInprocBinding(t *testing.T) {
	mux, sink := testService(t)
	net := NewNetwork()
	net.Register("node-a", NewServer(mux))
	client := NewClient().WithNetwork(net)
	exerciseBinding(t, client, "inproc://node-a", sink)
}

// TestColocatedBinding runs the binding suite over the co-located route:
// an HTTP listener whose base the client knows to be its own process.
func TestColocatedBinding(t *testing.T) {
	mux, sink := testService(t)
	srv := NewServer(mux)
	hs := httptest.NewServer(NewHTTPHandler(srv))
	defer hs.Close()
	client := NewClient()
	client.Colocate(srv, hs.URL)
	exerciseBinding(t, client, hs.URL, sink)
}

func TestListenHTTPHelper(t *testing.T) {
	mux, _ := testService(t)
	base, shutdown, err := ListenHTTP(NewServer(mux), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(context.Background())
	body, err := NewClient().Call(context.Background(), wsa.NewEPR(base+"/Test"), "urn:Echo", xmlutil.NewElement(qPing, "up"))
	if err != nil {
		t.Fatal(err)
	}
	if body.Text != "up" {
		t.Fatalf("got %v", body)
	}
}

func TestClientUnknownScheme(t *testing.T) {
	c := NewClient()
	_, err := c.Call(context.Background(), wsa.NewEPR("gopher://x/S"), "urn:A", xmlutil.NewElement(qPing, ""))
	if err == nil || !strings.Contains(err.Error(), "no binding") {
		t.Fatalf("got %v", err)
	}
	if err := c.Notify(context.Background(), wsa.NewEPR("gopher://x/S"), "urn:A", xmlutil.NewElement(qPing, "")); err == nil {
		t.Fatal("one-way to unknown scheme should fail")
	}
}

func TestInprocUnknownHost(t *testing.T) {
	c := NewClient().WithNetwork(NewNetwork())
	_, err := c.Call(context.Background(), wsa.NewEPR("inproc://ghost/S"), "urn:A", xmlutil.NewElement(qPing, ""))
	if err == nil || !strings.Contains(err.Error(), "unknown inproc host") {
		t.Fatalf("got %v", err)
	}
}

func TestInprocWithoutNetwork(t *testing.T) {
	c := NewClient()
	c.RegisterScheme(SchemeInproc, &inprocTransport{})
	_, err := c.Call(context.Background(), wsa.NewEPR("inproc://x/S"), "urn:A", xmlutil.NewElement(qPing, ""))
	if err == nil {
		t.Fatal("expected error")
	}
}

func TestNetworkRegistration(t *testing.T) {
	n := NewNetwork()
	srv := NewServer(soap.NewMux())
	n.Register("a", srv)
	if got := n.URL("a", "/S"); got != "inproc://a/S" {
		t.Errorf("URL = %q", got)
	}
	if _, ok := n.Lookup("a"); !ok {
		t.Error("lookup failed")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("duplicate host should panic")
			}
		}()
		n.Register("a", srv)
	}()
	n.Deregister("a")
	if _, ok := n.Lookup("a"); ok {
		t.Error("deregistered host still resolvable")
	}
}

func TestConcurrentCalls(t *testing.T) {
	mux, _ := testService(t)
	tl, err := ListenTCP(NewServer(mux), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer tl.Close()
	client := NewClient()
	svc := wsa.NewEPR(tl.BaseURL() + "/Test")
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body, err := client.Call(context.Background(), svc, "urn:Echo", xmlutil.NewElement(qPing, "x"))
			if err != nil {
				errs <- err
				return
			}
			if body.Text != "x" {
				errs <- &soap.Fault{Reason: "bad echo " + body.Text}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestHTTPHandlerRejectsNonPOST(t *testing.T) {
	mux, _ := testService(t)
	hs := httptest.NewServer(NewHTTPHandler(NewServer(mux)))
	defer hs.Close()
	resp, err := http.Get(hs.URL + "/Test")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

func TestHTTPRoundTripRejectsUnexpectedStatus(t *testing.T) {
	// A plain web server that answers 404 with no SOAP body.
	hs := httptest.NewServer(http.NotFoundHandler())
	defer hs.Close()
	c := NewClient()
	_, err := c.Call(context.Background(), wsa.NewEPR(hs.URL+"/x"), "urn:A", xmlutil.NewElement(qPing, ""))
	if err == nil || !strings.Contains(err.Error(), "http status") {
		t.Fatalf("got %v", err)
	}
	if err := c.Notify(context.Background(), wsa.NewEPR(hs.URL+"/x"), "urn:A", xmlutil.NewElement(qPing, "")); err == nil {
		t.Fatal("one-way to non-SOAP endpoint accepted")
	}
}

func TestTCPListenerCloseStopsAccepting(t *testing.T) {
	mux, _ := testService(t)
	tl, err := ListenTCP(NewServer(mux), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := tl.BaseURL()
	if err := tl.Close(); err != nil {
		t.Fatal(err)
	}
	c := NewClient()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if _, err := c.Call(ctx, wsa.NewEPR(addr+"/Test"), "urn:Echo", xmlutil.NewElement(qPing, "x")); err == nil {
		t.Fatal("closed listener still serving")
	}
}

func TestRegisterSchemePanics(t *testing.T) {
	c := NewClient()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.RegisterScheme("", nil)
}

func TestClientBadAddress(t *testing.T) {
	c := NewClient()
	if _, err := c.Call(context.Background(), wsa.NewEPR("::bad::url"), "urn:A", xmlutil.NewElement(qPing, "")); err == nil {
		t.Fatal("bad address accepted")
	}
}
