package transport

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"net"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"uvacg/internal/pipeline"
	"uvacg/internal/soap"
	"uvacg/internal/wsa"
	"uvacg/internal/xmlutil"
)

// bindingFixture hosts one test service behind a binding and knows how
// to tear it down.
type bindingFixture struct {
	name  string
	start func(t *testing.T, srv *Server) (base string, client *Client)
}

func allBindings() []bindingFixture {
	return []bindingFixture{
		{name: "inproc", start: func(t *testing.T, srv *Server) (string, *Client) {
			n := NewNetwork()
			n.Register("host-a", srv)
			return "inproc://host-a", NewClient().WithNetwork(n)
		}},
		{name: "http", start: func(t *testing.T, srv *Server) (string, *Client) {
			hs := httptest.NewServer(NewHTTPHandler(srv))
			t.Cleanup(hs.Close)
			return hs.URL, NewClient()
		}},
		{name: "soap.tcp", start: func(t *testing.T, srv *Server) (string, *Client) {
			tl, err := ListenTCP(srv, "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { tl.Close() })
			return tl.BaseURL(), NewClient()
		}},
		// A daemon calling a service it hosts itself: a real HTTP listener,
		// and a client told (Colocate) that the listener's base is this
		// process. The message takes the route, not the socket.
		{name: "colocated", start: func(t *testing.T, srv *Server) (string, *Client) {
			base, shutdown, err := ListenHTTP(srv, "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() {
				ctx, cancel := context.WithTimeout(context.Background(), time.Second)
				defer cancel()
				shutdown(ctx)
			})
			client := NewClient()
			client.Colocate(srv, base)
			return base, client
		}},
	}
}

// deadlineService reports the deadline (if any) each urn:Deadline call
// arrives with, and blocks urn:Stall calls until their context ends.
func deadlineService() (*soap.Mux, chan time.Time) {
	seen := make(chan time.Time, 4)
	d := soap.NewDispatcher()
	d.Register("urn:Deadline", func(ctx context.Context, req *soap.Envelope) (*soap.Envelope, error) {
		dl, ok := ctx.Deadline()
		if !ok {
			seen <- time.Time{}
		} else {
			seen <- dl
		}
		return nil, nil
	})
	d.Register("urn:Stall", func(ctx context.Context, req *soap.Envelope) (*soap.Envelope, error) {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(10 * time.Second):
			return nil, soap.ReceiverFault("stall handler was never released")
		}
	})
	mux := soap.NewMux()
	mux.Handle("/Ctx", d)
	return mux, seen
}

// TestDeadlinePropagationAcrossBindings drives the full deadline path
// on every binding: the client interceptor stamps the header, the
// server interceptor re-establishes it, and the handler observes a
// deadline matching the caller's — including over soap.tcp, whose
// server-side context otherwise carries no deadline at all.
func TestDeadlinePropagationAcrossBindings(t *testing.T) {
	for _, b := range allBindings() {
		t.Run(b.name, func(t *testing.T) {
			mux, seen := deadlineService()
			srv := NewServer(mux)
			srv.Use(pipeline.ServerDeadline())
			base, client := b.start(t, srv)
			client.Use(pipeline.ClientDeadline())

			want := time.Now().Add(30 * time.Second)
			ctx, cancel := context.WithDeadline(context.Background(), want)
			defer cancel()
			if _, err := client.Call(ctx, wsa.NewEPR(base+"/Ctx"), "urn:Deadline", xmlutil.NewElement(qPing, "")); err != nil {
				t.Fatal(err)
			}
			got := <-seen
			if got.IsZero() {
				t.Fatal("handler saw no deadline")
			}
			if d := got.Sub(want); d > 50*time.Millisecond || d < -50*time.Millisecond {
				t.Fatalf("handler deadline %v, caller deadline %v", got, want)
			}

			// And without a caller deadline, none must appear.
			if _, err := client.Call(context.Background(), wsa.NewEPR(base+"/Ctx"), "urn:Deadline", xmlutil.NewElement(qPing, "")); err != nil {
				t.Fatal(err)
			}
			if got := <-seen; !got.IsZero() {
				t.Fatalf("phantom deadline %v", got)
			}
		})
	}
}

// TestInvokeDeadlineExceededAcrossBindings verifies an expired deadline
// actually terminates an in-flight Invoke instead of leaving the caller
// stuck behind a stalled handler.
func TestInvokeDeadlineExceededAcrossBindings(t *testing.T) {
	for _, b := range allBindings() {
		t.Run(b.name, func(t *testing.T) {
			mux, _ := deadlineService()
			srv := NewServer(mux)
			srv.Use(pipeline.ServerDeadline())
			base, client := b.start(t, srv)
			client.Use(pipeline.ClientDeadline())

			ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
			defer cancel()
			start := time.Now()
			_, err := client.Call(ctx, wsa.NewEPR(base+"/Ctx"), "urn:Stall", xmlutil.NewElement(qPing, ""))
			if err == nil {
				t.Fatal("stalled call returned without error")
			}
			if elapsed := time.Since(start); elapsed > 3*time.Second {
				t.Fatalf("deadline did not cut the call short (took %v)", elapsed)
			}
		})
	}
}

// TestSendOneWayCancelledAcrossBindings checks a cancelled context
// refuses a one-way hand-off on every binding.
func TestSendOneWayCancelledAcrossBindings(t *testing.T) {
	for _, b := range allBindings() {
		t.Run(b.name, func(t *testing.T) {
			mux, sink := testService(t)
			base, client := b.start(t, NewServer(mux))

			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			err := client.Notify(ctx, wsa.NewEPR(base+"/Test"), "urn:Sink", xmlutil.NewElement(qPing, "late"))
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("want context.Canceled, got %v", err)
			}
			select {
			case env := <-sink.ch:
				t.Fatalf("cancelled one-way still delivered: %v", env.Body)
			case <-time.After(100 * time.Millisecond):
			}
		})
	}
}

// silentListener accepts connections and never reads or writes,
// the worst-case peer for cancellation handling.
func silentListener(t *testing.T) net.Listener {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
		}
	}()
	t.Cleanup(func() { l.Close() })
	return l
}

// TestTCPRoundTripCancelWithoutDeadline cancels mid-exchange with no
// deadline on the context: only the cancellation watcher can unblock
// the read of the never-coming reply.
func TestTCPRoundTripCancelWithoutDeadline(t *testing.T) {
	l := silentListener(t)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := NewTCPTransport().RoundTrip(ctx, SchemeTCP+"://"+l.Addr().String()+"/Svc", &Message{Envelope: []byte("<x/>")})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("cancellation took %v to take effect", elapsed)
	}
}

// TestTCPSendCancelWithoutDeadline forces the one-way write itself to
// block (peer never drains) and cancels; the watcher must break the
// write.
func TestTCPSendCancelWithoutDeadline(t *testing.T) {
	l := silentListener(t)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	// Large enough to overrun the kernel socket buffers so the write
	// parks until cancellation fires.
	payload := bytes.Repeat([]byte("x"), 32<<20)
	start := time.Now()
	err := NewTCPTransport().Send(ctx, SchemeTCP+"://"+l.Addr().String()+"/Svc", &Message{Envelope: payload})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("cancellation took %v to take effect", elapsed)
	}
}

// TestTCPServerRepliesAfterClientGone ensures the server side survives a
// request whose client vanished mid-exchange (the reply write fails
// silently rather than wedging the listener).
func TestTCPServerRepliesAfterClientGone(t *testing.T) {
	mux, _ := testService(t)
	tl, err := ListenTCP(NewServer(mux), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer tl.Close()

	conn, err := net.Dial("tcp", tl.Addr())
	if err != nil {
		t.Fatal(err)
	}
	env := soap.New(xmlutil.NewElement(qPing, "hi"))
	wsa.Apply(env, wsa.NewEPR(tl.BaseURL()+"/Test"), "urn:Echo")
	data, err := env.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	bw := bufio.NewWriter(conn)
	if err := writeFrame(bw, &frame{kind: frameRequest, path: "/Test", body: data}); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	conn.Close() // walk away before the reply

	// The listener must still serve the next client normally.
	body, err := NewClient().Call(context.Background(), wsa.NewEPR(tl.BaseURL()+"/Test"), "urn:Echo", xmlutil.NewElement(qPing, "still-up"))
	if err != nil {
		t.Fatal(err)
	}
	if body.Text != "still-up" {
		t.Fatalf("got %v", body)
	}
}

// TestListenHTTPShutdownHonorsContext verifies the shutdown function
// respects the caller's context instead of a baked-in timeout: with a
// request still in flight, an already-expired context must make
// Shutdown give up immediately.
func TestListenHTTPShutdownHonorsContext(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{})
	d := soap.NewDispatcher()
	d.Register("urn:Block", func(ctx context.Context, req *soap.Envelope) (*soap.Envelope, error) {
		close(entered)
		<-release
		return nil, nil
	})
	mux := soap.NewMux()
	mux.Handle("/Block", d)
	base, shutdown, err := ListenHTTP(NewServer(mux), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer close(release)

	go NewClient().Call(context.Background(), wsa.NewEPR(base+"/Block"), "urn:Block", xmlutil.NewElement(qPing, ""))
	<-entered

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	err = shutdown(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled from impatient shutdown, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("shutdown blocked %v despite expired context", elapsed)
	}
}

// TestListenHTTPShutdownClosesUnusedConnections: a connection that never
// sent a request — the spare dial a peer's http.Transport leaves behind —
// must not make a graceful shutdown sit out net/http's five-second
// StateNew grace.
func TestListenHTTPShutdownClosesUnusedConnections(t *testing.T) {
	mux, _ := testService(t)
	base, shutdown, err := ListenHTTP(NewServer(mux), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	spare, err := net.Dial("tcp", strings.TrimPrefix(base, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer spare.Close()
	// Connections are accepted in order, so a completed call on a later
	// one proves the server has taken the spare one in.
	if _, err := NewClient().Call(context.Background(), wsa.NewEPR(base+"/Test"), "urn:Echo", xmlutil.NewElement(qPing, "hi")); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	start := time.Now()
	if err := shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Fatalf("shutdown waited %v on a connection that never sent a request", elapsed)
	}
}

// TestInvokePreCancelled covers the uniform fast-path: a context dead
// before Invoke starts never touches the wire, on any binding.
func TestInvokePreCancelled(t *testing.T) {
	for _, b := range allBindings() {
		t.Run(b.name, func(t *testing.T) {
			mux, _ := testService(t)
			base, client := b.start(t, NewServer(mux))
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			_, err := client.Call(ctx, wsa.NewEPR(base+"/Test"), "urn:Echo", xmlutil.NewElement(qPing, ""))
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("want context.Canceled, got %v", err)
			}
			if !strings.Contains(err.Error(), "urn:Echo") {
				t.Fatalf("error should name the action: %v", err)
			}
		})
	}
}
