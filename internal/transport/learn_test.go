package transport

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net"
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

// TestOneWayFrameIsAcknowledged: a one-way frame is answered by a receipt
// once the listener has taken the message, and Send returns only then.
// A peer that reads the frame and hangs up without a receipt fails the
// Send, as an HTTP peer that never answers 202 does.
func TestOneWayFrameIsAcknowledged(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	// peer reads one frame on its first connection, reports it, and then
	// does what answer says.
	peer := func(t *testing.T, answer func(conn net.Conn)) (addr string, read chan *frame) {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		read = make(chan *frame, 1)
		go func() {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
			fr, err := readFrame(bufio.NewReader(conn))
			if err != nil {
				return
			}
			read <- fr
			answer(conn)
		}()
		return SchemeTCP + "://" + l.Addr().String() + "/Svc", read
	}
	send := func(addr string) chan error {
		sent := make(chan error, 1)
		go func() { sent <- NewTCPTransport().Send(ctx, addr, &Message{Envelope: []byte("<x/>")}) }()
		return sent
	}

	t.Run("waits-for-the-receipt", func(t *testing.T) {
		release, done := make(chan struct{}), make(chan struct{})
		defer close(done)
		addr, read := peer(t, func(conn net.Conn) {
			<-release
			writeFrame(conn, &receipt)
			<-done
		})
		sent := send(addr)
		if fr := <-read; fr.kind != frameOneWay || fr.path != "/Svc" {
			t.Fatalf("the peer read kind %d for %q", fr.kind, fr.path)
		}
		select {
		case err := <-sent:
			t.Fatalf("Send returned (%v) before the receipt", err)
		case <-time.After(50 * time.Millisecond):
		}
		close(release)
		if err := <-sent; err != nil {
			t.Fatalf("Send after the receipt: %v", err)
		}
	})
	t.Run("no-receipt", func(t *testing.T) {
		addr, read := peer(t, func(net.Conn) {})
		sent := send(addr)
		<-read
		if err := <-sent; err == nil {
			t.Fatal("Send returned nil although the peer hung up without a receipt")
		}
	})
	// The listener's receipt on the wire: kind 6, empty path, body and
	// attachment section, nine bytes.
	t.Run("listener", func(t *testing.T) {
		mux, sink := testService(t)
		tl, err := ListenTCP(NewServer(mux), "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer tl.Close()
		conn, err := net.Dial("tcp", tl.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		env := soap.New(xmlutil.NewElement(qPing, "raw"))
		wsa.Apply(env, wsa.NewEPR(tl.BaseURL()+"/Test"), "urn:Sink")
		data, err := env.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if err := writeFrame(conn, &frame{kind: frameOneWay, path: "/Test", body: data}); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		answer := make([]byte, 16)
		n, err := conn.Read(answer)
		if err != nil || string(answer[:n]) != "\x06\x00\x00\x00\x00\x00\x00\x00\x00" {
			t.Fatalf("the listener answered % x (%v), want a receipt", answer[:n], err)
		}
		sink.wait(t)
	})
	// A message the listener cannot take, because it is no envelope or
	// names a path no service holds, is answered by a reply carrying the
	// Sender fault in place of the receipt (over HTTP a 500 in place of the
	// 202), and every binding's Send returns that fault. The connection
	// stays good for the next message.
	t.Run("refused", func(t *testing.T) {
		mux, sink := testService(t)
		srv := NewServer(mux)
		tl, err := ListenTCP(srv, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer tl.Close()
		network := NewNetwork()
		network.Register("local", srv)
		tree := func(path string) *soap.Envelope {
			return wsa.Apply(soap.New(xmlutil.NewElement(qPing, "taken")), wsa.NewEPR(tl.BaseURL()+path), "urn:Sink")
		}
		envelope := func(path string) []byte {
			data, err := tree(path).Marshal()
			if err != nil {
				t.Fatal(err)
			}
			return data
		}
		rows := []struct {
			name, path string
			body       []byte
			reason     string
		}{
			{"malformed", "/Test", []byte("<not an envelope"), "malformed envelope"},
			{"unknown-path", "/Nowhere", envelope("/Nowhere"), `no service at "/Nowhere"`},
		}
		for _, b := range []struct {
			name string
			rt   RoundTripper
			base string
		}{
			{SchemeTCP, NewTCPTransport(), tl.BaseURL()},
			{"http", NewHTTPTransport(), "http://" + tl.Addr()},
			{SchemeInproc, &inprocTransport{network: network}, "inproc://local"},
		} {
			// The in-process route carries trees, and a tree is always
			// an envelope: only its unknown path can be refused.
			message := func(path string, body []byte) *Message {
				if b.name == SchemeInproc {
					return &Message{Tree: tree(path)}
				}
				return &Message{Envelope: body}
			}
			for _, row := range rows {
				if b.name == SchemeInproc && row.name == "malformed" {
					continue
				}
				err := b.rt.Send(ctx, b.base+row.path, message(row.path, row.body))
				var f *soap.Fault
				if !errors.As(err, &f) || f.Code != soap.CodeSender || !strings.Contains(f.Reason, row.reason) {
					t.Fatalf("%s, %s: Send returned %v, want the Sender fault %q", b.name, row.name, err, row.reason)
				}
			}
			if err := b.rt.Send(ctx, b.base+"/Test", message("/Test", envelope("/Test"))); err != nil {
				t.Fatalf("%s: a good message after the refused ones: %v", b.name, err)
			}
			sink.wait(t)
		}

		// On the wire: a reply frame, and a 500.
		conn, err := net.Dial("tcp", tl.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if err := writeFrame(conn, &frame{kind: frameOneWay, path: "/Nowhere", body: envelope("/Nowhere")}); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		fr, err := readFrame(bufio.NewReader(conn))
		if err != nil || fr.kind != frameReply || !strings.Contains(string(fr.body), "no service at") {
			t.Fatalf("the listener answered %+v (%v), want a reply carrying the fault", fr, err)
		}
		req, err := http.NewRequest(http.MethodPost, "http://"+tl.Addr()+"/Nowhere", strings.NewReader(string(envelope("/Nowhere"))))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", contentTypeSOAP)
		req.Header.Set(headerOneWay, "1")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(string(body), "no service at") {
			t.Fatalf("HTTP answered %s %q, want 500 with the fault", resp.Status, body)
		}
	})
	// A kind-5 answer to a one-way frame is taken only when it is a fault.
	t.Run("reply-that-is-no-fault", func(t *testing.T) {
		addr, read := peer(t, func(conn net.Conn) {
			writeFrame(conn, &frame{kind: frameReply, body: []byte(`<s:Envelope xmlns:s="http://www.w3.org/2003/05/soap-envelope"><s:Body/></s:Envelope>`)})
		})
		sent := send(addr)
		<-read
		if err := <-sent; err == nil {
			t.Fatal("Send took a reply that is no fault for a receipt")
		} else if _, ok := err.(*soap.Fault); ok {
			t.Fatalf("Send returned a fault (%v) for a reply that carries none", err)
		}
	})
}

// TestRefusedOneWayKeepsTheLearnedPort: a fault answered in place of a
// receipt is the port speaking: the client returns it and keeps sending
// that port frames.
func TestRefusedOneWayKeepsTheLearnedPort(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	mux, _ := testService(t)
	tl, err := ListenTCP(NewServer(mux), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer tl.Close()
	base := "http://" + tl.Addr()
	c := NewClient()
	fc := countFrames(c)
	if _, err := c.Call(ctx, wsa.NewEPR(base+"/Test"), "urn:Echo", xmlutil.NewElement(qPing, "hi")); err != nil {
		t.Fatal(err)
	}
	err = c.Notify(ctx, wsa.NewEPR(base+"/Nowhere"), "urn:Sink", xmlutil.NewElement(qPing, "lost"))
	if f, ok := err.(*soap.Fault); !ok || f.Code != soap.CodeSender {
		t.Fatalf("Notify to a path no service holds returned %v, want the Sender fault itself", err)
	}
	if _, err := c.Call(ctx, wsa.NewEPR(base+"/Test"), "urn:Echo", xmlutil.NewElement(qPing, "hi")); err != nil {
		t.Fatal(err)
	}
	if seen := fc.seen(); len(seen) != 2 {
		t.Fatalf("frames went to %v, want the refused Notify and the call after it", seen)
	}
}

// frameCounter is a soap.tcp binding wrapper that notes every address it
// is given.
type frameCounter struct {
	inner RoundTripper
	mu    sync.Mutex
	addrs []string
}

func (f *frameCounter) note(addr string) {
	f.mu.Lock()
	f.addrs = append(f.addrs, addr)
	f.mu.Unlock()
}

func (f *frameCounter) RoundTrip(ctx context.Context, addr string, request *Message) (*Message, error) {
	f.note(addr)
	return f.inner.RoundTrip(ctx, addr, request)
}

func (f *frameCounter) Send(ctx context.Context, addr string, request *Message) error {
	f.note(addr)
	return f.inner.Send(ctx, addr, request)
}

func (f *frameCounter) seen() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.addrs...)
}

// countFrames wraps c's soap.tcp binding in a frameCounter.
func countFrames(c *Client) *frameCounter {
	fc := &frameCounter{}
	c.WrapSchemes(func(scheme string, rt RoundTripper) RoundTripper {
		if scheme != SchemeTCP {
			return nil
		}
		fc.inner = rt
		return fc
	})
	return fc
}

// TestAltSvcLearnsItsOwnPortOnly: a client sends an http:// port frames
// only once that port's own answer has said it takes them, and sends
// them through its soap.tcp binding, wrapped as that is. An announcement
// for another port, another host or another protocol is ignored, and a
// server built on NewHTTPHandler alone announces nothing and is never
// sent a frame. A learned port whose frame exchange fails is forgotten
// and asked over HTTP again.
func TestAltSvcLearnsItsOwnPortOnly(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, tc := range []struct{ name, altSvc string }{
		{"another-protocol", `h2=":443"`},
		{"another-port", `soap.tcp=":1"`},
		{"another-host", `soap.tcp="elsewhere.example:PORT"`},
		{"no-announcement", ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mux, sink := testService(t)
			handler := NewHTTPHandler(NewServer(mux))
			var port string
			hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if tc.altSvc != "" {
					w.Header().Set(headerAltSvc, strings.ReplaceAll(tc.altSvc, "PORT", port))
				}
				handler.ServeHTTP(w, r)
			}))
			defer hs.Close()
			_, port, _ = net.SplitHostPort(strings.TrimPrefix(hs.URL, "http://"))
			c := NewClient()
			fc := countFrames(c)
			for i := 0; i < 2; i++ {
				if body, err := c.Call(ctx, wsa.NewEPR(hs.URL+"/Test"), "urn:Echo", xmlutil.NewElement(qPing, "hi")); err != nil || body.Text != "hi" {
					t.Fatalf("call %d: %v, %v", i, body, err)
				}
			}
			if err := c.Notify(ctx, wsa.NewEPR(hs.URL+"/Test"), "urn:Sink", xmlutil.NewElement(qPing, "one-way")); err != nil {
				t.Fatal(err)
			}
			sink.wait(t)
			if seen := fc.seen(); len(seen) > 0 {
				t.Fatalf("Alt-Svc %q: the client sent frames to %v", tc.altSvc, seen)
			}
		})
	}
	t.Run("own-port-then-forgotten", func(t *testing.T) {
		mux, sink := testService(t)
		tl, err := ListenTCP(NewServer(mux), "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		base := "http://" + tl.Addr()
		c := NewClient()
		fc := countFrames(c)
		call := func() error {
			_, err := c.Call(ctx, wsa.NewEPR(base+"/Test"), "urn:Echo", xmlutil.NewElement(qPing, "hi"))
			return err
		}
		// The first call asks over HTTP; the call and the one-way message
		// after it go as frames, through the wrapped binding.
		if err := call(); err != nil {
			t.Fatal(err)
		}
		if err := call(); err != nil {
			t.Fatal(err)
		}
		if err := c.Notify(ctx, wsa.NewEPR(base+"/Test"), "urn:Sink", xmlutil.NewElement(qPing, "one-way")); err != nil {
			t.Fatal(err)
		}
		sink.wait(t)
		want := SchemeTCP + "://" + tl.Addr() + "/Test"
		if seen := fc.seen(); len(seen) != 2 || seen[0] != want || seen[1] != want {
			t.Fatalf("frames went to %v, want two to %s", seen, want)
		}
		// The port comes back as a server that speaks no frames.
		tl.Close()
		l, err := net.Listen("tcp", tl.Addr())
		if err != nil {
			t.Skipf("the port could not be taken again: %v", err)
		}
		hs := httptest.NewUnstartedServer(NewHTTPHandler(NewServer(mux)))
		hs.Listener.Close()
		hs.Listener = l
		hs.Start()
		defer hs.Close()
		if err := call(); err == nil {
			t.Fatal("a frame exchange with a server that speaks none succeeded")
		}
		// Forgotten: the next call asks over HTTP, and nothing announces
		// frames any more.
		for i := 0; i < 2; i++ {
			if err := call(); err != nil {
				t.Fatalf("call %d after the failed frame exchange: %v", i, err)
			}
		}
		if seen := fc.seen(); len(seen) != 3 {
			t.Fatalf("frames went to %v, want the two learned exchanges and the failed one", seen)
		}
	})
}
