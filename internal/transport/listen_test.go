package transport

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"uvacg/internal/soap"
	"uvacg/internal/wsa"
	"uvacg/internal/xmlutil"
)

// TestOnePortAnswersBothBindings: ListenTCP and ListenHTTP open the same
// listener. Whichever base it reported, the port takes this code's
// client over soap.tcp and over HTTP, a plain SOAP POST, and one-way
// messages on both bindings; a framed connection is tracked for the
// drain and an HTTP one is the HTTP server's. Each http:// message comes
// from a client of its own, which has not learned the port's frames.
func TestOnePortAnswersBothBindings(t *testing.T) {
	mux, sink := testService(t)
	tl, err := ListenTCP(NewServer(mux), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer tl.Close()
	httpBase, shutdown, err := ListenHTTP(NewServer(mux), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(context.Background())
	ctx := context.Background()
	client := NewClient()
	defer client.CloseIdleConnections() // keeps its connections, and their count, alive until the end
	for _, port := range []string{tl.Addr(), strings.TrimPrefix(httpBase, "http://")} {
		for _, base := range []string{"http://" + port, SchemeTCP + "://" + port} {
			clientFor := func() *Client {
				if strings.HasPrefix(base, "http:") {
					return NewClient()
				}
				return client
			}
			body, err := clientFor().Call(ctx, wsa.NewEPR(base+"/Test"), "urn:Echo", xmlutil.NewElement(qPing, base))
			if err != nil || body.Text != base {
				t.Fatalf("%s: echo %v, %v", base, body, err)
			}
			if err := clientFor().Notify(ctx, wsa.NewEPR(base+"/Test"), "urn:Sink", xmlutil.NewElement(qPing, base)); err != nil {
				t.Fatalf("%s: one-way: %v", base, err)
			}
			if got := sink.wait(t); got.Body.Text != base {
				t.Fatalf("%s: one-way delivered %q", base, got.Body.Text)
			}
		}
		resp, err := http.Post("http://"+port+"/Test", "application/soap+xml", strings.NewReader(plainBlobRequest(nil)))
		if err != nil {
			t.Fatal(err)
		}
		reply, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || !bytes.Contains(reply, []byte("no handler for action")) {
			t.Fatalf("%s: plain POST answered %s: %s", port, resp.Status, reply)
		}
	}
	tl.mu.Lock()
	framed := len(tl.conns)
	tl.mu.Unlock()
	if framed != 1 {
		t.Fatalf("the listener tracks %d framed connection(s), want the one soap.tcp client's", framed)
	}
}

// TestSilentConnectionHoldsNothing: a connection that never sends its
// first byte keeps neither the next peer from being served nor a
// graceful shutdown from finishing, and Close does not wait for it.
func TestSilentConnectionHoldsNothing(t *testing.T) {
	mux, _ := testService(t)
	for _, stop := range []string{"shutdown", "close"} {
		t.Run(stop, func(t *testing.T) {
			tl, err := ListenTCP(NewServer(mux), "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			silent, err := net.Dial("tcp", tl.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer silent.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			for _, base := range []string{"http://" + tl.Addr(), tl.BaseURL()} {
				if _, err := NewClient().Call(ctx, wsa.NewEPR(base+"/Test"), "urn:Echo", xmlutil.NewElement(qPing, "")); err != nil {
					t.Fatalf("%s past a silent connection: %v", base, err)
				}
			}
			start := time.Now()
			if stop == "shutdown" {
				err = tl.shutdown(ctx)
			} else {
				err = tl.Close()
			}
			if err != nil {
				t.Fatal(err)
			}
			if took := time.Since(start); took > time.Second {
				t.Fatalf("%s waited %v on a connection that never sent a byte", stop, took)
			}
			silent.SetReadDeadline(time.Now().Add(5 * time.Second))
			if _, err := silent.Read(make([]byte, 1)); err != io.EOF {
				t.Fatalf("the silent connection outlived the %s: %v", stop, err)
			}
		})
	}
}

// TestShutdownAnswersTheFrameInside: a graceful shutdown closes an idle
// framed connection at once and lets the one whose request is inside a
// handler send its reply first; until then it does not return.
func TestShutdownAnswersTheFrameInside(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	d := soap.NewDispatcher()
	d.Register("urn:Block", func(ctx context.Context, req *soap.Envelope) (*soap.Envelope, error) {
		close(entered)
		<-release
		return soap.New(xmlutil.NewElement(qPong, "answered")), nil
	})
	d.Register("urn:Echo", func(ctx context.Context, req *soap.Envelope) (*soap.Envelope, error) { return nil, nil })
	mux := soap.NewMux()
	mux.Handle("/Svc", d)
	tl, err := ListenTCP(NewServer(mux), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	idle := NewTCPTransport()
	idleClient := NewClient()
	idleClient.RegisterScheme(SchemeTCP, idle)
	if _, err := idleClient.Call(ctx, wsa.NewEPR(tl.BaseURL()+"/Svc"), "urn:Echo", nil); err != nil {
		t.Fatal(err)
	}
	reply := make(chan error, 1)
	go func() {
		body, err := NewClient().Call(ctx, wsa.NewEPR(tl.BaseURL()+"/Svc"), "urn:Block", nil)
		if err == nil && body.Text != "answered" {
			err = io.ErrUnexpectedEOF
		}
		reply <- err
	}()
	<-entered
	down := make(chan error, 1)
	go func() { down <- tl.shutdown(ctx) }()
	// The idle pooled connection is closed without waiting for the drain.
	idle.pool.mu.Lock()
	pc := idle.pool.hosts[tl.Addr()].idle[0]
	idle.pool.mu.Unlock()
	pc.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := pc.br.Peek(1); err != io.EOF {
		t.Fatalf("the idle framed connection was not closed at shutdown: %v", err)
	}
	select {
	case err := <-down:
		t.Fatalf("shutdown returned (%v) with a frame inside a handler", err)
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	if err := <-reply; err != nil {
		t.Fatalf("the request inside at shutdown: %v", err)
	}
	if err := <-down; err != nil {
		t.Fatal(err)
	}
}

// countingListener counts the connections it accepts.
type countingListener struct {
	net.Listener
	accepted atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepted.Add(1)
	}
	return c, err
}

// TestPoolKeepsEveryConcurrentConnection: 32 exchanges in flight at once
// to one host open 32 connections, and the pool keeps them all, so a
// second wave of 32 dials none. With a cap of 8 idle connections per
// host, the second wave dialled 24 more.
func TestPoolKeepsEveryConcurrentConnection(t *testing.T) {
	const wide = 32
	var inside sync.WaitGroup
	d := soap.NewDispatcher()
	d.Register("urn:Wait", func(ctx context.Context, req *soap.Envelope) (*soap.Envelope, error) {
		inside.Done()
		inside.Wait() // every exchange of the wave is in flight at once
		return nil, nil
	})
	mux := soap.NewMux()
	mux.Handle("/Svc", d)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	counted := &countingListener{Listener: l}
	tl := serve(NewServer(mux), counted)
	defer tl.Close()
	client := NewClient()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for wave := 0; wave < 2; wave++ {
		inside.Add(wide)
		errs := make(chan error, wide)
		for i := 0; i < wide; i++ {
			go func() {
				_, err := client.Call(ctx, wsa.NewEPR(tl.BaseURL()+"/Svc"), "urn:Wait", nil)
				errs <- err
			}()
		}
		for i := 0; i < wide; i++ {
			if err := <-errs; err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := counted.accepted.Load(); got != wide {
		t.Fatalf("two waves of %d exchanges dialled %d connections, want %d", wide, got, wide)
	}
}

// TestReplyBegunIsNotReplayed: a pooled connection that fails after the
// first byte of the reply arrived is not retried, because the peer has
// acted on the request; one that fails before any reply is retried once
// on a fresh dial. The peer here reads each request, then answers the
// first in full and cuts the second off mid-reply.
func TestReplyBegunIsNotReplayed(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var requests atomic.Int64
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				br := bufio.NewReader(conn)
				for {
					if _, err := readFrame(br); err != nil {
						return
					}
					var reply bytes.Buffer
					writeFrame(&reply, &frame{kind: frameReply, body: []byte("<Envelope xmlns=\"http://www.w3.org/2003/05/soap-envelope\"><Body/></Envelope>")})
					if requests.Add(1) > 1 {
						conn.Write(reply.Bytes()[:reply.Len()/2])
						return
					}
					conn.Write(reply.Bytes())
				}
			}()
		}
	}()
	tr := NewTCPTransport()
	addr := SchemeTCP + "://" + l.Addr().String() + "/Svc"
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := tr.RoundTrip(ctx, addr, &Message{Envelope: []byte("<x/>")}); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.RoundTrip(ctx, addr, &Message{Envelope: []byte("<x/>")}); err == nil {
		t.Fatal("a reply cut off midway read as success")
	}
	if got := requests.Load(); got != 2 {
		t.Fatalf("the peer read the second request %d time(s), want once", got-1)
	}
}
