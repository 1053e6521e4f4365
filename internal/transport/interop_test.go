package transport

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"uvacg/internal/pipeline"
	"uvacg/internal/soap"
	"uvacg/internal/wsa"
	"uvacg/internal/xmlutil"
)

var (
	qBlob         = xmlutil.Q("urn:interop", "Blob")
	qBlobResponse = xmlutil.Q("urn:interop", "BlobResponse")
	qData         = xmlutil.Q("urn:interop", "Data")
)

// blobService echoes binary content: the request's Data bytes come back
// as the response's Data, attached when the binding allows.
func blobService() *soap.Mux {
	d := soap.NewDispatcher()
	d.Register("urn:Blob", func(ctx context.Context, req *soap.Envelope) (*soap.Envelope, error) {
		if req.Body == nil {
			return nil, soap.SenderFault("no body")
		}
		data, err := req.ContentBytes(req.Body.Child(qData))
		if err != nil {
			return nil, soap.SenderFault("%v", err)
		}
		resp := &soap.Envelope{}
		resp.Body = xmlutil.NewContainer(qBlobResponse,
			xmlutil.NewContainer(qData, resp.Attach(data)),
		)
		return resp, nil
	})
	mux := soap.NewMux()
	mux.Handle("/Blob", d)
	return mux
}

func blobRequest(data []byte) *soap.Envelope {
	req := &soap.Envelope{}
	req.Body = xmlutil.NewContainer(qBlob, xmlutil.NewContainer(qData, req.Attach(data)))
	return req
}

func blobResponseData(t *testing.T, resp *soap.Envelope) []byte {
	t.Helper()
	if resp == nil || resp.Body == nil {
		t.Fatal("empty blob response")
	}
	data, err := resp.ContentBytes(resp.Body.Child(qData))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// startResetFirstListener serves srv over soap.tcp but cuts the first
// connection as soon as its request starts arriving — a peer restarting
// mid-exchange. Later connections get the real listener loop.
func startResetFirstListener(t *testing.T, srv *Server) *Listener {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tl := serve(srv, &resetFirst{Listener: l})
	t.Cleanup(func() { tl.Close() })
	return tl
}

// resetFirst is a net.Listener that cuts its first connection as soon as
// a byte arrives on it and passes every later one on.
type resetFirst struct {
	net.Listener
	done bool
}

func (l *resetFirst) Accept() (net.Conn, error) {
	if !l.done {
		l.done = true
		if conn, err := l.Listener.Accept(); err == nil {
			conn.Read(make([]byte, 1))
			conn.Close()
		}
	}
	return l.Listener.Accept()
}

// TestConnectionResetLeavesHostAttachedAndPooled: a server that drops
// one connection mid-exchange says nothing about what framing it
// speaks. The failed call surfaces its error; the next call to the same
// host still carries real attachments and its connection is pooled.
func TestConnectionResetLeavesHostAttachedAndPooled(t *testing.T) {
	tl := startResetFirstListener(t, NewServer(blobService()))
	tr := NewTCPTransport()
	client := NewClient()
	client.RegisterScheme(SchemeTCP, tr)
	to := wsa.NewEPR(tl.BaseURL() + "/Blob")
	data := bytes.Repeat([]byte{0x00, 0xFF, '<', '&'}, 4096)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := client.Invoke(ctx, to, "urn:Blob", blobRequest(data)); err == nil {
		t.Fatal("call on the reset connection reported success")
	}
	for i := 0; i < 2; i++ {
		resp, err := client.Invoke(ctx, to, "urn:Blob", blobRequest(data))
		if err != nil {
			t.Fatalf("call %d after the reset: %v", i, err)
		}
		if len(resp.Attachments) == 0 {
			t.Fatalf("call %d after the reset fell back to inline content", i)
		}
		if got := blobResponseData(t, resp); !bytes.Equal(got, data) {
			t.Fatalf("call %d after the reset corrupted data", i)
		}
	}
	tl.mu.Lock()
	live := len(tl.conns)
	tl.mu.Unlock()
	if live != 1 {
		t.Fatalf("server tracked %d connections after the reset, want 1 (pooled reuse)", live)
	}
}

// TestRetiredFrameKindClosesConnection: the pre-attachment frame kinds
// 0–2 are unknown to the listener — it closes the connection without
// dispatching anything or replying.
func TestRetiredFrameKindClosesConnection(t *testing.T) {
	d := soap.NewDispatcher()
	handled := make(chan struct{}, 1)
	d.Register("urn:Blob", func(ctx context.Context, req *soap.Envelope) (*soap.Envelope, error) {
		handled <- struct{}{}
		return nil, nil
	})
	mux := soap.NewMux()
	mux.Handle("/Blob", d)
	tl, err := ListenTCP(NewServer(mux), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer tl.Close()

	env := soap.New(xmlutil.NewContainer(qBlob))
	wsa.Apply(env, wsa.NewEPR(tl.BaseURL()+"/Blob"), "urn:Blob")
	body, err := env.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	for kind := byte(0); kind < frameRequest; kind++ {
		conn, err := net.Dial("tcp", tl.Addr())
		if err != nil {
			t.Fatal(err)
		}
		// The retired layout: kind, path, body — no attachment section.
		old := []byte{kind}
		old = binary.BigEndian.AppendUint16(old, uint16(len("/Blob")))
		old = append(old, "/Blob"...)
		old = binary.BigEndian.AppendUint32(old, uint32(len(body)))
		old = append(old, body...)
		if _, err := conn.Write(old); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if n, err := conn.Read(make([]byte, 1)); err != io.EOF {
			t.Fatalf("kind %d: want the connection closed with no reply, read %d bytes, err %v", kind, n, err)
		}
		conn.Close()
	}
	select {
	case <-handled:
		t.Fatal("a retired frame kind reached a handler")
	default:
	}
}

// TestPoolReuseAndPeerTracking drives two calls through one transport and
// proves they share a single TCP connection (the server tracked exactly
// one), that both replies were attached, and that CloseIdleConnections
// empties the pool.
func TestPoolReuseAndPeerTracking(t *testing.T) {
	tl, err := ListenTCP(NewServer(blobService()), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer tl.Close()
	tr := NewTCPTransport()
	client := NewClient()
	client.RegisterScheme(SchemeTCP, tr)
	to := wsa.NewEPR(tl.BaseURL() + "/Blob")
	data := bytes.Repeat([]byte{1, 2, 3}, 2048)

	for i := 0; i < 2; i++ {
		resp, err := client.Invoke(context.Background(), to, "urn:Blob", blobRequest(data))
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if len(resp.Attachments) == 0 {
			t.Fatalf("call %d: reply content was not attached", i)
		}
		if got := blobResponseData(t, resp); !bytes.Equal(got, data) {
			t.Fatalf("call %d corrupted data", i)
		}
	}

	tl.mu.Lock()
	live := len(tl.conns)
	tl.mu.Unlock()
	if live != 1 {
		t.Fatalf("server tracked %d connections, want 1 (pooled reuse)", live)
	}
	tr.pool.mu.Lock()
	idle := len(tr.pool.hosts[tl.Addr()].idle)
	tr.pool.mu.Unlock()
	if idle != 1 {
		t.Fatalf("pool holds %d idle connections, want 1", idle)
	}
	tr.CloseIdleConnections()
	tr.pool.mu.Lock()
	idle = len(tr.pool.hosts)
	tr.pool.mu.Unlock()
	if idle != 0 {
		t.Fatalf("pool not empty after CloseIdleConnections: %d hosts", idle)
	}
}

// TestStalePooledConnectionRetry poisons the pooled connection out from
// under the transport; the next call must detect the stale checkout and
// complete on a fresh dial instead of failing.
func TestStalePooledConnectionRetry(t *testing.T) {
	tl, err := ListenTCP(NewServer(blobService()), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer tl.Close()
	tr := NewTCPTransport()
	client := NewClient()
	client.RegisterScheme(SchemeTCP, tr)
	to := wsa.NewEPR(tl.BaseURL() + "/Blob")
	data := []byte("survives staleness")

	if _, err := client.Invoke(context.Background(), to, "urn:Blob", blobRequest(data)); err != nil {
		t.Fatal(err)
	}
	// Kill the pooled connection as an idle-timeout-closing peer would.
	tr.pool.mu.Lock()
	for _, pc := range tr.pool.hosts[tl.Addr()].idle {
		pc.conn.Close()
	}
	tr.pool.mu.Unlock()

	resp, err := client.Invoke(context.Background(), to, "urn:Blob", blobRequest(data))
	if err != nil {
		t.Fatalf("stale pooled connection was not retried: %v", err)
	}
	if got := blobResponseData(t, resp); !bytes.Equal(got, data) {
		t.Fatal("retry corrupted data")
	}
}

// TestConcurrentPooledClients hammers one shared transport from many
// goroutines — the race detector's view of the pool, peer map and
// buffer pools under contention.
func TestConcurrentPooledClients(t *testing.T) {
	tl, err := ListenTCP(NewServer(blobService()), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer tl.Close()
	client := NewClient()
	to := wsa.NewEPR(tl.BaseURL() + "/Blob")

	const workers, calls = 8, 10
	var wg sync.WaitGroup
	errs := make(chan error, workers*calls)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			payload := bytes.Repeat([]byte{byte(w)}, 1024+w)
			for i := 0; i < calls; i++ {
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				resp, err := client.Invoke(ctx, to, "urn:Blob", blobRequest(payload))
				cancel()
				if err != nil {
					errs <- fmt.Errorf("worker %d call %d: %w", w, i, err)
					return
				}
				got, err := resp.ContentBytes(resp.Body.Child(qData))
				if err != nil || !bytes.Equal(got, payload) {
					errs <- fmt.Errorf("worker %d call %d: bad echo (%v)", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// interopData is 2 KiB of binary, XML-hostile content.
var interopData = bytes.Repeat([]byte{0xC0, 0x01, '<', 0x00}, 512)

// plainBlobRequest is the urn:Blob request as a requester that is not
// this code would write it: content inline.
func plainBlobRequest(data []byte) string {
	return `<?xml version="1.0" encoding="utf-8"?>
<s:Envelope xmlns:s="http://www.w3.org/2003/05/soap-envelope" xmlns:wsa="http://schemas.xmlsoap.org/ws/2004/08/addressing" xmlns:i="urn:interop">
  <s:Header>
    <wsa:To>http://interop.example/Blob</wsa:To>
    <wsa:Action>urn:Blob</wsa:Action>
    <wsa:MessageID>urn:uuid:00000000-0000-4000-8000-000000000022</wsa:MessageID>
  </s:Header>
  <s:Body><i:Blob><i:Data>` + base64.StdEncoding.EncodeToString(data) + `</i:Data></i:Blob></s:Body>
</s:Envelope>`
}

// plainBlobReply is, byte for byte, what HTTP has always answered
// plainBlobRequest(data) with, but for the reply's own random MessageID.
func plainBlobReply(messageID string, data []byte) string {
	return `<?xml version="1.0" encoding="UTF-8"?>
<Envelope xmlns="http://www.w3.org/2003/05/soap-envelope"><Header><Action xmlns="http://schemas.xmlsoap.org/ws/2004/08/addressing">urn:BlobResponse</Action><MessageID xmlns="http://schemas.xmlsoap.org/ws/2004/08/addressing">` + messageID + `</MessageID><RelatesTo xmlns="http://schemas.xmlsoap.org/ws/2004/08/addressing">urn:uuid:00000000-0000-4000-8000-000000000022</RelatesTo></Header><Body><BlobResponse xmlns="urn:interop"><Data>` + base64.StdEncoding.EncodeToString(data) + `</Data></BlobResponse></Body></Envelope>`
}

var messageIDPattern = regexp.MustCompile(`<MessageID [^>]*>(urn:uuid:[0-9a-f-]{36})</MessageID>`)

// TestOnlyHTTPCarriesContentInline runs the same exchange over every
// carrier a Client can pick. HTTP carries plain SOAP: over it the content
// is inline base64 — request, reply and one-way message alike — while
// soap.tcp, inproc and the co-located route carry it as a real
// attachment. A fault-wrapped binding that parks the one-way message
// before it hands it on is still HTTP. A plain SOAP POST of the same
// request gets the reply it always got, byte for byte. HTTP is served by
// NewHTTPHandler, which announces no frames, so the "http" and "faulted"
// rows stay on HTTP.
func TestOnlyHTTPCarriesContentInline(t *testing.T) {
	// The server notes how each message's content reached it.
	type arrival struct {
		attached bool
		data     []byte
	}
	var requestAttached atomic.Bool
	oneWay := make(chan arrival, 1)
	srv := NewServer(blobService())
	srv.Use(func(ctx context.Context, call *soap.CallInfo, next soap.Handler) (*soap.Envelope, error) {
		if call.OneWay {
			data, _ := call.Request.ContentBytes(call.Request.Body.Child(qData))
			oneWay <- arrival{len(call.Request.Attachments) > 0, data}
		} else {
			requestAttached.Store(len(call.Request.Attachments) > 0)
		}
		return next(ctx, call)
	})
	tl, err := ListenTCP(srv, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer tl.Close()
	hs := httptest.NewServer(NewHTTPHandler(srv))
	defer hs.Close()
	httpBase := hs.URL
	network := NewNetwork()
	network.Register("interop", srv)
	colocated := NewClient()
	colocated.Colocate(srv, "http://interop.example")
	faulted := NewClient().WrapSchemes(func(_ string, rt RoundTripper) RoundTripper {
		return WrapFaults(rt, func(op FaultOp, _ string) FaultDecision { return FaultDecision{Reorder: op == OpSend} })
	})

	for _, tc := range []struct {
		name     string
		client   *Client
		base     string
		attached bool
	}{
		{"soap.tcp", NewClient(), tl.BaseURL(), true},
		{"http", NewClient(), httpBase, false},
		{"inproc", NewClient().WithNetwork(network), "inproc://interop", true},
		{"colocated", colocated, "http://interop.example", true},
		{"faulted", faulted, httpBase, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			to := wsa.NewEPR(tc.base + "/Blob")
			req := blobRequest(interopData)
			resp, err := tc.client.Invoke(context.Background(), to, "urn:Blob", req)
			if err != nil {
				t.Fatal(err)
			}
			if got := requestAttached.Load(); got != tc.attached {
				t.Fatalf("the request's content reached the service attached=%v, want %v", got, tc.attached)
			}
			if got := len(resp.Attachments) > 0; got != tc.attached {
				t.Fatalf("the reply's content came back attached=%v, want %v", got, tc.attached)
			}
			if got := blobResponseData(t, resp); !bytes.Equal(got, interopData) {
				t.Fatal("corrupted data")
			}
			if len(req.Attachments) != 1 || req.Body.Child(qData).Text != "" {
				t.Fatal("sending the request changed the caller's envelope")
			}
			if err := tc.client.SendOneWay(context.Background(), to, "urn:Blob", blobRequest(interopData)); err != nil {
				t.Fatal(err)
			}
			select {
			case got := <-oneWay:
				if got.attached != tc.attached || !bytes.Equal(got.data, interopData) {
					t.Fatalf("the one-way message's content arrived attached=%v (want %v), intact=%v", got.attached, tc.attached, bytes.Equal(got.data, interopData))
				}
			case <-time.After(5 * time.Second):
				t.Fatal("the one-way message never arrived")
			}
		})
	}
	t.Run("plain-post", func(t *testing.T) {
		resp, err := http.Post(httpBase+"/Blob", "application/soap+xml", strings.NewReader(plainBlobRequest(interopData)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != contentTypeSOAP {
			t.Fatalf("status %s, Content-Type %q", resp.Status, resp.Header.Get("Content-Type"))
		}
		if requestAttached.Load() {
			t.Fatal("an inline request reached the service with attachments")
		}
		m := messageIDPattern.FindSubmatch(body)
		if m == nil {
			t.Fatalf("reply has no MessageID:\n%s", body)
		}
		if want := plainBlobReply(string(m[1]), interopData); string(body) != want {
			t.Fatalf("plain SOAP reply changed.\n got: %s\nwant: %s", body, want)
		}
	})
}

// discardFirstReplies is a binding whose first n exchanges reach the
// server and then lose the reply — the failure a retry exists for, and
// the one that re-sends a request the first attempt has already encoded.
type discardFirstReplies struct {
	*HTTPTransport
	mu sync.Mutex
	n  int
}

func (d *discardFirstReplies) RoundTrip(ctx context.Context, addr string, req *Message) (*Message, error) {
	reply, err := d.HTTPTransport.RoundTrip(ctx, addr, req)
	d.mu.Lock()
	defer d.mu.Unlock()
	if err == nil && d.n > 0 {
		d.n--
		return nil, errFlaky
	}
	return reply, err
}

// TestRetryResendsInlineRequestIntact: every attempt of a retried call
// over HTTP carries the request's content inline and intact, the last as
// the first, and the reply's content comes back inline and intact. The
// server is NewHTTPHandler's, which announces no frames, so every
// attempt stays on HTTP.
func TestRetryResendsInlineRequestIntact(t *testing.T) {
	var mu sync.Mutex
	var arrivals [][]byte
	srv := NewServer(blobService())
	srv.Use(func(ctx context.Context, call *soap.CallInfo, next soap.Handler) (*soap.Envelope, error) {
		if len(call.Request.Attachments) == 0 {
			data, _ := call.Request.ContentBytes(call.Request.Body.Child(qData))
			mu.Lock()
			arrivals = append(arrivals, data)
			mu.Unlock()
		}
		return next(ctx, call)
	})
	hs := httptest.NewServer(NewHTTPHandler(srv))
	defer hs.Close()

	client := NewClient()
	client.RegisterScheme("http", &discardFirstReplies{HTTPTransport: NewHTTPTransport(), n: 2})
	client.Use(pipeline.Retry(pipeline.RetryPolicy{
		Idempotent: pipeline.IdempotentActions("urn:Blob"),
	}))
	resp, err := client.Invoke(context.Background(), wsa.NewEPR(hs.URL+"/Blob"), "urn:Blob", blobRequest(interopData))
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Attachments) > 0 || !bytes.Equal(blobResponseData(t, resp), interopData) {
		t.Fatal("the retried call's reply did not come back inline and intact")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(arrivals) != 3 {
		t.Fatalf("%d of 3 attempts reached the service inline", len(arrivals))
	}
	for i, got := range arrivals {
		if !bytes.Equal(got, interopData) {
			t.Fatalf("attempt %d carried corrupted content", i+1)
		}
	}
}
