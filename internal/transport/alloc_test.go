package transport

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"uvacg/internal/soap"
	"uvacg/internal/wsa"
)

// localTCPPair returns both ends of a real loopback TCP connection, so
// the vectored write path sees an actual *net.TCPConn (net.Pipe would
// silently fall back to sequential writes).
func localTCPPair(t *testing.T) (cli, srv net.Conn) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			close(accepted)
			return
		}
		accepted <- c
	}()
	cli, err = net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	srv, ok := <-accepted
	if !ok {
		t.Fatal("accept failed")
	}
	t.Cleanup(func() { cli.Close(); srv.Close() })
	return cli, srv
}

// TestFrameWriteAllocs pins the steady-state allocation count of a
// small-frame write at zero: the frameWriter's header scratch is the
// only buffer involved and it is reused across frames. A regression
// here re-introduces per-call garbage on every soap.tcp exchange.
func TestFrameWriteAllocs(t *testing.T) {
	bw := bufio.NewWriterSize(io.Discard, 32<<10)
	fw := newFrameWriter(bw, nil)
	fr := &frame{kind: frameRequest, path: "/Scheduler", body: bytes.Repeat([]byte("x"), 512)}
	if err := fw.writeFrame(fr); err != nil { // warm the scratch
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := fw.writeFrame(fr); err != nil {
			t.Fatal(err)
		}
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("small frame write allocates %.1f times per op, want 0", allocs)
	}
}

// TestVectoredLargeFrameRoundTrip pushes a frame big enough to take the
// writeVectored (net.Buffers) path on both the client and the server
// legs and checks nothing is reordered or corrupted by the gather
// write, including interleaved small frames on the same pooled
// connection before and after.
func TestVectoredLargeFrameRoundTrip(t *testing.T) {
	tl, err := ListenTCP(NewServer(blobService()), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer tl.Close()

	client := NewClient()
	to := wsa.NewEPR(tl.BaseURL() + "/Blob")

	small := bytes.Repeat([]byte{1, 2, 3}, 64)               // stays on the buffered path
	big := bytes.Repeat([]byte{0x00, 0xFF, '<', '&'}, 1<<18) // 1 MiB: vectored on both legs
	for _, data := range [][]byte{small, big, small, big} {
		resp, err := client.Invoke(context.Background(), to, "urn:Blob", blobRequest(data))
		if err != nil {
			t.Fatal(err)
		}
		if got := blobResponseData(t, resp); !bytes.Equal(got, data) {
			t.Fatalf("round trip corrupted %d-byte payload (got %d bytes)", len(data), len(got))
		}
	}
}

// TestVectoredFrameBytesIdentical checks the vectored writer puts the
// exact same bytes on the wire as the buffered writer.
func TestVectoredFrameBytesIdentical(t *testing.T) {
	fr := &frame{kind: frameRequest, path: "/Blob", body: bytes.Repeat([]byte("e"), 20<<10)}
	fr.atts = []soap.Attachment{
		{ID: "cid:part-0", Data: bytes.Repeat([]byte{7}, 30<<10)},
		{ID: "cid:part-1", Data: []byte{}},
	}

	var buffered bytes.Buffer
	if err := writeFrame(&buffered, fr); err != nil {
		t.Fatal(err)
	}

	// A net.Pipe gives the frameWriter a real net.Conn so payloadSize
	// pushes it down the vectored branch.
	cli, srv := localTCPPair(t)
	got := make(chan []byte, 1)
	go func() {
		data, _ := io.ReadAll(srv)
		got <- data
	}()
	fw := newFrameWriter(bufio.NewWriter(cli), cli)
	if err := fw.writeFrame(fr); err != nil {
		t.Fatal(err)
	}
	cli.Close()
	if vectored := <-got; !bytes.Equal(vectored, buffered.Bytes()) {
		t.Fatalf("vectored bytes differ from buffered bytes (%d vs %d)", len(vectored), buffered.Len())
	}
}

// TestStatedLengthReadsIntoExactBuffer: a SOAP body whose length is
// stated is read into one buffer of exactly that length, not grown by
// doubling from a guess.
func TestStatedLengthReadsIntoExactBuffer(t *testing.T) {
	body := []byte(plainBlobRequest(bytes.Repeat([]byte{7}, 3000)))
	var data []byte
	r := bytes.NewReader(body)
	mallocs := testing.AllocsPerRun(50, func() {
		r.Reset(body)
		var err error
		if data, err = readBounded(r, int64(len(body))); err != nil {
			t.Fatal(err)
		}
	})
	if !bytes.Equal(data, body) {
		t.Fatal("the body read differs from the body sent")
	}
	if cap(data) != len(body) {
		t.Errorf("a %d-byte body was read into a %d-byte buffer", len(body), cap(data))
	}
	if mallocs > 1 {
		t.Errorf("reading a stated-length body allocates %.0f times, want 1", mallocs)
	}
}

// unreadable fails the test if anything reads it.
type unreadable struct{ t *testing.T }

func (u unreadable) Read([]byte) (int, error) {
	u.t.Error("a body over the envelope bound was read")
	return 0, io.ErrUnexpectedEOF
}

// TestOverBoundLengthGetsNoExactBuffer: a POST that states
// more than the envelope bound gets 413 before one byte of it is read
// (and before a buffer of that length is allocated); a chunked body over
// the bound still gets 413 once it has run past it.
func TestOverBoundLengthGetsNoExactBuffer(t *testing.T) {
	defer SetMaxEnvelope(4 << 10)()
	h := NewHTTPHandler(NewServer(blobService()))

	stated := httptest.NewRequest(http.MethodPost, "/Blob", unreadable{t})
	stated.Header.Set("Content-Type", contentTypeSOAP)
	stated.ContentLength = 4<<10 + 1
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, stated)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("stated length over the bound: status %d, want 413", rec.Code)
	}

	chunked := httptest.NewRequest(http.MethodPost, "/Blob",
		io.MultiReader(strings.NewReader(plainBlobRequest(bytes.Repeat([]byte{7}, 8<<10)))))
	chunked.Header.Set("Content-Type", contentTypeSOAP)
	chunked.ContentLength = -1
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, chunked)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("chunked body over the bound: status %d, want 413", rec.Code)
	}
}

// TestLargeReplyStatesItsLength: a plain SOAP reply bigger than
// net/http's 2 KiB write buffer still arrives with its Content-Length,
// so the requester reads it into one buffer instead of chunk by chunk.
func TestLargeReplyStatesItsLength(t *testing.T) {
	base, shutdown, err := ListenHTTP(NewServer(blobService()), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(context.Background())
	resp, err := http.Post(base+"/Blob", "application/soap+xml",
		strings.NewReader(plainBlobRequest(bytes.Repeat([]byte{7}, 4<<10))))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if len(body) <= 2<<10 {
		t.Fatalf("test setup: the reply is only %d bytes", len(body))
	}
	if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) > 0 {
		t.Fatalf("a %d-byte reply came with Content-Length %d, Transfer-Encoding %v",
			len(body), resp.ContentLength, resp.TransferEncoding)
	}
}

// TestOneWayDispatchStampsNoReply: a one-way message's reply is dropped
// (HandleOneWay reads it only for a fault to log), so its dispatch stamps
// no WS-Addressing headers on it and allocates less than a request's
// dispatch by what the stamp costs: a MessageID, the Action string, the
// header elements and the header list.
func TestOneWayDispatchStampsNoReply(t *testing.T) {
	const action = "urn:test/Ping"
	d := soap.NewDispatcher()
	d.Register(action, func(context.Context, *soap.Envelope) (*soap.Envelope, error) { return nil, nil })
	mux := soap.NewMux()
	mux.Handle("/svc", d)
	s := NewServer(mux)
	in := &inbound{
		path:       "/svc",
		env:        soap.New(nil),
		info:       wsa.MessageInfo{Action: action, MessageID: wsa.NewMessageID()},
		dispatcher: d,
	}
	ctx := context.Background()
	if resp := s.dispatch(ctx, in, true); len(resp.Headers) != 0 {
		t.Fatalf("one-way reply carries %d header(s), want none", len(resp.Headers))
	}
	if resp := s.dispatch(ctx, in, false); len(resp.Headers) != 3 {
		t.Fatalf("request reply carries %d header(s), want Action, MessageID and RelatesTo", len(resp.Headers))
	}
	oneWay := testing.AllocsPerRun(200, func() { s.dispatch(ctx, in, true) })
	request := testing.AllocsPerRun(200, func() { s.dispatch(ctx, in, false) })
	t.Logf("dispatch allocates %.0f times one-way, %.0f as a request", oneWay, request)
	if request-oneWay < 5 {
		t.Errorf("one-way dispatch allocates %.0f times, a request's %.0f: the stamp is still made", oneWay, request)
	}
}
