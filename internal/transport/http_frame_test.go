package transport

import (
	"bytes"
	"context"
	"encoding/binary"
	"io"
	"net/http"
	"runtime"
	"sync"
	"testing"
	"time"

	"uvacg/internal/pipeline"
	"uvacg/internal/soap"
	"uvacg/internal/wsa"
)

// totalAlloc runs f and reports how many bytes the process allocated
// meanwhile.
func totalAlloc(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestFramedPostCannotClaimMoreThanItCarries: a length prefix is four
// bytes of say-so, and behind POST it comes from anything that can reach
// the port. An 11-byte framed body declaring a 64 MiB envelope is refused
// with 400 before the 64 MiB are allocated — with and without a
// Content-Length — and one declaring more than a frame may hold with 413.
func TestFramedPostCannotClaimMoreThanItCarries(t *testing.T) {
	handled := false
	d := soap.NewDispatcher()
	d.Register("urn:Blob", func(context.Context, *soap.Envelope) (*soap.Envelope, error) {
		handled = true
		return nil, nil
	})
	mux := soap.NewMux()
	mux.Handle("/Blob", d)
	base, shutdown, err := ListenHTTP(NewServer(mux), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(context.Background())

	claim := func(bodyLen uint32) []byte {
		b := []byte{frameRequest, 0, 0}
		b = binary.BigEndian.AppendUint32(b, bodyLen)
		return append(b, "<x/>"...)
	}
	if len(claim(maxFrameSize)) != 11 {
		t.Fatal("the forged body is not 11 bytes")
	}
	for _, tc := range []struct {
		name   string
		body   io.Reader // a bare io.Reader goes out chunked, with no Content-Length
		status int
	}{
		{"content-length", bytes.NewReader(claim(maxFrameSize)), http.StatusBadRequest},
		{"chunked", io.MultiReader(bytes.NewReader(claim(maxFrameSize))), http.StatusBadRequest},
		{"over-the-frame-limit", bytes.NewReader(claim(maxFrameSize + 1)), http.StatusRequestEntityTooLarge},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var status int
			allocated := totalAlloc(func() {
				resp, err := http.Post(base+"/Blob", contentTypeFrame, tc.body)
				if err != nil {
					t.Fatal(err)
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				status = resp.StatusCode
			})
			if status != tc.status {
				t.Fatalf("status %d, want %d", status, tc.status)
			}
			// Client and server share this process; an HTTP exchange costs
			// tens of KiB, the claimed section 64 MiB.
			if allocated > 4<<20 {
				t.Fatalf("refusing the frame allocated %d bytes", allocated)
			}
		})
	}
	if handled {
		t.Fatal("a refused frame reached the service")
	}
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

// TestRetryResendsFramedRequestIntact: every attempt of a retried call
// carries the request's attachments raw, the last as the first.
func TestRetryResendsFramedRequestIntact(t *testing.T) {
	var mu sync.Mutex
	var arrivals [][]byte
	srv := NewServer(blobService())
	srv.Use(func(ctx context.Context, call *soap.CallInfo, next soap.Handler) (*soap.Envelope, error) {
		if len(call.Request.Attachments) == 1 {
			mu.Lock()
			arrivals = append(arrivals, call.Request.Attachments[0].Data)
			mu.Unlock()
		}
		return next(ctx, call)
	})
	base, shutdown, err := ListenHTTP(srv, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(context.Background())

	client := NewClient()
	client.RegisterScheme("http", &discardFirstReplies{HTTPTransport: NewHTTPTransport(), n: 2})
	client.Use(pipeline.Retry(pipeline.RetryPolicy{
		MaxAttempts: 3,
		Idempotent:  pipeline.IdempotentActions("urn:Blob"),
		Sleep:       func(context.Context, time.Duration) error { return nil },
	}))
	resp, err := client.Invoke(context.Background(), wsa.NewEPR(base+"/Blob"), "urn:Blob", blobRequest(interopData))
	if err != nil {
		t.Fatal(err)
	}
	if !resp.HasAttachments() || !bytes.Equal(blobResponseData(t, resp), interopData) {
		t.Fatal("the retried call's reply lost its content")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(arrivals) != 3 {
		t.Fatalf("%d of 3 attempts reached the service with an attachment", len(arrivals))
	}
	for i, got := range arrivals {
		if !bytes.Equal(got, interopData) {
			t.Fatalf("attempt %d carried corrupted content", i+1)
		}
	}
}

// FuzzFrameRoundTrip: whatever readFrame accepts re-encodes to exactly
// the bytes it consumed (one frame, one encoding), and whatever it is fed
// — told how long the input is, as an HTTP body tells it — it neither
// panics nor allocates more than the input could hold. Seeded with the
// frames TestHTTPStaysInlineWhereTCPAttaches puts on the wire.
func FuzzFrameRoundTrip(f *testing.F) {
	env, err := blobRequest(interopData).Marshal()
	if err != nil {
		f.Fatal(err)
	}
	for _, fr := range []*frame{
		{kind: frameRequest, body: env, atts: []soap.Attachment{{ID: "att-1", Data: interopData}}},
		{kind: frameRequest, path: "/Blob", body: env, atts: []soap.Attachment{{ID: "att-1", Data: interopData}}},
		{kind: frameReply, body: env, atts: []soap.Attachment{{ID: "att-1", Data: interopData}, {ID: "att-2"}}},
		{kind: frameOneWay, path: "/Blob", body: []byte("<x/>")},
		{kind: frameOneWay, path: "/Blob", body: env, atts: []soap.Attachment{{ID: "att-1", Data: interopData}}},
	} {
		var buf bytes.Buffer
		if err := writeFrameTo(&buf, fr); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add(binary.BigEndian.AppendUint32([]byte{frameRequest, 0, 0}, maxFrameSize))
	f.Fuzz(func(t *testing.T, data []byte) {
		var fr *frame
		var err error
		in := bytes.NewReader(data)
		allocated := totalAlloc(func() { fr, err = readFrame(in, int64(len(data))) })
		// The sections themselves, the frame, and a list of at most
		// maxAttachments parts; a fuzz worker's own goroutines allocate a
		// little beside it.
		if limit := uint64(len(data)) + 256<<10; allocated > limit {
			t.Fatalf("reading %d bytes allocated %d", len(data), allocated)
		}
		if err != nil {
			return
		}
		consumed := len(data) - in.Len()
		if consumed != frameLen(fr) {
			t.Fatalf("frameLen %d, consumed %d", frameLen(fr), consumed)
		}
		var out bytes.Buffer
		if err := writeFrameTo(&out, fr); err != nil {
			t.Fatalf("an accepted frame does not re-encode: %v", err)
		}
		if !bytes.Equal(out.Bytes(), data[:consumed]) {
			t.Fatalf("re-encoding differs from the %d bytes consumed", consumed)
		}
	})
}
