package transport

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"uvacg/internal/soap"
)

// readBounded buffers r up to soap.MaxEnvelopeBytes, failing instead of
// allocating without limit on an oversized or malicious body.
func readBounded(r io.Reader) ([]byte, error) {
	data, err := io.ReadAll(io.LimitReader(r, soap.MaxEnvelopeBytes()+1))
	if err != nil {
		return nil, err
	}
	return data, bounded(data)
}

// bounded is readBounded's verdict on an envelope already in memory.
func bounded(envelope []byte) error {
	if max := soap.MaxEnvelopeBytes(); int64(len(envelope)) > max {
		return fmt.Errorf("%w (limit %d bytes)", soap.ErrEnvelopeTooLarge, max)
	}
	return nil
}

// contentTypeSOAP is the SOAP 1.2 media type.
const contentTypeSOAP = "application/soap+xml; charset=utf-8"

// contentTypeFrame is the media type of an HTTP body that is one frame
// (tcp.go: the envelope, then the attachment section raw) — how a message
// with attachments crosses HTTP between this code's client and server
// without becoming base64 text. A request that has attachments is sent
// so; a reply is framed only for a requester whose Accept header names
// this type, and a plain SOAP requester gets the attachments inlined into
// an ordinary envelope.
const contentTypeFrame = "application/vnd.uvacg.soap-frame"

// headerOneWay marks a POST as a one-way message: the server acknowledges
// receipt with 202 Accepted before dispatch, matching the paper's
// "one-way message closes the connection immediately" semantics as
// closely as HTTP allows.
const headerOneWay = "X-Soap-One-Way"

// readHTTPMessage reads an HTTP body of the given Content-Type and
// Content-Length as a message: a frame of the wanted kind, or a bare
// envelope.
func readHTTPMessage(contentType string, body io.Reader, length int64, kind byte) (*Message, error) {
	if contentType != contentTypeFrame {
		data, err := readBounded(body)
		return &Message{Envelope: data}, err
	}
	if length < 0 {
		// A chunked body states no length: buffer it under the envelope
		// bound as it arrives, and what arrived is what is left.
		data, err := readBounded(body)
		if err != nil {
			return nil, err
		}
		body, length = bytes.NewReader(data), int64(len(data))
	}
	br := serveReaderPool.Get().(*bufio.Reader)
	br.Reset(body)
	fr, err := readFrame(br, length)
	br.Reset(nil)
	serveReaderPool.Put(br)
	if err != nil {
		return nil, err
	}
	if fr.kind != kind {
		return nil, fmt.Errorf("transport: unexpected frame kind %d in HTTP body", fr.kind)
	}
	return &Message{Envelope: fr.body, Attachments: fr.atts}, nil
}

// HTTPTransport is the http:// client binding.
type HTTPTransport struct {
	client *http.Client
}

// NewHTTPTransport builds the binding with sane connection pooling.
func NewHTTPTransport() *HTTPTransport {
	return &HTTPTransport{client: &http.Client{
		Transport: &http.Transport{
			MaxIdleConnsPerHost: 64,
			IdleConnTimeout:     30 * time.Second,
		},
	}}
}

// post sends msg as one POST: a framed body when it has attachments, a
// bare envelope otherwise; marked one-way, or saying the caller takes a
// framed reply. The caller closes the response body.
func (t *HTTPTransport) post(ctx context.Context, addr string, msg *Message, oneWay bool) (*http.Response, error) {
	body, contentType := msg.Envelope, contentTypeSOAP
	if len(msg.Attachments) > 0 {
		// The URL carries the service path and headerOneWay the kind; the
		// frame's path stays empty and its kind a request's.
		fr := &frame{kind: frameRequest, body: msg.Envelope, atts: msg.Attachments}
		buf := bytes.NewBuffer(make([]byte, 0, frameLen(fr)))
		if err := writeFrameTo(buf, fr); err != nil {
			return nil, err
		}
		body, contentType = buf.Bytes(), contentTypeFrame
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, addr, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", contentType)
	if oneWay {
		req.Header.Set(headerOneWay, "1")
	} else {
		req.Header.Set("Accept", "application/soap+xml, "+contentTypeFrame)
	}
	return t.client.Do(req)
}

// RoundTrip implements RoundTripper: attachments travel raw in a framed
// body, both ways.
func (t *HTTPTransport) RoundTrip(ctx context.Context, addr string, request *Message) (*Message, error) {
	resp, err := t.post(ctx, addr, request, false)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	reply, err := readHTTPMessage(resp.Header.Get("Content-Type"), resp.Body, resp.ContentLength, frameReply)
	if err != nil {
		return nil, err
	}
	// SOAP faults ride on 500s; both 200 and 500 carry envelopes.
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusInternalServerError {
		return nil, fmt.Errorf("http status %s", resp.Status)
	}
	return reply, nil
}

// Send implements RoundTripper's one-way hand-off.
func (t *HTTPTransport) Send(ctx context.Context, addr string, request *Message) error {
	resp, err := t.post(ctx, addr, request, true)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("one-way message not accepted: %s", resp.Status)
	}
	return nil
}

// HTTPHandler adapts a Server to net/http, so standard listeners (and
// httptest) can host the SOAP services.
type HTTPHandler struct {
	server *Server
}

// NewHTTPHandler wraps srv for HTTP hosting.
func NewHTTPHandler(srv *Server) *HTTPHandler { return &HTTPHandler{server: srv} }

// ServeHTTP implements http.Handler.
func (h *HTTPHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "SOAP endpoint: POST only", http.StatusMethodNotAllowed)
		return
	}
	msg, err := readHTTPMessage(r.Header.Get("Content-Type"), r.Body, r.ContentLength, frameRequest)
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, soap.ErrEnvelopeTooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		http.Error(w, err.Error(), status)
		return
	}
	if r.Header.Get(headerOneWay) == "1" {
		h.server.HandleOneWay(r.Context(), r.URL.Path, msg)
		w.WriteHeader(http.StatusAccepted)
		return
	}
	// The one inline fallback: a requester whose Accept does not name the
	// frame is not this code's client and gets its reply as plain SOAP.
	acceptFrame := strings.Contains(r.Header.Get("Accept"), contentTypeFrame)
	resp := h.server.handle(r.Context(), r.URL.Path, msg, acceptFrame)
	if len(resp.Attachments) == 0 {
		w.Header().Set("Content-Type", contentTypeSOAP)
		w.Write(resp.Envelope)
		return
	}
	fr := &frame{kind: frameReply, body: resp.Envelope, atts: resp.Attachments}
	w.Header().Set("Content-Type", contentTypeFrame)
	w.Header().Set("Content-Length", strconv.Itoa(frameLen(fr)))
	// A write error means the requester went away; there is nobody to tell.
	_ = writeFrameTo(w, fr)
}

// ListenHTTP starts an HTTP listener for srv on addr (host:port, empty
// port picks a free one) and returns the base URL and a shutdown func.
// Shutdown drains in-flight requests until the caller's context expires
// — the caller decides how long a graceful stop may take, rather than
// this package imposing a timeout.
func ListenHTTP(srv *Server, addr string) (baseURL string, shutdown func(context.Context) error, err error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	// http.Server.Shutdown counts a connection that has not yet sent a
	// request (StateNew) as busy for five seconds (net/http issue 22682),
	// and a peer's http.Transport leaves exactly such never-used spare
	// dials behind. Nothing on them has reached a handler, so shutdown
	// closes them first instead of waiting them out.
	var mu sync.Mutex
	unused := make(map[net.Conn]struct{})
	hs := &http.Server{
		Handler: NewHTTPHandler(srv),
		ConnState: func(c net.Conn, st http.ConnState) {
			mu.Lock()
			if st == http.StateNew {
				unused[c] = struct{}{}
			} else {
				delete(unused, c)
			}
			mu.Unlock()
		},
	}
	go hs.Serve(l)
	shutdown = func(ctx context.Context) error {
		mu.Lock()
		for c := range unused {
			c.Close()
		}
		mu.Unlock()
		return hs.Shutdown(ctx)
	}
	return "http://" + l.Addr().String(), shutdown, nil
}
