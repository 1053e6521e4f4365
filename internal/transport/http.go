package transport

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
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

// headerOneWay marks a POST as a one-way message: the server acknowledges
// receipt with 202 Accepted before dispatch, matching the paper's
// "one-way message closes the connection immediately" semantics as
// closely as HTTP allows.
const headerOneWay = "X-Soap-One-Way"

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

// RoundTrip implements RoundTripper.
func (t *HTTPTransport) RoundTrip(ctx context.Context, addr string, request []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, addr, bytes.NewReader(request))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", contentTypeSOAP)
	resp, err := t.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := readBounded(resp.Body)
	if err != nil {
		return nil, err
	}
	// SOAP faults ride on 500s; both 200 and 500 carry envelopes.
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusInternalServerError {
		return nil, fmt.Errorf("http status %s", resp.Status)
	}
	return body, nil
}

// Send implements RoundTripper's one-way hand-off.
func (t *HTTPTransport) Send(ctx context.Context, addr string, request []byte) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, addr, bytes.NewReader(request))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", contentTypeSOAP)
	req.Header.Set(headerOneWay, "1")
	resp, err := t.client.Do(req)
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
	body, err := readBounded(r.Body)
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, soap.ErrEnvelopeTooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		http.Error(w, err.Error(), status)
		return
	}
	if r.Header.Get(headerOneWay) == "1" {
		h.server.HandleOneWay(r.Context(), r.URL.Path, body)
		w.WriteHeader(http.StatusAccepted)
		return
	}
	resp := h.server.HandleRequest(r.Context(), r.URL.Path, body)
	w.Header().Set("Content-Type", contentTypeSOAP)
	w.Write(resp)
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
