package transport

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"uvacg/internal/soap"
)

// exactReadMax is the largest stated length — an HTTP Content-Length, a
// frame section's prefix — read into a buffer allocated before its bytes
// arrive. The length is say-so from whoever reaches the port, so a larger
// body or section grows as it is read.
const exactReadMax = 1 << 20

// maxEnvelope is the bound every binding holds an envelope to — an HTTP
// body, and a frame's body and attachment section each (checkFrame,
// readFrame): soap.MaxEnvelopeBytes, lowered only by tests.
var maxEnvelope int64 = soap.MaxEnvelopeBytes

// readBounded buffers an HTTP body of the stated length (-1: chunked) up
// to soap.MaxEnvelopeBytes, failing instead of allocating without limit
// on an oversized or malicious body. A stated length over the bound is
// refused before a byte is read; one within it is read into one buffer
// of exactly that length.
func readBounded(r io.Reader, length int64) ([]byte, error) {
	if err := bounded(length); err != nil {
		return nil, err
	}
	if length < 0 || length > exactReadMax {
		data, err := io.ReadAll(io.LimitReader(r, maxEnvelope+1))
		if err != nil {
			return nil, err
		}
		return data, bounded(int64(len(data)))
	}
	data := make([]byte, length)
	if _, err := io.ReadFull(r, data); err != nil {
		return nil, err
	}
	return data, nil
}

// bounded is the envelope bound's verdict on an n-byte envelope.
func bounded(n int64) error {
	if n > maxEnvelope {
		return fmt.Errorf("%w (limit %d bytes)", soap.ErrEnvelopeTooLarge, maxEnvelope)
	}
	return nil
}

// contentTypeSOAP is the SOAP 1.2 media type.
const contentTypeSOAP = "application/soap+xml; charset=utf-8"

// headerOneWay marks a POST as a one-way message: the server acknowledges
// receipt with 202 Accepted before dispatch, matching the paper's
// "one-way message closes the connection immediately" semantics as
// closely as HTTP allows. A message it cannot take (no envelope, no
// service at the path) is answered 500 with the Sender fault instead.
const headerOneWay = "X-Soap-One-Way"

// headerAltSvc is the header a Listener's HTTP answers announce its
// frames in (RFC 7838): soap.tcp=":<port>", the same host and port.
const headerAltSvc = "Alt-Svc"

// announce is the Alt-Svc value of a Listener bound to addr.
func announce(addr net.Addr) []string {
	_, port, _ := net.SplitHostPort(addr.String())
	return []string{SchemeTCP + `=":` + port + `"`}
}

// announcesFrames reports whether Alt-Svc values offer soap.tcp on port,
// the port that answered. An alternative on another host or port, or
// for another protocol, is not taken: only the port's own frames are.
func announcesFrames(values []string, port string) bool {
	want := `":` + port + `"`
	for _, v := range values {
		for _, alt := range strings.Split(v, ",") {
			alt, _, _ = strings.Cut(alt, ";") // parameters (ma=, persist=) change nothing here
			proto, authority, _ := strings.Cut(strings.TrimSpace(alt), "=")
			if proto == SchemeTCP && authority == want {
				return true
			}
		}
	}
	return false
}

// HTTPTransport is the http:// client binding.
type HTTPTransport struct {
	client *http.Client
	// learn, when set, is told the host:port of every answer that
	// announced the port's own frames (the client's frame pool learns it).
	learn func(hostport string)
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

// CloseIdleConnections drops the keep-alive connections the binding
// holds.
func (t *HTTPTransport) CloseIdleConnections() { t.client.CloseIdleConnections() }

// post sends msg as one POST of plain SOAP, marked one-way or not. HTTP
// carries no attachment parts: a message that still has them is refused
// rather than sent without them (Client.outbound inlines them first).
// The caller closes the response body.
func (t *HTTPTransport) post(ctx context.Context, addr string, msg *Message, oneWay bool) (*http.Response, error) {
	if len(msg.Attachments) > 0 {
		return nil, fmt.Errorf("transport: %d attachment part(s) on an HTTP message; HTTP carries plain SOAP", len(msg.Attachments))
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, addr, bytes.NewReader(msg.Envelope))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", contentTypeSOAP)
	if oneWay {
		req.Header.Set(headerOneWay, "1")
	}
	resp, err := t.client.Do(req)
	if err == nil && t.learn != nil {
		if alt := resp.Header[headerAltSvc]; len(alt) > 0 {
			// A URL without a port names none to dial frames on.
			if port := req.URL.Port(); port != "" && announcesFrames(alt, port) {
				t.learn(req.URL.Host)
			}
		}
	}
	return resp, err
}

// RoundTrip implements RoundTripper for plain SOAP: the request carries
// no attachment parts, and content in the reply is inline base64.
func (t *HTTPTransport) RoundTrip(ctx context.Context, addr string, request *Message) (*Message, error) {
	resp, err := t.post(ctx, addr, request, false)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := readBounded(resp.Body, resp.ContentLength)
	if err != nil {
		return nil, err
	}
	// SOAP faults ride on 500s; both 200 and 500 carry envelopes.
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusInternalServerError {
		return nil, fmt.Errorf("http status %s", resp.Status)
	}
	return &Message{Envelope: data}, nil
}

// Send implements RoundTripper's one-way hand-off.
func (t *HTTPTransport) Send(ctx context.Context, addr string, request *Message) error {
	resp, err := t.post(ctx, addr, request, true)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusInternalServerError {
		answer, err := readBounded(resp.Body, resp.ContentLength)
		if err != nil {
			return err
		}
		return refusal(&Message{Envelope: answer})
	}
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
	// altSvc is the Alt-Svc header of every answer: a Listener's port
	// announces its frames (announce). Nil for NewHTTPHandler, whose
	// server may not speak them.
	altSvc []string
}

// NewHTTPHandler wraps srv for HTTP hosting. It announces nothing: what
// it is served on is net/http's, and need not answer frames.
func NewHTTPHandler(srv *Server) *HTTPHandler { return &HTTPHandler{server: srv} }

// ServeHTTP implements http.Handler.
func (h *HTTPHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h.altSvc != nil {
		w.Header()[headerAltSvc] = h.altSvc
	}
	if r.Method != http.MethodPost {
		http.Error(w, "SOAP endpoint: POST only", http.StatusMethodNotAllowed)
		return
	}
	data, err := readBounded(r.Body, r.ContentLength)
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, soap.ErrEnvelopeTooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		http.Error(w, err.Error(), status)
		return
	}
	if r.Header.Get(headerOneWay) == "1" {
		if fault := h.server.HandleOneWay(r.Context(), r.URL.Path, &Message{Envelope: data}); fault != nil {
			w.Header().Set("Content-Type", contentTypeSOAP)
			w.Header().Set("Content-Length", strconv.Itoa(len(fault.Envelope)))
			w.WriteHeader(http.StatusInternalServerError)
			w.Write(fault.Envelope)
			return
		}
		w.WriteHeader(http.StatusAccepted)
		return
	}
	// HTTP carries plain SOAP: reply content goes inline as base64.
	resp := h.server.handle(r.Context(), r.URL.Path, &Message{Envelope: data}, false, marshalExact)
	// A stated length lets the requester read the reply into one buffer;
	// net/http would chunk one over its 2 KiB write buffer.
	w.Header().Set("Content-Type", contentTypeSOAP)
	w.Header().Set("Content-Length", strconv.Itoa(len(resp.Envelope)))
	w.Write(resp.Envelope)
}
