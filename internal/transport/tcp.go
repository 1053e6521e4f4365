package transport

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"net/url"
	"sync"
	"time"

	"uvacg/internal/soap"
)

// SchemeTCP is the URI scheme of the framed-TCP binding, the analog of
// WSE's SOAP-over-TCP that the paper's File System Service prefers for
// moving large files (paper §4.1).
const SchemeTCP = "soap.tcp"

// Frame kinds on the wire. Every frame carries the attachment section
// after the body — the MTOM/XOP-style binary fast path; a frame without
// attachments pays two bytes for the zero count. Values 0–2 belonged to
// a retired framing without that section and are rejected like any
// other unknown kind.
const (
	frameRequest byte = 3 // request; a reply frame follows
	frameOneWay  byte = 4 // one-way message; a receipt frame follows
	frameReply   byte = 5 // response to a request frame
	frameReceipt byte = 6 // a one-way message was taken (HTTP's 202); path, body and attachments empty
)

// receipt is the one receipt frame; writers only read it.
var receipt = frame{kind: frameReceipt}

// answerKind is the kind of the frame that answers one of kind sent.
func answerKind(sent byte) byte {
	if sent == frameOneWay {
		return frameReceipt
	}
	return frameReply
}

// maxAttachments bounds the parts of one frame.
const maxAttachments = 256

// Wire layout of a frame — what a soap.tcp connection carries back to
// back:
//
//	kind    uint8
//	pathLen uint16 (big endian)   service path, request/one-way only
//	path    [pathLen]byte
//	bodyLen uint32 (big endian)
//	body    [bodyLen]byte         serialized SOAP envelope
//	attCount uint16 (big endian)
//	per attachment:
//	  idLen   uint16
//	  id      [idLen]byte         the cid the body's xop:Include references
//	  dataLen uint32
//	  data    [dataLen]byte       raw bytes, no base64, no XML escaping
type frame struct {
	kind byte
	path string
	body []byte
	atts []soap.Attachment
}

// checkFrame validates the size limits the wire format can carry. The
// body and the attachment section are each held to the envelope bound
// (maxEnvelope) that HTTP holds a body to, so a frame the peer would
// refuse is refused before it is sent.
func checkFrame(fr *frame) error {
	if len(fr.path) > 0xFFFF {
		return fmt.Errorf("transport: service path too long (%d bytes)", len(fr.path))
	}
	if err := bounded(int64(len(fr.body))); err != nil {
		return fmt.Errorf("transport: frame body of %d bytes: %w", len(fr.body), err)
	}
	if len(fr.atts) > maxAttachments {
		return fmt.Errorf("transport: %d attachments exceed limit %d", len(fr.atts), maxAttachments)
	}
	total := 0
	for _, a := range fr.atts {
		if len(a.ID) > 0xFFFF {
			return fmt.Errorf("transport: attachment id too long (%d bytes)", len(a.ID))
		}
		total += len(a.Data)
		if err := bounded(int64(total)); err != nil {
			return fmt.Errorf("transport: attachment section: %w", err)
		}
	}
	return nil
}

// vectoredThreshold is the payload size past which a frame bypasses the
// bufio copy and goes out as one vectored (writev) syscall: below it the
// 32 KiB write buffer coalesces better; above it copying through the
// buffer costs more than the gather write saves.
const vectoredThreshold = 16 << 10

// frameWriter serializes frames onto one connection, reusing a header
// scratch across frames (steady-state small-frame writes allocate
// nothing) and gathering header + body + attachment sections into a
// single vectored write for large frames.
type frameWriter struct {
	bw   *bufio.Writer
	conn net.Conn // nil: no vectored path, everything goes through bw
	hdr  []byte
	vecs net.Buffers
}

func newFrameWriter(bw *bufio.Writer, conn net.Conn) *frameWriter {
	return &frameWriter{bw: bw, conn: conn}
}

func (fw *frameWriter) reset(bw *bufio.Writer, conn net.Conn) {
	fw.bw, fw.conn = bw, conn
	fw.vecs = fw.vecs[:0]
}

// appendHeader appends the frame's fixed header to fw.hdr and returns
// the appended slice region.
func (fw *frameWriter) appendHeader(fr *frame) []byte {
	h := fw.hdr[:0]
	h = append(h, fr.kind)
	h = binary.BigEndian.AppendUint16(h, uint16(len(fr.path)))
	h = append(h, fr.path...)
	h = binary.BigEndian.AppendUint32(h, uint32(len(fr.body)))
	fw.hdr = h
	return h
}

// payloadSize is the frame's total body+attachment byte count.
func payloadSize(fr *frame) int {
	n := len(fr.body)
	for _, a := range fr.atts {
		n += len(a.Data)
	}
	return n
}

// writeFrame writes one frame. Large frames flush the buffered writer
// and go out with a gather write directly on the connection; small ones
// coalesce in the buffer as before.
func (fw *frameWriter) writeFrame(fr *frame) error {
	if err := checkFrame(fr); err != nil {
		return err
	}
	if fw.conn != nil && payloadSize(fr) >= vectoredThreshold {
		return fw.writeVectored(fr)
	}
	if _, err := fw.bw.Write(fw.appendHeader(fr)); err != nil {
		return err
	}
	if _, err := fw.bw.Write(fr.body); err != nil {
		return err
	}
	// The attachment section's headers reuse the scratch: bufio has
	// copied (or written out) the fixed header by now.
	h := binary.BigEndian.AppendUint16(fw.hdr[:0], uint16(len(fr.atts)))
	if _, err := fw.bw.Write(h); err != nil {
		return err
	}
	for _, a := range fr.atts {
		h = binary.BigEndian.AppendUint16(h[:0], uint16(len(a.ID)))
		h = append(h, a.ID...)
		h = binary.BigEndian.AppendUint32(h, uint32(len(a.Data)))
		if _, err := fw.bw.Write(h); err != nil {
			return err
		}
		if _, err := fw.bw.Write(a.Data); err != nil {
			return err
		}
	}
	fw.hdr = h
	return nil
}

// writeVectored emits the frame as one net.Buffers gather write: frame
// header, body and each attachment's header/id/data segments leave in a
// single writev without being coalesced through the bufio copy.
func (fw *frameWriter) writeVectored(fr *frame) error {
	// Anything buffered ahead of this frame must hit the wire first.
	if err := fw.bw.Flush(); err != nil {
		return err
	}
	// All header segments live in one scratch slab; vecs alias into it,
	// so the slab must be grown to its final size up front — a mid-build
	// realloc would leave earlier segments pointing at the old array.
	need := 7 + len(fr.path) + 2
	for _, a := range fr.atts {
		need += 6 + len(a.ID)
	}
	if cap(fw.hdr) < need {
		fw.hdr = make([]byte, 0, need)
	}
	h := fw.appendHeader(fr)
	vecs := append(fw.vecs[:0], h, fr.body)
	mark := len(fw.hdr)
	fw.hdr = binary.BigEndian.AppendUint16(fw.hdr, uint16(len(fr.atts)))
	vecs = append(vecs, fw.hdr[mark:])
	for _, a := range fr.atts {
		mark = len(fw.hdr)
		fw.hdr = binary.BigEndian.AppendUint16(fw.hdr, uint16(len(a.ID)))
		fw.hdr = append(fw.hdr, a.ID...)
		fw.hdr = binary.BigEndian.AppendUint32(fw.hdr, uint32(len(a.Data)))
		vecs = append(vecs, fw.hdr[mark:], a.Data)
	}
	// WriteTo consumes vecs as segments drain; keep the backing array
	// for reuse but drop the consumed view.
	consumable := vecs
	_, err := consumable.WriteTo(fw.conn)
	fw.vecs = vecs[:0]
	return err
}

// readSection reads a section whose length the frame declared. A length
// prefix is four bytes of say-so, and a stream states no length of its
// own: a section up to exactReadMax is read into one buffer of its
// length, a longer one in exactReadMax pieces joined once all of it has
// arrived, so a peer that declares more than it sends costs what it sent.
func readSection(r io.Reader, n int) ([]byte, error) {
	if n <= exactReadMax {
		p := make([]byte, n)
		_, err := io.ReadFull(r, p)
		return p, err
	}
	var pieces [][]byte
	for left := n; left > 0; left -= exactReadMax {
		p := make([]byte, min(left, exactReadMax))
		if _, err := io.ReadFull(r, p); err != nil {
			return nil, err
		}
		pieces = append(pieces, p)
	}
	return bytes.Join(pieces, nil), nil
}

// readFrame reads one frame from a stream.
func readFrame(r io.Reader) (*frame, error) {
	// One fixed scratch buffer for every header field: the hot path
	// reads with io.ReadFull only, no reflection, no per-field
	// allocations.
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:1]); err != nil {
		return nil, err
	}
	fr := &frame{kind: hdr[0]}
	if fr.kind < frameRequest || fr.kind > frameReceipt {
		return nil, fmt.Errorf("transport: unknown frame kind %d", fr.kind)
	}
	if _, err := io.ReadFull(r, hdr[:2]); err != nil {
		return nil, err
	}
	if plen := binary.BigEndian.Uint16(hdr[:2]); plen > 0 {
		pbuf, err := readSection(r, int(plen))
		if err != nil {
			return nil, err
		}
		fr.path = string(pbuf)
	}
	if _, err := io.ReadFull(r, hdr[:4]); err != nil {
		return nil, err
	}
	blen := binary.BigEndian.Uint32(hdr[:4])
	if err := bounded(int64(blen)); err != nil {
		return nil, fmt.Errorf("transport: frame body of %d bytes: %w", blen, err)
	}
	var err error
	if fr.body, err = readSection(r, int(blen)); err != nil {
		return nil, err
	}
	if _, err := io.ReadFull(r, hdr[:2]); err != nil {
		return nil, err
	}
	count := binary.BigEndian.Uint16(hdr[:2])
	if count > maxAttachments {
		return nil, fmt.Errorf("transport: %d attachments exceed limit %d: %w", count, maxAttachments, soap.ErrEnvelopeTooLarge)
	}
	var total int64
	for i := 0; i < int(count); i++ {
		if _, err := io.ReadFull(r, hdr[:2]); err != nil {
			return nil, err
		}
		idbuf, err := readSection(r, int(binary.BigEndian.Uint16(hdr[:2])))
		if err != nil {
			return nil, err
		}
		if _, err := io.ReadFull(r, hdr[:4]); err != nil {
			return nil, err
		}
		dlen := binary.BigEndian.Uint32(hdr[:4])
		total += int64(dlen)
		if err := bounded(total); err != nil {
			return nil, fmt.Errorf("transport: attachment section: %w", err)
		}
		data, err := readSection(r, int(dlen))
		if err != nil {
			return nil, err
		}
		fr.atts = append(fr.atts, soap.Attachment{ID: string(idbuf), Data: data})
	}
	return fr, nil
}

// TCPTransport is the soap.tcp:// client binding. Connections persist
// in a bounded per-host pool (pool.go) and are reused across messages.
type TCPTransport struct {
	dialer net.Dialer
	pool   connPool
}

// NewTCPTransport builds the binding.
func NewTCPTransport() *TCPTransport {
	return &TCPTransport{dialer: net.Dialer{Timeout: 10 * time.Second}}
}

// CloseIdleConnections drops every pooled connection.
func (t *TCPTransport) CloseIdleConnections() { t.pool.closeIdle() }

func splitTCPAddr(addr string) (hostport, path string, err error) {
	u, err := url.Parse(addr)
	if err != nil {
		return "", "", err
	}
	if u.Scheme != SchemeTCP {
		return "", "", fmt.Errorf("transport: %q is not a %s address", addr, SchemeTCP)
	}
	path = u.Path
	if path == "" {
		path = "/"
	}
	return u.Host, path, nil
}

// watchCancel interrupts blocking I/O on conn when ctx is cancelled,
// covering cancellation without a deadline (SetDeadline alone only
// handles the deadline case). The returned stop func must be called
// once the I/O is over; it reports whether cancellation fired.
func watchCancel(ctx context.Context, conn net.Conn) (stop func() bool) {
	if ctx.Done() == nil {
		return func() bool { return false }
	}
	done := make(chan struct{})
	fired := make(chan bool, 1)
	go func() {
		select {
		case <-ctx.Done():
			// A deadline in the past unblocks any in-flight Read/Write
			// immediately with a timeout error.
			conn.SetDeadline(time.Now())
			fired <- true
		case <-done:
			fired <- false
		}
	}()
	return func() bool {
		close(done)
		return <-fired
	}
}

// ctxIOErr prefers the context's error over the I/O error it provoked,
// so a cancelled call surfaces context.Canceled rather than an opaque
// "i/o timeout" from the poisoned deadline.
func ctxIOErr(ctx context.Context, err error) error {
	if err != nil && ctx.Err() != nil {
		return ctx.Err()
	}
	return err
}

// exchange performs one framed exchange on a pooled or fresh connection:
// it writes fr and reads the frame that answers it, a reply to a request
// or a receipt to a one-way message. Every healthy connection returns to
// the pool.
//
// A failure on a reused pooled connection before the first byte of the
// answer is retried once on a fresh dial: the peer may have closed the
// connection while it sat idle, and then it never read the frame. The
// retry replays the frame only when the peer did read it and lost the
// connection before it began to answer: a server that crashed, or was
// closed (Listener.Close), with a request inside its handler or a one-way
// message not yet taken. A graceful stop (ListenHTTP's shutdown) closes a
// framed connection only between frames and answers every frame it has
// read, so it causes no replay. A failure once the answer has begun is
// never retried: the peer has acted on the frame.
func (t *TCPTransport) exchange(ctx context.Context, hostport string, fr *frame) (*frame, error) {
	for attempt := 0; ; attempt++ {
		var pc *pooledConn
		if attempt == 0 {
			pc = t.pool.get(hostport)
		}
		if pc == nil {
			conn, err := t.dialer.DialContext(ctx, "tcp", hostport)
			if err != nil {
				return nil, err
			}
			pc = newPooledConn(conn)
		}
		answer, answered, err := t.exchangeOn(ctx, pc, fr)
		if err != nil {
			pc.Close()
			if pc.reused && !answered && ctx.Err() == nil {
				continue // stale pooled connection: one retry on a fresh dial
			}
			return nil, err
		}
		// A one-way frame the listener could not take is answered by a
		// reply carrying its fault (Send reads it).
		refused := fr.kind == frameOneWay && answer.kind == frameReply
		if want := answerKind(fr.kind); answer.kind != want && !refused {
			pc.Close()
			return nil, fmt.Errorf("frame kind %d answered a frame of kind %d, want %d", answer.kind, fr.kind, want)
		}
		t.pool.put(hostport, pc)
		return answer, nil
	}
}

// exchangeOn is exchange on one connection; answered reports whether a
// byte of the answer had arrived when it failed.
func (t *TCPTransport) exchangeOn(ctx context.Context, pc *pooledConn, fr *frame) (answer *frame, answered bool, err error) {
	if dl, ok := ctx.Deadline(); ok {
		pc.conn.SetDeadline(dl)
	}
	stop := watchCancel(ctx, pc.conn)
	defer stop()
	if err := pc.fw.writeFrame(fr); err != nil {
		return nil, false, ctxIOErr(ctx, err)
	}
	if err := pc.bw.Flush(); err != nil {
		return nil, false, ctxIOErr(ctx, err)
	}
	if _, err := pc.br.Peek(1); err != nil {
		return nil, false, readErr(ctx, err)
	}
	if answer, err = readFrame(pc.br); err != nil {
		return nil, true, readErr(ctx, err)
	}
	return answer, true, nil
}

// readErr is a failure to read the answering frame.
func readErr(ctx context.Context, err error) error {
	if ce := ctxIOErr(ctx, err); ce != err {
		return ce
	}
	return fmt.Errorf("reading reply frame: %w", err)
}

// RoundTrip implements RoundTripper: attachments travel raw in the
// frame's attachment section, both ways.
func (t *TCPTransport) RoundTrip(ctx context.Context, addr string, request *Message) (*Message, error) {
	hostport, path, err := splitTCPAddr(addr)
	if err != nil {
		return nil, err
	}
	reply, err := t.exchange(ctx, hostport, &frame{kind: frameRequest, path: path, body: request.Envelope, atts: request.Attachments})
	if err != nil {
		return nil, err
	}
	return &Message{Envelope: reply.body, Attachments: reply.atts}, nil
}

// Send implements RoundTripper's one-way hand-off: it returns once the
// listener's receipt has arrived, so a message the peer never took fails
// here as it does over HTTP without a 202, and one it refused fails with
// the fault it answered instead.
func (t *TCPTransport) Send(ctx context.Context, addr string, request *Message) error {
	hostport, path, err := splitTCPAddr(addr)
	if err != nil {
		return err
	}
	answer, err := t.exchange(ctx, hostport, &frame{kind: frameOneWay, path: path, body: request.Envelope, atts: request.Attachments})
	if err != nil {
		return err
	}
	if answer.kind == frameReply {
		return refusal(&Message{Envelope: answer.body})
	}
	return nil
}

// Buffered reader/writer and frame-writer pools for server-side
// connections: one trio per live connection, recycled across
// connections rather than reallocated.
var (
	serveReaderPool = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, 32<<10) }}
	serveWriterPool = sync.Pool{New: func() any { return bufio.NewWriterSize(nil, 32<<10) }}
	serveFramePool  = sync.Pool{New: func() any { return &frameWriter{} }}
)
