package transport

import (
	"bufio"
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
	frameOneWay  byte = 4 // one-way message, no reply
	frameReply   byte = 5 // response to a request frame
)

// maxFrameSize bounds a single message section (64 MiB): large enough
// for the testbed's file chunks, small enough to stop a corrupt length
// prefix from allocating unbounded memory. The body and the attachment
// section are bounded independently, each by this limit.
const maxFrameSize = 64 << 20

// maxAttachments bounds the parts of one frame.
const maxAttachments = 256

// Wire layout of a frame — what a soap.tcp connection carries back to
// back, and what an HTTP body is under contentTypeFrame (http.go):
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

// checkFrame validates the size limits the wire format can carry.
func checkFrame(fr *frame) error {
	if len(fr.path) > 0xFFFF {
		return fmt.Errorf("transport: service path too long (%d bytes)", len(fr.path))
	}
	if len(fr.body) > maxFrameSize {
		return fmt.Errorf("transport: frame body %d exceeds limit %d", len(fr.body), maxFrameSize)
	}
	if len(fr.atts) > maxAttachments {
		return fmt.Errorf("transport: %d attachments exceed limit %d", len(fr.atts), maxAttachments)
	}
	total := 0
	for _, a := range fr.atts {
		if len(a.ID) > 0xFFFF {
			return fmt.Errorf("transport: attachment id too long (%d bytes)", len(a.ID))
		}
		if total += len(a.Data); total > maxFrameSize {
			return fmt.Errorf("transport: attachment section exceeds limit %d", maxFrameSize)
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

// frameLen is the encoded size of fr.
func frameLen(fr *frame) int {
	n := 1 + 2 + len(fr.path) + 4 + len(fr.body) + 2
	for _, a := range fr.atts {
		n += 2 + len(a.ID) + 4 + len(a.Data)
	}
	return n
}

// writeFrameTo writes one whole frame to a writer that is not a
// persistent connection (an HTTP body), through a pooled buffer: a small
// frame leaves as one Write, a large attachment mostly bypasses the
// buffer.
func writeFrameTo(w io.Writer, fr *frame) error {
	bw := serveWriterPool.Get().(*bufio.Writer)
	fw := serveFramePool.Get().(*frameWriter)
	bw.Reset(w)
	fw.reset(bw, nil)
	err := fw.writeFrame(fr)
	if err == nil {
		err = bw.Flush()
	}
	bw.Reset(nil)
	fw.reset(nil, nil)
	serveWriterPool.Put(bw)
	serveFramePool.Put(fw)
	return err
}

// frameSource is where readFrame reads from: r, and how many bytes the
// carrier says are left of it (an HTTP Content-Length). A negative left
// means the carrier states no length — a soap.tcp stream.
type frameSource struct {
	r    io.Reader
	left int64
}

// fill reads exactly len(p) bytes.
func (s *frameSource) fill(p []byte) error {
	if s.left >= 0 {
		if int64(len(p)) > s.left {
			return io.ErrUnexpectedEOF
		}
		s.left -= int64(len(p))
	}
	_, err := io.ReadFull(s.r, p)
	return err
}

// section reads a section whose length the frame declared. A length
// prefix is four bytes of say-so: where the carrier has stated how much
// is left, a section that claims more is refused before it is allocated.
func (s *frameSource) section(n int) ([]byte, error) {
	if s.left >= 0 && int64(n) > s.left {
		return nil, fmt.Errorf("transport: frame declares a %d-byte section, %d bytes are left", n, s.left)
	}
	p := make([]byte, n)
	return p, s.fill(p)
}

// readFrame reads one frame; left is frameSource.left.
func readFrame(r io.Reader, left int64) (*frame, error) {
	// One fixed scratch buffer for every header field: the hot path
	// reads with io.ReadFull only, no reflection, no per-field
	// allocations.
	var hdr [4]byte
	src := frameSource{r: r, left: left}
	if err := src.fill(hdr[:1]); err != nil {
		return nil, err
	}
	fr := &frame{kind: hdr[0]}
	if fr.kind < frameRequest || fr.kind > frameReply {
		return nil, fmt.Errorf("transport: unknown frame kind %d", fr.kind)
	}
	if err := src.fill(hdr[:2]); err != nil {
		return nil, err
	}
	if plen := binary.BigEndian.Uint16(hdr[:2]); plen > 0 {
		pbuf, err := src.section(int(plen))
		if err != nil {
			return nil, err
		}
		fr.path = string(pbuf)
	}
	if err := src.fill(hdr[:4]); err != nil {
		return nil, err
	}
	blen := binary.BigEndian.Uint32(hdr[:4])
	if blen > maxFrameSize {
		return nil, fmt.Errorf("transport: frame body %d exceeds limit %d: %w", blen, maxFrameSize, soap.ErrEnvelopeTooLarge)
	}
	var err error
	if fr.body, err = src.section(int(blen)); err != nil {
		return nil, err
	}
	if err := src.fill(hdr[:2]); err != nil {
		return nil, err
	}
	count := binary.BigEndian.Uint16(hdr[:2])
	if count > maxAttachments {
		return nil, fmt.Errorf("transport: %d attachments exceed limit %d: %w", count, maxAttachments, soap.ErrEnvelopeTooLarge)
	}
	total := 0
	for i := 0; i < int(count); i++ {
		if err := src.fill(hdr[:2]); err != nil {
			return nil, err
		}
		idbuf, err := src.section(int(binary.BigEndian.Uint16(hdr[:2])))
		if err != nil {
			return nil, err
		}
		if err := src.fill(hdr[:4]); err != nil {
			return nil, err
		}
		dlen := binary.BigEndian.Uint32(hdr[:4])
		if total += int(dlen); total > maxFrameSize {
			return nil, fmt.Errorf("transport: attachment section exceeds limit %d: %w", maxFrameSize, soap.ErrEnvelopeTooLarge)
		}
		data, err := src.section(int(dlen))
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

// exchange performs one framed exchange (write fr, read one reply when
// wantReply) on a pooled or fresh connection. A failure on a reused
// pooled connection — the peer may have dropped it while idle — is
// retried once on a fresh dial. Every healthy connection returns to the
// pool.
func (t *TCPTransport) exchange(ctx context.Context, hostport string, fr *frame, wantReply bool) (*frame, error) {
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
		reply, err := t.exchangeOn(ctx, pc, fr, wantReply)
		if err != nil {
			pc.Close()
			if pc.reused && ctx.Err() == nil {
				continue // stale pooled connection: one retry on a fresh dial
			}
			return nil, err
		}
		if wantReply && reply.kind != frameReply {
			pc.Close()
			return nil, fmt.Errorf("unexpected frame kind %d in reply", reply.kind)
		}
		t.pool.put(hostport, pc)
		return reply, nil
	}
}

func (t *TCPTransport) exchangeOn(ctx context.Context, pc *pooledConn, fr *frame, wantReply bool) (*frame, error) {
	if dl, ok := ctx.Deadline(); ok {
		pc.conn.SetDeadline(dl)
	}
	stop := watchCancel(ctx, pc.conn)
	defer stop()
	if err := pc.fw.writeFrame(fr); err != nil {
		return nil, ctxIOErr(ctx, err)
	}
	if err := pc.bw.Flush(); err != nil {
		return nil, ctxIOErr(ctx, err)
	}
	if !wantReply {
		return nil, nil
	}
	reply, err := readFrame(pc.br, -1)
	if err != nil {
		if ce := ctxIOErr(ctx, err); ce != err {
			return nil, ce
		}
		return nil, fmt.Errorf("reading reply frame: %w", err)
	}
	return reply, nil
}

// RoundTrip implements RoundTripper: attachments travel raw in the
// frame's attachment section, both ways.
func (t *TCPTransport) RoundTrip(ctx context.Context, addr string, request *Message) (*Message, error) {
	hostport, path, err := splitTCPAddr(addr)
	if err != nil {
		return nil, err
	}
	reply, err := t.exchange(ctx, hostport, &frame{kind: frameRequest, path: path, body: request.Envelope, atts: request.Attachments}, true)
	if err != nil {
		return nil, err
	}
	return &Message{Envelope: reply.body, Attachments: reply.atts}, nil
}

// Send implements RoundTripper's one-way hand-off.
func (t *TCPTransport) Send(ctx context.Context, addr string, request *Message) error {
	hostport, path, err := splitTCPAddr(addr)
	if err != nil {
		return err
	}
	_, err = t.exchange(ctx, hostport, &frame{kind: frameOneWay, path: path, body: request.Envelope, atts: request.Attachments}, false)
	return err
}

// Buffered reader/writer and frame-writer pools for server-side
// connections: one trio per live connection, recycled across
// connections rather than reallocated.
var (
	serveReaderPool = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, 32<<10) }}
	serveWriterPool = sync.Pool{New: func() any { return bufio.NewWriterSize(nil, 32<<10) }}
	serveFramePool  = sync.Pool{New: func() any { return &frameWriter{} }}
)

// TCPListener hosts a Server behind the soap.tcp binding.
type TCPListener struct {
	srv      *Server
	listener net.Listener
	wg       sync.WaitGroup
	closed   chan struct{}

	mu    sync.Mutex
	conns map[net.Conn]struct{}
}

// ListenTCP starts serving srv on addr (host:port; empty port picks a
// free one). The returned listener reports its bound address and stops
// on Close.
func ListenTCP(srv *Server, addr string) (*TCPListener, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	tl := &TCPListener{srv: srv, listener: l, closed: make(chan struct{}), conns: make(map[net.Conn]struct{})}
	tl.wg.Add(1)
	go tl.acceptLoop()
	return tl, nil
}

// Addr returns the bound host:port.
func (tl *TCPListener) Addr() string { return tl.listener.Addr().String() }

// BaseURL returns the soap.tcp:// URL prefix for this listener.
func (tl *TCPListener) BaseURL() string { return SchemeTCP + "://" + tl.Addr() }

// Close stops accepting, force-closes live connections (persistent
// clients may otherwise hold them open indefinitely) and waits for the
// per-connection goroutines.
func (tl *TCPListener) Close() error {
	close(tl.closed)
	err := tl.listener.Close()
	tl.mu.Lock()
	for c := range tl.conns {
		c.Close()
	}
	tl.mu.Unlock()
	tl.wg.Wait()
	return err
}

// track registers a live connection for Close; it refuses (and closes)
// connections accepted after shutdown began.
func (tl *TCPListener) track(conn net.Conn) bool {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	select {
	case <-tl.closed:
		conn.Close()
		return false
	default:
	}
	tl.conns[conn] = struct{}{}
	return true
}

func (tl *TCPListener) untrack(conn net.Conn) {
	tl.mu.Lock()
	delete(tl.conns, conn)
	tl.mu.Unlock()
}

func (tl *TCPListener) acceptLoop() {
	defer tl.wg.Done()
	backoff := 5 * time.Millisecond
	for {
		conn, err := tl.listener.Accept()
		if err != nil {
			select {
			case <-tl.closed:
				return
			default:
			}
			// Transient accept failure (fd exhaustion, aborted
			// handshake): back off instead of busy-spinning.
			select {
			case <-tl.closed:
				return
			case <-time.After(backoff):
			}
			if backoff *= 2; backoff > time.Second {
				backoff = time.Second
			}
			continue
		}
		backoff = 5 * time.Millisecond
		if !tl.track(conn) {
			return
		}
		tl.wg.Add(1)
		go func() {
			defer tl.wg.Done()
			tl.serveConn(conn)
		}()
	}
}

// serveConn serves frames until the peer goes away: clients multiplex
// many sequential exchanges over one persistent connection.
func (tl *TCPListener) serveConn(conn net.Conn) {
	defer tl.untrack(conn)
	defer conn.Close()
	br := serveReaderPool.Get().(*bufio.Reader)
	bw := serveWriterPool.Get().(*bufio.Writer)
	fw := serveFramePool.Get().(*frameWriter)
	br.Reset(conn)
	bw.Reset(conn)
	fw.reset(bw, conn)
	defer func() {
		br.Reset(nil)
		bw.Reset(nil)
		fw.reset(nil, nil)
		serveReaderPool.Put(br)
		serveWriterPool.Put(bw)
		serveFramePool.Put(fw)
	}()
	ctx := context.Background()
	for {
		fr, err := readFrame(br, -1)
		if err != nil {
			// Includes an unknown frame kind — another protocol or
			// corruption: drop the connection.
			return
		}
		switch fr.kind {
		case frameOneWay:
			tl.srv.HandleOneWay(ctx, fr.path, &Message{Envelope: fr.body, Attachments: fr.atts})
		case frameRequest:
			resp := tl.srv.HandleRequest(ctx, fr.path, &Message{Envelope: fr.body, Attachments: fr.atts})
			if err := fw.writeFrame(&frame{kind: frameReply, body: resp.Envelope, atts: resp.Attachments}); err != nil {
				return
			}
			if err := bw.Flush(); err != nil {
				return
			}
		default:
			// A reply frame has no business arriving at a server.
			return
		}
	}
}
