package transport

import (
	"bufio"
	"context"
	"errors"
	"net"
	"net/http"
	"sync"
	"time"

	"uvacg/internal/soap"
)

// One port, two bindings. A listener serves soap.tcp frames and HTTP on
// the same port, and the first byte a connection sends decides which: a
// frame opens with its kind (frameRequest or frameOneWay, 3 or 4), an
// HTTP request line with a method name, a letter. ListenHTTP and
// ListenTCP open the same listener and differ only in the base URL they
// report, so an EPR may name the port in either scheme and reach the
// same Server through the same receive pipeline. Every HTTP response the
// port gives says so (Alt-Svc: soap.tcp=":<port>", RFC 7838), and a
// Client that reads it sends that port's later messages as frames.

// Listener hosts a Server on one port for both bindings.
type Listener struct {
	srv  *Server
	l    net.Listener
	http *http.Server
	// handoff is what the HTTP server accepts from: the connections whose
	// first byte is a letter.
	handoff *handoff

	// wg counts the accept loop, the HTTP server's loop and the goroutine
	// of every connection not handed to HTTP.
	wg sync.WaitGroup

	mu       sync.Mutex
	stopping bool
	// conns holds the live connections not handed to HTTP, each true
	// while a frame is being read, handled and answered on it. A false
	// one has sent nothing yet, or nothing since its last reply: a stop
	// closes it at once.
	conns     map[net.Conn]bool
	drained   chan struct{} // closed once stopping with conns empty
	drainOnce sync.Once
}

// ListenTCP starts serving srv on addr (host:port; empty port picks a
// free one) and reports the port's soap.tcp:// base; the port answers
// HTTP as well. Close stops it.
func ListenTCP(srv *Server, addr string) (*Listener, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return serve(srv, l), nil
}

// ListenHTTP starts serving srv on addr and returns the port's http://
// base and a graceful shutdown; the port answers soap.tcp as well.
// Shutdown stops accepting, closes every connection that has sent
// nothing yet or is between messages, and waits until ctx ends for the
// requests inside, HTTP and soap.tcp alike, to be answered: the caller
// decides how long a graceful stop may take.
func ListenHTTP(srv *Server, addr string) (baseURL string, shutdown func(context.Context) error, err error) {
	ln, err := ListenTCP(srv, addr)
	if err != nil {
		return "", nil, err
	}
	return "http://" + ln.Addr(), ln.shutdown, nil
}

// serve runs srv behind l.
func serve(srv *Server, l net.Listener) *Listener {
	handler := NewHTTPHandler(srv)
	handler.altSvc = announce(l.Addr())
	ln := &Listener{
		srv:     srv,
		l:       l,
		http:    &http.Server{Handler: handler},
		handoff: &handoff{addr: l.Addr(), conns: make(chan net.Conn), done: make(chan struct{})},
		conns:   make(map[net.Conn]bool),
		drained: make(chan struct{}),
	}
	ln.wg.Add(2)
	go func() {
		defer ln.wg.Done()
		ln.http.Serve(ln.handoff) // returns ErrServerClosed once stopped
	}()
	go ln.acceptLoop()
	return ln
}

// Addr returns the bound host:port.
func (ln *Listener) Addr() string { return ln.l.Addr().String() }

// BaseURL returns the soap.tcp:// URL prefix for this listener.
func (ln *Listener) BaseURL() string { return SchemeTCP + "://" + ln.Addr() }

// Close stops at once: it stops accepting, closes every connection of
// either binding, with a request inside or not (persistent clients
// would otherwise hold them open indefinitely), and waits for the
// framed connections' goroutines.
func (ln *Listener) Close() error {
	err := ln.stop(true)
	ln.http.Close()
	ln.wg.Wait()
	return err
}

// shutdown is ListenHTTP's graceful stop.
func (ln *Listener) shutdown(ctx context.Context) error {
	err := ln.stop(false)
	httpDone := make(chan error, 1)
	go func() { httpDone <- ln.http.Shutdown(ctx) }()
	select {
	case <-ln.drained:
	case <-ctx.Done():
		return ctx.Err()
	}
	if herr := <-httpDone; herr != nil {
		return herr
	}
	return err
}

// stop stops accepting and closes every framed connection that is not
// inside a frame, or every one when all.
func (ln *Listener) stop(all bool) error {
	ln.mu.Lock()
	ln.stopping = true
	for c, busy := range ln.conns {
		if all || !busy {
			c.Close()
		}
	}
	ln.checkDrained()
	ln.mu.Unlock()
	return ln.l.Close()
}

// checkDrained closes drained once the listener is stopping and holds no
// framed connection; mu is held.
func (ln *Listener) checkDrained() {
	if ln.stopping && len(ln.conns) == 0 {
		ln.drainOnce.Do(func() { close(ln.drained) })
	}
}

// track registers a new connection; it refuses (and closes) one accepted
// after the stop began.
func (ln *Listener) track(conn net.Conn) bool {
	ln.mu.Lock()
	defer ln.mu.Unlock()
	if ln.stopping {
		conn.Close()
		return false
	}
	ln.conns[conn] = false
	return true
}

// mark records whether conn is inside a frame, and reports false when
// the listener is stopping: a frame not yet begun is then not read, and
// a connection that has just answered one is closed.
func (ln *Listener) mark(conn net.Conn, busy bool) bool {
	ln.mu.Lock()
	defer ln.mu.Unlock()
	if ln.stopping {
		return false
	}
	ln.conns[conn] = busy
	return true
}

// untrack forgets a connection that has ended or goes to the HTTP
// server, and reports false when the listener is stopping.
func (ln *Listener) untrack(conn net.Conn) bool {
	ln.mu.Lock()
	defer ln.mu.Unlock()
	delete(ln.conns, conn)
	ln.checkDrained()
	return !ln.stopping
}

func (ln *Listener) acceptLoop() {
	defer ln.wg.Done()
	backoff := 5 * time.Millisecond
	for {
		conn, err := ln.l.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return
			}
			// Transient accept failure (fd exhaustion, aborted
			// handshake): back off instead of busy-spinning.
			time.Sleep(backoff)
			if backoff *= 2; backoff > time.Second {
				backoff = time.Second
			}
			continue
		}
		backoff = 5 * time.Millisecond
		if !ln.track(conn) {
			return
		}
		// The first byte is awaited on the connection's own goroutine, so
		// a peer that sends nothing holds up no one else.
		ln.wg.Add(1)
		go func() {
			defer ln.wg.Done()
			ln.serveConn(conn)
		}()
	}
}

// serveConn reads a connection's first byte and serves it as a stream of
// frames or hands it to the HTTP server.
func (ln *Listener) serveConn(conn net.Conn) {
	br := serveReaderPool.Get().(*bufio.Reader)
	br.Reset(conn)
	defer func() {
		br.Reset(nil)
		serveReaderPool.Put(br)
	}()
	first, err := br.Peek(1)
	if err == nil && isLetter(first[0]) {
		// An HTTP method: the HTTP server takes the connection over, with
		// the bytes already read from it.
		head := make([]byte, br.Buffered())
		br.Read(head)
		if ln.untrack(conn) {
			ln.handoff.give(&sniffedConn{Conn: conn, head: head})
		} else {
			conn.Close()
		}
		return
	}
	defer ln.untrack(conn)
	defer conn.Close()
	if err != nil {
		return
	}
	// Anything else is read as frames, and a byte that opens no frame
	// (a retired kind, a reply, another protocol) drops the connection.
	ln.serveFrames(conn, br)
}

func isLetter(b byte) bool { return 'A' <= b && b <= 'Z' || 'a' <= b && b <= 'z' }

// serveFrames serves frames until the peer goes away or the listener
// stops: clients multiplex many sequential exchanges over one persistent
// connection.
func (ln *Listener) serveFrames(conn net.Conn, br *bufio.Reader) {
	bw := serveWriterPool.Get().(*bufio.Writer)
	fw := serveFramePool.Get().(*frameWriter)
	bw.Reset(conn)
	fw.reset(bw, conn)
	defer func() {
		bw.Reset(nil)
		fw.reset(nil, nil)
		serveWriterPool.Put(bw)
		serveFramePool.Put(fw)
	}()
	ctx := context.Background()
	for {
		// Between frames the connection is idle, and a stop closes it.
		if _, err := br.Peek(1); err != nil || !ln.mark(conn, true) {
			return
		}
		fr, err := readFrame(br)
		if err != nil {
			// Includes an unknown frame kind — another protocol or
			// corruption: drop the connection.
			return
		}
		answer := &receipt
		// A reply encoded into pooled scratch is given back once its
		// frame has been written.
		var reply *Message
		var scratch *[]byte
		switch fr.kind {
		case frameOneWay:
			// A message the server cannot take is answered by its fault
			// instead of the receipt.
			if fault := ln.srv.HandleOneWay(ctx, fr.path, &Message{Envelope: fr.body, Attachments: fr.atts}); fault != nil {
				answer = &frame{kind: frameReply, body: fault.Envelope}
			}
		case frameRequest:
			reply, scratch = ln.srv.handle(ctx, fr.path, &Message{Envelope: fr.body, Attachments: fr.atts}, true, encodeScratch)
			answer = &frame{kind: frameReply, body: reply.Envelope, atts: reply.Attachments}
			if err := checkFrame(answer); err != nil {
				// A reply no frame may carry is answered all the same: a
				// connection dropped before its answer reads as stale to
				// the client, which would send the request again.
				fault, _ := soap.ReceiverFault("%v", err).Envelope().Marshal()
				answer = &frame{kind: frameReply, body: fault}
			}
		default:
			// A reply or a receipt has no business arriving at a server.
			return
		}
		err = fw.writeFrame(answer)
		if err == nil {
			err = bw.Flush()
		}
		if scratch != nil {
			releaseScratch(scratch, reply.Envelope)
		}
		if err != nil {
			return
		}
		if !ln.mark(conn, false) {
			return // stopping: that answer was the connection's last
		}
	}
}

// sniffedConn is a connection whose first bytes were read to choose its
// binding; the HTTP server reads them again.
type sniffedConn struct {
	net.Conn
	head []byte
}

func (c *sniffedConn) Read(p []byte) (int, error) {
	if len(c.head) > 0 {
		n := copy(p, c.head)
		c.head = c.head[n:]
		return n, nil
	}
	return c.Conn.Read(p)
}

// handoff is the net.Listener the HTTP server accepts from.
type handoff struct {
	addr  net.Addr
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func (h *handoff) Accept() (net.Conn, error) {
	select {
	case c := <-h.conns:
		return c, nil
	case <-h.done:
		return nil, net.ErrClosed
	}
}

func (h *handoff) Close() error {
	h.once.Do(func() { close(h.done) })
	return nil
}

func (h *handoff) Addr() net.Addr { return h.addr }

// give passes c to the HTTP server, or closes it once that has stopped.
func (h *handoff) give(c net.Conn) {
	select {
	case h.conns <- c:
	case <-h.done:
		c.Close()
	}
}
