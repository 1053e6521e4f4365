package transport

import (
	"bufio"
	"net"
	"sync"
	"time"
)

// pooledConn is one persistent soap.tcp connection together with its
// buffered reader/writer, which stay attached for the connection's
// lifetime so buffer allocation is paid once per connection, not per
// exchange.
type pooledConn struct {
	conn      net.Conn
	br        *bufio.Reader
	bw        *bufio.Writer
	fw        *frameWriter
	idleSince time.Time
	// reused marks a connection checked out of the pool (as opposed to
	// freshly dialed): an I/O failure on a reused connection is assumed
	// stale (the peer closed it while idle) and retried on a fresh dial.
	reused bool
}

func newPooledConn(conn net.Conn) *pooledConn {
	pc := &pooledConn{conn: conn, br: bufio.NewReader(conn), bw: bufio.NewWriter(conn)}
	pc.fw = newFrameWriter(pc.bw, conn)
	return pc
}

func (pc *pooledConn) Close() error { return pc.conn.Close() }

// The pool keeps at most maxIdlePerHost idle connections per host:port
// and discards one that has sat idle longer than idleTimeout.
const (
	maxIdlePerHost = 8
	idleTimeout    = 60 * time.Second
)

// connPool keeps idle soap.tcp connections per host:port for reuse, the
// analog of net/http's Transport pooling that the framed binding lacked
// — every message used to pay a fresh dial (E6).
type connPool struct {
	mu   sync.Mutex
	idle map[string][]*pooledConn
}

// get pops the most recently used idle connection for hostport, dropping
// any that have sat idle past idleTimeout. Returns nil when none is usable.
func (p *connPool) get(hostport string) *pooledConn {
	p.mu.Lock()
	defer p.mu.Unlock()
	list := p.idle[hostport]
	for len(list) > 0 {
		pc := list[len(list)-1]
		list = list[:len(list)-1]
		p.idle[hostport] = list
		if time.Since(pc.idleSince) > idleTimeout {
			pc.Close()
			continue
		}
		pc.reused = true
		return pc
	}
	return nil
}

// put returns a healthy connection to the pool, closing it instead when
// the per-host cap is reached. Expired siblings are pruned on the way.
func (p *connPool) put(hostport string, pc *pooledConn) {
	// Clear any exchange deadline so the idle connection cannot poison
	// the next checkout.
	pc.conn.SetDeadline(time.Time{})
	pc.idleSince = time.Now()
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.idle == nil {
		p.idle = make(map[string][]*pooledConn)
	}
	list := p.idle[hostport]
	kept := list[:0]
	for _, old := range list {
		if time.Since(old.idleSince) > idleTimeout {
			old.Close()
			continue
		}
		kept = append(kept, old)
	}
	if len(kept) >= maxIdlePerHost {
		pc.Close()
		p.idle[hostport] = kept
		return
	}
	p.idle[hostport] = append(kept, pc)
}

// closeIdle drops every pooled connection.
func (p *connPool) closeIdle() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for host, list := range p.idle {
		for _, pc := range list {
			pc.Close()
		}
		delete(p.idle, host)
	}
}
