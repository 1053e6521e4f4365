package transport

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"uvacg/internal/wsa"
)

// TestPoolConcurrentCheckoutClose hammers one transport from many
// goroutines while another loop keeps flushing the idle pool: every
// exchange must still succeed (a connection closed while idle is
// detected as stale and retried on a fresh dial), and the pool must end
// up consistent. Run with -race this also proves the pool's locking.
func TestPoolConcurrentCheckoutClose(t *testing.T) {
	tl, err := ListenTCP(NewServer(blobService()), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer tl.Close()
	tr := NewTCPTransport()
	client := NewClient()
	client.RegisterScheme(SchemeTCP, tr)
	to := wsa.NewEPR(tl.BaseURL() + "/Blob")
	data := bytes.Repeat([]byte{7}, 512)

	stop := make(chan struct{})
	var closer sync.WaitGroup
	closer.Add(1)
	go func() {
		defer closer.Done()
		for {
			select {
			case <-stop:
				return
			default:
				tr.CloseIdleConnections()
				time.Sleep(time.Millisecond)
			}
		}
	}()

	const workers, calls = 8, 25
	errs := make(chan error, workers*calls)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				resp, err := client.Invoke(context.Background(), to, "urn:Blob", blobRequest(data))
				if err != nil {
					errs <- err
					return
				}
				if got := blobResponseData(t, resp); !bytes.Equal(got, data) {
					errs <- errors.New("corrupted echo under pool churn")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	closer.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	tr.CloseIdleConnections()
	tr.pool.mu.Lock()
	idle := len(tr.pool.hosts)
	tr.pool.mu.Unlock()
	if idle != 0 {
		t.Fatalf("pool not empty after final close: %d hosts", idle)
	}
}

// midFrameDropper is an adversarial soap.tcp peer: it accepts, reads the
// client's request, starts a syntactically valid reply frame that
// declares a large body — then closes mid-body.
type midFrameDropper struct {
	l net.Listener
}

func startMidFrameDropper(t *testing.T) *midFrameDropper {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	d := &midFrameDropper{l: l}
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go d.serve(conn)
		}
	}()
	return d
}

func (d *midFrameDropper) serve(conn net.Conn) {
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	// Drain the request frame header and give up on the rest: the
	// reply starts before the request is even fully read, like a peer
	// dying mid-conversation.
	buf := make([]byte, 256)
	if _, err := conn.Read(buf); err != nil {
		return
	}
	// Reply frame: kind, empty path, a 1 MiB body… of which only a few
	// bytes ever arrive.
	reply := []byte{frameReply}
	reply = binary.BigEndian.AppendUint16(reply, 0)
	reply = binary.BigEndian.AppendUint32(reply, 1<<20)
	reply = append(reply, []byte("partial")...)
	conn.Write(reply)
	// Close with the body truncated.
}

// TestClientSurvivesMidFrameConnectionDrop: a server that cuts the
// connection in the middle of a reply frame must produce a prompt error
// — not a hang, not a garbage envelope — and must not poison the
// transport: a following call to a healthy server succeeds.
func TestClientSurvivesMidFrameConnectionDrop(t *testing.T) {
	dropper := startMidFrameDropper(t)
	defer dropper.l.Close()
	healthy, err := ListenTCP(NewServer(blobService()), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer healthy.Close()

	tr := NewTCPTransport()
	client := NewClient()
	client.RegisterScheme(SchemeTCP, tr)
	data := []byte("payload")

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	badEPR := wsa.NewEPR(SchemeTCP + "://" + dropper.l.Addr().String() + "/Blob")
	done := make(chan error, 1)
	go func() {
		_, err := client.Invoke(ctx, badEPR, "urn:Blob", blobRequest(data))
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("truncated reply frame parsed as success")
		}
	case <-time.After(8 * time.Second):
		t.Fatal("client hung on a mid-frame connection drop")
	}

	// The same transport still works against a healthy peer, repeatedly
	// (pool state was not corrupted by the aborted exchange).
	goodEPR := wsa.NewEPR(healthy.BaseURL() + "/Blob")
	for i := 0; i < 3; i++ {
		resp, err := client.Invoke(ctx, goodEPR, "urn:Blob", blobRequest(data))
		if err != nil {
			t.Fatalf("healthy call %d after mid-frame drop: %v", i, err)
		}
		if got := blobResponseData(t, resp); !bytes.Equal(got, data) {
			t.Fatalf("healthy call %d corrupted", i)
		}
	}
}

// TestPoolDirectConcurrency exercises the raw pool — get, put, closeIdle
// racing over in-memory pipes — independent of the transport above it.
func TestPoolDirectConcurrency(t *testing.T) {
	p := &connPool{}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if pc := p.get("host:1"); pc != nil {
					p.put("host:1", pc)
					continue
				}
				c1, c2 := net.Pipe()
				defer c2.Close()
				p.put("host:1", newPooledConn(c1))
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			p.closeIdle()
		}
	}()
	wg.Wait()
	p.closeIdle()
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.hosts) != 0 {
		t.Fatalf("pool retained %d hosts after closeIdle", len(p.hosts))
	}
}

// closeSeen is a connection that remembers being closed.
type closeSeen struct {
	net.Conn
	closed atomic.Bool
}

func (c *closeSeen) Close() error {
	c.closed.Store(true)
	return c.Conn.Close()
}

// TestPoolSweepsHostsNeverAddressedAgain: a put for one host also closes
// every other host's connections idle past idleTimeout, at most once per
// idleTimeout, and forgets a host left with none. Without the sweep, a
// peer that is never addressed again keeps its connections open for the
// life of the process.
func TestPoolSweepsHostsNeverAddressedAgain(t *testing.T) {
	var p connPool
	defer p.closeIdle()
	pipe := func() (*pooledConn, *closeSeen) {
		conn, peer := net.Pipe()
		t.Cleanup(func() { peer.Close() })
		seen := &closeSeen{Conn: conn}
		return newPooledConn(seen), seen
	}
	departed, departedConn := pipe()
	live, liveConn := pipe()
	p.put("departed:1", departed)
	p.put("live:1", live)

	// The departed peer's connection has sat idle past the timeout, and
	// so long ago was the last sweep.
	past := time.Now().Add(-2 * idleTimeout)
	departed.idleSince, p.swept = past, past
	other, _ := pipe()
	p.put("other:1", other)
	if !departedConn.closed.Load() {
		t.Fatal("the departed peer's expired connection is still open")
	}
	if _, kept := p.hosts["departed:1"]; kept {
		t.Fatal("the pool still lists a host with no connection")
	}
	if h := p.hosts["live:1"]; h == nil || len(h.idle) != 1 || liveConn.closed.Load() {
		t.Fatal("the sweep closed a connection that had not expired")
	}

	// Inside the window a put prunes only its own host.
	live.idleSince = past
	another, _ := pipe()
	p.put("other:1", another)
	if liveConn.closed.Load() {
		t.Fatal("a second sweep ran inside idleTimeout")
	}
}

// TestPoolForgetsLearnedHostsLeftUnused: a learned port is an entry in
// the frame pool, and the pool's sweep forgets it once it has gone
// idleTimeout without being learned or used, as it forgets a host whose
// connections expired. A node that stages from a new gridsub's file
// server on every set learns each one's port once and must not keep
// them all. A port just learned, with no connection yet, and one whose
// connection is out are kept.
func TestPoolForgetsLearnedHostsLeftUnused(t *testing.T) {
	c := NewClient()
	p := c.frames
	defer p.closeIdle()
	for _, host := range []string{"departed:1", "fresh:1", "busy:1"} {
		c.asker.learn(host)
		if !p.learned(host) {
			t.Fatalf("%s: learning made no pool entry", host)
		}
	}
	// The first put sweeps: no sweep has run yet.
	conn, peer := net.Pipe()
	defer peer.Close()
	p.put("busy:1", newPooledConn(conn))
	for _, host := range []string{"departed:1", "fresh:1"} {
		if !p.learned(host) {
			t.Fatalf("the first sweep forgot %s, a port just learned", host)
		}
	}

	// Both ports were learned long ago, and so long ago was the last
	// sweep; the busy one's connection is checked out now.
	past := time.Now().Add(-2 * idleTimeout)
	p.hosts["departed:1"].used, p.hosts["busy:1"].used, p.swept = past, past, past
	busy := p.get("busy:1")
	if busy == nil {
		t.Fatal("the busy port's connection is not there to check out")
	}
	defer busy.Close()
	other, otherPeer := net.Pipe()
	defer otherPeer.Close()
	p.put("other:1", newPooledConn(other))

	if p.learned("departed:1") {
		t.Error("the sweep kept a port learned idleTimeout ago and never used since")
	}
	if !p.learned("fresh:1") {
		t.Error("the sweep forgot a port just learned")
	}
	if !p.learned("busy:1") {
		t.Error("the sweep forgot a port whose connection is checked out")
	}
	if r, err := c.routeFor(parseAddress("http://departed:1/Svc")); err != nil || r.learned != "" {
		t.Errorf("a message for the forgotten port goes %+v (%v), want plain HTTP", r, err)
	}
}

// TestHostMapsKeepCopies: the pool's hosts, learned ports among them,
// outlive the message whose address named a host, and the host:port a
// message hands in points into that message's bytes. The map keeps a
// copy, written once, when the host is first seen.
func TestHostMapsKeepCopies(t *testing.T) {
	msg := []byte("soap.tcp://127.0.0.1:9/Files")
	host := unsafe.String(&msg[len("soap.tcp://")], len("127.0.0.1:9"))
	var p connPool
	for i := 0; i < 2; i++ {
		conn, peer := net.Pipe()
		defer peer.Close()
		p.put(host, newPooledConn(conn))
	}
	defer p.closeIdle()
	p.put(host, p.get(host)) // a checkout and its return
	c := NewClient()
	c.frames.learn(host)
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(msg)))
	check := func(what, key string) {
		if at := uintptr(unsafe.Pointer(unsafe.StringData(key))); at >= lo && at < lo+uintptr(len(msg)) {
			t.Errorf("the %s keeps %q as a view of the message", what, key)
		}
	}
	for key, h := range p.hosts {
		if key != "127.0.0.1:9" || len(h.idle) != 2 {
			t.Fatalf("pool holds %d connection(s) under %q", len(h.idle), key)
		}
		check("pool", key)
	}
	for key := range c.frames.hosts {
		check("learned ports", key)
	}
}
