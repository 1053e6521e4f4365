package transport

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

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
	idle := len(tr.pool.idle)
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
	if len(p.idle) != 0 {
		t.Fatalf("pool retained %d hosts after closeIdle", len(p.idle))
	}
}
