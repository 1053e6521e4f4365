package transport

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"uvacg/internal/soap"
	"uvacg/internal/wsa"
	"uvacg/internal/xmlutil"
)

// A soap.tcp frame is written from pooled scratch on both ends (client
// request, listener reply), and the buffer goes back to the pool once the
// frame has been written. These pin the saving and hold the pool to
// handing out a buffer nobody still writes from.

var (
	qEvent = xmlutil.Q("urn:scratch", "Event")
	qItem  = xmlutil.Q("urn:scratch", "Item")
)

// notifySized builds an envelope body shaped and sized like one Notify of
// a job's directory and started events (about 1.8 KiB on the wire).
func notifySized(tag string) *xmlutil.Element {
	body := xmlutil.NewContainer(xmlutil.Q("urn:scratch", "Notify"))
	for i := 0; i < 2; i++ {
		ev := xmlutil.NewContainer(qEvent,
			xmlutil.NewElement(xmlutil.Q("urn:scratch", "Topic"), "jobset-"+tag+"/stage-3/started"),
			wsa.NewEPR("http://10.0.0.7:8701/ExecutionService").
				WithProperty(xmlutil.Q("urn:uvacg:wsrf", "ResourceID"), "job-"+tag).
				ElementNamed(xmlutil.Q("urn:scratch", "ProducerReference")),
		)
		for j := 0; j < 8; j++ {
			ev.Append(xmlutil.NewElement(qItem, strings.Repeat(tag, 12)))
		}
		body.Append(ev)
	}
	return body
}

// leastHeapBytes is the least heap bytes the process allocates in one
// call of f, over calls calls: a GC, or the race detector, empties a
// pool now and then, and the least call is one that found its buffers.
func leastHeapBytes(calls int, f func()) uint64 {
	f() // warm pools and connections
	least := ^uint64(0)
	var before, after runtime.MemStats
	for i := 0; i < calls; i++ {
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// readRawFrame reads one frame without attachments into buf and returns
// its kind, allocating nothing, so a heap count taken around an exchange
// with a peer reading this way is the other side's alone.
func readRawFrame(br *bufio.Reader, buf []byte) (kind byte, err error) {
	if _, err = io.ReadFull(br, buf[:3]); err != nil {
		return 0, err
	}
	kind = buf[0]
	plen := int(binary.BigEndian.Uint16(buf[1:3]))
	if _, err = io.ReadFull(br, buf[:plen+4]); err != nil {
		return 0, err
	}
	blen := int(binary.BigEndian.Uint32(buf[plen : plen+4]))
	if _, err = io.ReadFull(br, buf[:blen+2]); err != nil {
		return 0, err
	}
	if n := binary.BigEndian.Uint16(buf[blen : blen+2]); n != 0 {
		return 0, fmt.Errorf("raw peer: %d attachments", n)
	}
	return kind, nil
}

// receiptFrame is a receipt's wire form: kind, empty path, body and
// attachment section.
var receiptFrame = []byte{frameReceipt, 0, 0, 0, 0, 0, 0, 0, 0}

func TestFrameSendWritesNoEnvelopeCopy(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		br, buf := bufio.NewReader(conn), make([]byte, 64<<10)
		for {
			if _, err := readRawFrame(br, buf); err != nil {
				return
			}
			if _, err := conn.Write(receiptFrame); err != nil {
				return
			}
		}
	}()
	client := NewClient()
	to := wsa.NewEPR(SchemeTCP + "://" + l.Addr().String() + "/Sink")
	const calls = 50
	envs := make([]*soap.Envelope, calls+1)
	for i := range envs {
		envs[i] = soap.New(notifySized("ab"))
	}
	wire, err := wsa.Apply(soap.New(notifySized("ab")), to, "urn:Sink").Marshal()
	if err != nil {
		t.Fatal(err)
	}
	next := 0
	perSend := leastHeapBytes(calls, func() {
		if err := client.SendOneWay(context.Background(), to, "urn:Sink", envs[next]); err != nil {
			t.Fatal(err)
		}
		next++
	})
	if perSend >= uint64(len(wire)) {
		t.Errorf("a soap.tcp Send of a %d-byte envelope allocates %d bytes on the client, want fewer than the envelope", len(wire), perSend)
	}
}

// TestListenerReplyWritesNoEnvelopeCopy: what the listener allocates
// to answer with a Notify-sized reply, over what it allocates to answer
// with an empty one, is a small part of the reply: decoding the request
// and dispatching cost the same for both, and the reply's bytes come
// from pooled scratch.
func TestListenerReplyWritesNoEnvelopeCopy(t *testing.T) {
	reply := notifySized("cd")
	d := soap.NewDispatcher()
	d.Register("urn:Get", func(context.Context, *soap.Envelope) (*soap.Envelope, error) {
		return soap.New(reply), nil
	})
	d.Register("urn:Void", func(context.Context, *soap.Envelope) (*soap.Envelope, error) {
		return soap.New(nil), nil
	})
	mux := soap.NewMux()
	mux.Handle("/Get", d)
	ln, err := ListenTCP(NewServer(mux), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	conn, err := net.Dial("tcp", ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br, buf := bufio.NewReader(conn), make([]byte, 64<<10)

	// Fixed request frames, written by hand on a raw connection; the two
	// actions are as long, so their requests decode alike.
	perExchange := func(action string) uint64 {
		body, err := wsa.Apply(soap.New(nil), wsa.NewEPR(ln.BaseURL()+"/Get"), action).Marshal()
		if err != nil {
			t.Fatal(err)
		}
		var request []byte
		request = append(request, frameRequest)
		request = binary.BigEndian.AppendUint16(request, uint16(len("/Get")))
		request = append(request, "/Get"...)
		request = binary.BigEndian.AppendUint32(request, uint32(len(body)))
		request = append(request, body...)
		request = append(request, 0, 0)
		return leastHeapBytes(50, func() {
			if _, err := conn.Write(request); err != nil {
				t.Fatal(err)
			}
			if kind, err := readRawFrame(br, buf); err != nil || kind != frameReply {
				t.Fatalf("answer kind %d, %v", kind, err)
			}
		})
	}
	void := perExchange("urn:Void")
	full := perExchange("urn:Get")
	wire, err := wsa.ApplyReply(soap.New(reply), wsa.MessageInfo{MessageID: wsa.NewMessageID()}, "urn:GetResponse").Marshal()
	if err != nil {
		t.Fatal(err)
	}
	// An exact copy of each reply would put about the reply's length,
	// less the empty reply's few hundred bytes, between them.
	if full-min(full, void) >= uint64(len(wire))/4 {
		t.Errorf("the listener allocates %d bytes an exchange to answer with a %d-byte reply, %d with an empty one: want less than a quarter of the reply between them", full, len(wire), void)
	}
}

var (
	qText  = xmlutil.Q("urn:scratch", "Text")
	qEcho  = xmlutil.Q("urn:scratch", "Echo")
	qTaken = xmlutil.Q("urn:scratch", "Taken")
)

// payload is the distinct text of goroutine w's i-th message: its token
// repeated to a length that differs by goroutine, some past the pool's
// first 4 KiB, so buffers of every size change hands.
func payload(w, i int) string {
	token := fmt.Sprintf("[w%02d.i%03d]", w, i)
	return strings.Repeat(token, 8+w*37)
}

// intact reports whether s is a whole payload: one token, repeated.
func intact(s string) bool {
	end := strings.IndexByte(s, ']')
	return end > 0 && len(s)%(end+1) == 0 && s == strings.Repeat(s[:end+1], len(s)/(end+1))
}

// derived is the reply to text: its token reversed in order of bytes.
func derived(text string) string {
	b := []byte(text)
	for i, j := 0, len(b)-1; i < j; i, j = i+1, j-1 {
		b[i], b[j] = b[j], b[i]
	}
	return string(b)
}

// echoListener answers urn:Echo with the derived text of a request it
// found intact, faults one it did not, and reports every one-way
// urn:Taken text it receives on taken.
func echoListener(t *testing.T) (*Listener, chan string) {
	taken := make(chan string, 4096)
	d := soap.NewDispatcher()
	d.Register("urn:Echo", func(_ context.Context, req *soap.Envelope) (*soap.Envelope, error) {
		text := req.Body.ChildText(qText)
		if !intact(text) {
			return nil, soap.SenderFault("request arrived corrupted: %.80q", text)
		}
		return soap.New(xmlutil.NewContainer(qEcho, xmlutil.NewElement(qText, derived(text)))), nil
	})
	d.Register("urn:Taken", func(_ context.Context, req *soap.Envelope) (*soap.Envelope, error) {
		taken <- req.Body.ChildText(qText)
		return nil, nil
	})
	mux := soap.NewMux()
	mux.Handle("/Echo", d)
	ln, err := ListenTCP(NewServer(mux), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	return ln, taken
}

// echo performs goroutine w's i-th exchange and one-way message on client
// and checks the reply.
func echo(ctx context.Context, client *Client, to wsa.EndpointReference, w, i int) error {
	text := payload(w, i)
	body := xmlutil.NewContainer(qEcho, xmlutil.NewElement(qText, text))
	resp, err := client.Call(ctx, to, "urn:Echo", body)
	if err != nil {
		return fmt.Errorf("worker %d call %d: %w", w, i, err)
	}
	if got := resp.ChildText(qText); got != derived(text) {
		return fmt.Errorf("worker %d call %d: reply arrived corrupted: %.80q", w, i, got)
	}
	if err := client.Notify(ctx, to, "urn:Taken", xmlutil.NewContainer(qEcho, xmlutil.NewElement(qText, text))); err != nil {
		return fmt.Errorf("worker %d one-way %d: %w", w, i, err)
	}
	return nil
}

// checkTaken drains want one-way texts from taken and checks each.
func checkTaken(t *testing.T, taken chan string, want int) {
	t.Helper()
	deadline := time.After(20 * time.Second)
	for n := 0; n < want; n++ {
		select {
		case text := <-taken:
			if !intact(text) {
				t.Fatalf("a one-way message arrived corrupted: %.80q", text)
			}
		case <-deadline:
			t.Fatalf("%d of %d one-way messages arrived", n, want)
		}
	}
}

// TestPooledFramesCarryDistinctEnvelopes: 32 goroutines share one client,
// so one soap.tcp binding and its pooled scratch, to one listener, whose
// replies come from its own pooled scratch; every request, reply and
// one-way message must arrive as it was written.
func TestPooledFramesCarryDistinctEnvelopes(t *testing.T) {
	ln, taken := echoListener(t)
	client := NewClient()
	to := wsa.NewEPR(ln.BaseURL() + "/Echo")
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	const workers, calls = 32, 12
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				if err := echo(ctx, client, to, w, i); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	checkTaken(t, taken, workers*calls)
}

// TestStaleRedialResendsIntactFrame: a frame written to a pooled
// connection the peer has dropped is written again on a fresh dial, from
// the same scratch; while other goroutines encode into the pool, the
// second write must carry the bytes the first one did.
func TestStaleRedialResendsIntactFrame(t *testing.T) {
	ln, taken := echoListener(t)
	tr := NewTCPTransport()
	client := NewClient()
	client.RegisterScheme(SchemeTCP, tr)
	to := wsa.NewEPR(ln.BaseURL() + "/Echo")
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	const workers, calls = 32, 6
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				// Drop every idle connection as an idle-timeout-closing
				// peer would: the next checkout is stale.
				tr.pool.mu.Lock()
				if h := tr.pool.hosts[ln.Addr()]; h != nil {
					for _, pc := range h.idle {
						pc.conn.Close()
					}
				}
				tr.pool.mu.Unlock()
				if err := echo(ctx, client, to, w, i); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	checkTaken(t, taken, workers*calls)
}
