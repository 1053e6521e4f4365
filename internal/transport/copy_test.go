package transport

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"uvacg/internal/soap"
	"uvacg/internal/wsa"
	"uvacg/internal/xmlutil"
)

// An in-process route hands each delivery a tree of its own, in both
// directions: what a handler or a caller does to the tree it was handed
// reaches nobody else, as if a socket had carried it.

var (
	qAsk  = xmlutil.Q("urn:copy", "Ask")
	qPart = xmlutil.Q("urn:copy", "Part")
	qSeen = xmlutil.Q("", "seen")
)

// ask is sender w's request: text, one child, no attributes.
func ask(w int) *soap.Envelope {
	return soap.New(xmlutil.NewContainer(qAsk, xmlutil.NewElement(qPart, fmt.Sprintf("part-%d", w))).
		Append(xmlutil.NewElement(qPart, "second")))
}

// keeper is a service whose handlers write every request tree they are
// handed and keep it, as a service that stores what it was sent may, and
// answer from a tree they share between all replies.
type keeper struct {
	shared  *xmlutil.Element
	arrived chan string // the first part of each request, as it arrived
	mu      sync.Mutex
	kept    []*soap.Envelope
}

func newKeeper() *keeper {
	return &keeper{
		shared:  notifySized("sh"),
		arrived: make(chan string, 1024), // more than any test sends
	}
}

// server hosts k at /Keep: urn:Keep answers, urn:Take is one-way.
func (k *keeper) server() *Server {
	d := soap.NewDispatcher()
	handle := func(_ context.Context, req *soap.Envelope) (*soap.Envelope, error) {
		// What arrived must be what the sender built, and have the
		// sender's To: nothing an earlier delivery's handler wrote.
		first := "written over"
		if req.HeaderText(xmlutil.Q(wsa.NS, "To")) != "" && req.Body.Text == "" && req.Body.Attr(qSeen) == "" && len(req.Body.Children) == 2 {
			first = req.Body.Children[0].Text
		}
		req.RemoveHeader(xmlutil.Q(wsa.NS, "To"))
		req.Body.SetAttr(qSeen, "yes")
		req.Body.Text = "written by the handler"
		req.Body.Children[0].Text = "written"
		req.Body.Append(xmlutil.NewElement(qPart, "added"))
		k.mu.Lock()
		k.kept = append(k.kept, req)
		k.mu.Unlock()
		k.arrived <- first
		return soap.New(k.shared), nil
	}
	d.Register("urn:Keep", handle)
	d.Register("urn:Take", handle)
	mux := soap.NewMux()
	mux.Handle("/Keep", d)
	return NewServer(mux)
}

// expect drains n arrivals and checks each is one of want, unwritten.
func (k *keeper) expect(t *testing.T, n int, want ...string) {
	t.Helper()
	deadline := time.After(10 * time.Second)
	for i := 0; i < n; i++ {
		select {
		case got := <-k.arrived:
			ok := false
			for _, w := range want {
				ok = ok || got == w
			}
			if !ok {
				t.Fatalf("a request arrived as %q, want one of %q", got, want)
			}
		case <-deadline:
			t.Fatalf("%d of %d requests arrived", i, n)
		}
	}
}

// twice is a client interceptor that sends every message a second time,
// as the retry does after a lost reply: the terminal handler stamps the
// caller's envelope again and the binding delivers it again.
func twice(ctx context.Context, call *soap.CallInfo, next soap.Handler) (*soap.Envelope, error) {
	if _, err := next(ctx, call); err != nil {
		return nil, err
	}
	return next(ctx, call)
}

// body is env's body as written, to compare before and after a call.
func body(env *soap.Envelope) string {
	data, err := soap.New(env.Body).Marshal()
	if err != nil {
		return err.Error()
	}
	return string(data)
}

// TestColocatedCalleeOwnsItsRequest: a handler that writes and keeps its
// request tree — a header removed, an attribute set, text replaced, a
// child added — changes neither the caller's envelope nor the copy a
// second attempt of it delivers, from many callers at once.
func TestColocatedCalleeOwnsItsRequest(t *testing.T) {
	k := newKeeper()
	client := NewClient()
	client.Colocate(k.server(), "http://colocated.example")
	client.Use(twice)
	to := wsa.NewEPR("http://colocated.example/Keep")
	const workers, calls = 16, 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				for _, action := range []string{"urn:Keep", "urn:Take"} {
					env := ask(w)
					before := body(env)
					var err error
					if action == "urn:Keep" {
						_, err = client.Invoke(context.Background(), to, action, env)
					} else {
						err = client.SendOneWay(context.Background(), to, action, env)
					}
					if err != nil {
						t.Error(err)
						return
					}
					if after := body(env); after != before {
						t.Errorf("the handler's writes reached the caller's envelope:\n%s\nwas\n%s", after, before)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	parts := make([]string, workers)
	for w := range parts {
		parts[w] = fmt.Sprintf("part-%d", w)
	}
	k.expect(t, workers*calls*2*2, parts...)
}

// TestColocatedCallerOwnsItsReply: callers that write the reply they are
// handed never change the tree the handler answered from, which every
// reply shares.
func TestColocatedCallerOwnsItsReply(t *testing.T) {
	k := newKeeper()
	was := k.shared.Clone()
	client := NewClient()
	client.Colocate(k.server(), "http://colocated.example")
	to := wsa.NewEPR("http://colocated.example/Keep")
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				resp, err := client.Invoke(context.Background(), to, "urn:Keep", ask(w))
				if err != nil {
					t.Error(err)
					return
				}
				resp.RemoveHeader(xmlutil.Q(wsa.NS, "RelatesTo"))
				resp.Body.SetAttr(qSeen, "yes")
				resp.Body.Text = "written by the caller"
				resp.Body.Children[0].Children[0].Text = "written"
				resp.Body.Children[1].Append(xmlutil.NewElement(qPart, "added"))
			}
		}(w)
	}
	wg.Wait()
	if !k.shared.Equal(was) {
		t.Fatalf("callers' writes reached the handler's shared tree:\n%s\nwas\n%s", k.shared, was)
	}
	k.expect(t, 16*8, "part-0", "part-1", "part-2", "part-3", "part-4", "part-5", "part-6", "part-7",
		"part-8", "part-9", "part-10", "part-11", "part-12", "part-13", "part-14", "part-15")
}

// TestInprocCopiesPerDelivery: a message FaultingTransport delivers twice
// is two trees, each as its sender built it, and a one-way message it
// holds back arrives as it was when sent, however its sender writes its
// envelope after Send returns.
func TestInprocCopiesPerDelivery(t *testing.T) {
	for _, tc := range []struct {
		name   string
		decide FaultDecision
	}{
		{"duplicate", FaultDecision{Duplicate: true}},
		{"reorder", FaultDecision{Reorder: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k := newKeeper()
			network := NewNetwork()
			network.Register("keeper", k.server())
			client := NewClient().WithNetwork(network).WrapSchemes(func(_ string, rt RoundTripper) RoundTripper {
				return WrapFaults(rt, func(FaultOp, string) FaultDecision { return tc.decide })
			})
			to := wsa.NewEPR("inproc://keeper/Keep")
			const workers = 8
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					if tc.decide.Duplicate {
						if _, err := client.Invoke(context.Background(), to, "urn:Keep", ask(w)); err != nil {
							t.Error(err)
						}
					}
					env := ask(w)
					if err := client.SendOneWay(context.Background(), to, "urn:Take", env); err != nil {
						t.Error(err)
					}
					// The sender is done with its envelope.
					env.Body.Children[0].Text = "written by the sender"
					env.Body.SetAttr(qSeen, "sender")
					env.RemoveHeader(xmlutil.Q(wsa.NS, "To"))
				}(w)
			}
			wg.Wait()
			deliveries := workers // one held one-way message each
			if tc.decide.Duplicate {
				deliveries = workers * 4 // a call and a one-way message, each twice
			}
			parts := make([]string, workers)
			for w := range parts {
				parts[w] = fmt.Sprintf("part-%d", w)
			}
			k.expect(t, deliveries, parts...)
			k.mu.Lock()
			defer k.mu.Unlock()
			seen := make(map[*xmlutil.Element]bool)
			for _, env := range k.kept {
				if seen[env.Body] {
					t.Fatal("two deliveries were handed one tree")
				}
				seen[env.Body] = true
			}
		})
	}
}

// bulky is a Notify-shaped body whose items carry enough text that one
// byte buffer of an envelope's length outweighs everything else an
// in-process exchange allocates.
func bulky(tag string) *xmlutil.Element {
	b := notifySized(tag)
	for _, ev := range b.Children {
		for _, item := range ev.ChildrenNamed(qItem) {
			item.Text = strings.Repeat(tag, 1<<10)
		}
	}
	return b
}

// TestColocatedCallsMakeNoEnvelopeBytes: a co-located Invoke, whose
// request and reply are each tens of KiB on the wire, and a co-located
// SendOneWay of such a request allocate less than one envelope's length:
// no encoding is kept, copied or decoded on the route, in either
// direction.
func TestColocatedCallsMakeNoEnvelopeBytes(t *testing.T) {
	reply := bulky("cd")
	d := soap.NewDispatcher()
	d.Register("urn:Get", func(context.Context, *soap.Envelope) (*soap.Envelope, error) {
		return soap.New(reply), nil
	})
	d.Register("urn:Put", func(context.Context, *soap.Envelope) (*soap.Envelope, error) {
		return nil, nil
	})
	mux := soap.NewMux()
	mux.Handle("/Get", d)
	client := NewClient()
	client.Colocate(NewServer(mux), "http://colocated.example")
	to := wsa.NewEPR("http://colocated.example/Get")
	request := bulky("ab")
	wire, err := wsa.Apply(soap.New(request), to, "urn:Get").Marshal()
	if err != nil {
		t.Fatal(err)
	}
	perInvoke := leastHeapBytes(50, func() {
		if _, err := client.Invoke(context.Background(), to, "urn:Get", soap.New(request)); err != nil {
			t.Fatal(err)
		}
	})
	perSend := leastHeapBytes(50, func() {
		if err := client.SendOneWay(context.Background(), to, "urn:Put", soap.New(request)); err != nil {
			t.Fatal(err)
		}
	})
	if perInvoke >= uint64(len(wire)) || perSend >= uint64(len(wire)) {
		t.Errorf("with %d-byte envelopes each way, a co-located Invoke allocates %d bytes and a SendOneWay %d, want fewer than one envelope",
			len(wire), perInvoke, perSend)
	}
}

// TestColocatedRefusesUnencodableEnvelopes: the in-process copy is
// made only of what encodes, as on a socket. A request no encoding
// carries fails before any handler runs, one-way or not, and a reply no
// encoding carries reaches the caller as the Receiver fault a listener
// would answer with.
func TestColocatedRefusesUnencodableEnvelopes(t *testing.T) {
	bad := xmlutil.NewElement(xmlutil.Q("urn:copy", "not a name"), "")
	handled := make(chan struct{}, 8)
	d := soap.NewDispatcher()
	d.Register("urn:Bad", func(context.Context, *soap.Envelope) (*soap.Envelope, error) {
		handled <- struct{}{}
		return soap.New(bad), nil
	})
	mux := soap.NewMux()
	mux.Handle("/Bad", d)
	srv := NewServer(mux)
	network := NewNetwork()
	network.Register("bad", srv)
	colocated := NewClient()
	colocated.Colocate(srv, "http://colocated.example")
	for name, route := range map[string]struct {
		client *Client
		base   string
	}{
		"colocated": {colocated, "http://colocated.example"},
		"inproc":    {NewClient().WithNetwork(network), "inproc://bad"},
	} {
		to := wsa.NewEPR(route.base + "/Bad")
		if _, err := route.client.Invoke(context.Background(), to, "urn:Bad", soap.New(bad)); err == nil || !strings.Contains(err.Error(), "cannot encode") {
			t.Errorf("%s: unencodable request: %v", name, err)
		}
		if err := route.client.SendOneWay(context.Background(), to, "urn:Bad", soap.New(bad)); err == nil || !strings.Contains(err.Error(), "cannot encode") {
			t.Errorf("%s: unencodable one-way message: %v", name, err)
		}
		if len(handled) != 0 {
			t.Fatalf("%s: a handler ran for a request no encoding carries", name)
		}
		_, err := route.client.Call(context.Background(), to, "urn:Bad", xmlutil.NewElement(qAsk, ""))
		if f, _ := soap.AsFault(err); f == nil || f.Code != soap.CodeReceiver || !strings.Contains(f.Reason, "response serialization failed") {
			t.Errorf("%s: unencodable reply: want the Receiver fault, got %v", name, err)
		}
		<-handled
	}
}
