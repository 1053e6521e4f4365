package daemon_test

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"uvacg/internal/core"
	"uvacg/internal/daemon"
	"uvacg/internal/master"
	"uvacg/internal/node"
	"uvacg/internal/pipeline"
	"uvacg/internal/resourcedb"
	"uvacg/internal/services/filesystem"
	"uvacg/internal/services/scheduler"
	"uvacg/internal/soap"
	"uvacg/internal/transport"
	"uvacg/internal/wsa"
	"uvacg/internal/wsn"
	"uvacg/internal/xmlutil"
)

// freeAddr asks the kernel for an unused loopback port. A daemon needs
// its port before it listens: the advertised address goes into EPRs at
// assembly.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	return l.Addr().String()
}

// openHost parses args as a grid binary would and opens its plumbing.
func openHost(t *testing.T, args ...string) *daemon.Host {
	t.Helper()
	host := openHostUnclosed(t, args...)
	t.Cleanup(host.Close)
	return host
}

// openHostUnclosed is openHost for a test that takes the host down
// itself.
func openHostUnclosed(t *testing.T, args ...string) *daemon.Host {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	flags := daemon.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	host, err := flags.Open()
	if err != nil {
		t.Fatal(err)
	}
	return host
}

// dialRecorder wraps a host's http binding and notes every address that
// actually went to a socket, and the reply to every FSS Read among them.
type dialRecorder struct {
	inner transport.RoundTripper
	mu    sync.Mutex
	addrs []string
	reads []*transport.Message
}

func (d *dialRecorder) RoundTrip(ctx context.Context, addr string, request *transport.Message) (*transport.Message, error) {
	reply, err := d.inner.RoundTrip(ctx, addr, request)
	d.mu.Lock()
	defer d.mu.Unlock()
	d.addrs = append(d.addrs, addr)
	if err == nil && bytes.Contains(request.Envelope, []byte(">"+filesystem.ActionRead+"<")) {
		d.reads = append(d.reads, reply)
	}
	return reply, err
}

func (d *dialRecorder) Send(ctx context.Context, addr string, request *transport.Message) error {
	d.mu.Lock()
	d.addrs = append(d.addrs, addr)
	d.mu.Unlock()
	return d.inner.Send(ctx, addr, request)
}

// recordDials installs a dialRecorder on host's http scheme; call before
// the client carries traffic.
func recordDials(host *daemon.Host) *dialRecorder {
	rec := &dialRecorder{}
	host.Client.WrapSchemes(func(scheme string, rt transport.RoundTripper) transport.RoundTripper {
		if scheme != "http" {
			return nil
		}
		rec.inner = rt
		return rec
	})
	return rec
}

// framedReads checks every FSS Read reply the recorder saw arrive over
// HTTP — a fault aside — carried its content as an attachment, not as
// base64 text, and returns how many there were.
func (d *dialRecorder) framedReads(t *testing.T) int {
	t.Helper()
	d.mu.Lock()
	defer d.mu.Unlock()
	n := 0
	for _, reply := range d.reads {
		env, err := soap.Unmarshal(reply.Envelope)
		if err != nil {
			t.Fatal(err)
		}
		if soap.IsFault(env.Body) {
			continue
		}
		n++
		content := env.Body.Child(xmlutil.Q(filesystem.NS, "Content"))
		if len(reply.Attachments) != 1 || content == nil || content.Text != "" || len(content.Children) != 1 {
			t.Errorf("an FSS Read crossed HTTP with %d attachment(s) and Content %v, want the framed body", len(reply.Attachments), content)
		}
	}
	return n
}

// dialled splits what the recorder saw into addresses under base and the
// rest.
func (d *dialRecorder) dialled(base string) (own, others []string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, addr := range d.addrs {
		if strings.HasPrefix(addr, base+"/") {
			own = append(own, addr)
		} else {
			others = append(others, addr)
		}
	}
	return own, others
}

// sideCounter is an interceptor for both chains of a host that counts the
// messages addressed to one service path by the side they passed on.
type sideCounter struct {
	path           string
	client, server atomic.Int64
}

func (c *sideCounter) intercept(ctx context.Context, call *soap.CallInfo, next soap.Handler) (*soap.Envelope, error) {
	if call.Path == c.path {
		if call.Side == soap.ClientSide {
			c.client.Add(1)
		} else {
			c.server.Add(1)
		}
	}
	return next(ctx, call)
}

// TestShippedWiringRunsDemoJobSet stands a grid up the way the binaries
// do — daemon.Flags.Open, master.Assemble / node.New, Host.ListenHTTP,
// Start / Register, in cmd/gridmaster's and cmd/gridnode's order — on
// loopback HTTP with journaled stores, and runs the README's demo job
// set through it with the client wired as cmd/gridsub wires it: gen on
// one machine, sum staged from it over soap.tcp and HTTP, the total
// fetched back.
//
// Neither the master nor a node may ever open a socket to itself while it
// does: Host.ListenHTTP told each client which base is its own process.
// The broker's Notify to the co-hosted /SchedulerConsumer must all the
// same pass the client chain and the server chain, metrics included.
func TestShippedWiringRunsDemoJobSet(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	mhost := openHost(t, "-data-dir", t.TempDir(), "-fsync=false", "-metrics")
	masterDials := recordDials(mhost)
	consumer := &sideCounter{path: "/SchedulerConsumer"}
	mhost.Client.Use(consumer.intercept)
	maddr := freeAddr(t)
	masterURL := daemon.Advertised("127.0.0.1", maddr)
	m, err := master.Assemble(mhost.MasterConfig(masterURL))
	if err != nil {
		t.Fatal(err)
	}
	srv := transport.NewServer(m.Mux)
	srv.Use(mhost.Interceptors()...)
	srv.Use(consumer.intercept)
	_, stop, err := mhost.ListenHTTP(srv, maddr, masterURL)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(stop)
	if _, err := m.Start(ctx); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Stop)

	nodeDials := make(map[string]*dialRecorder) // by the node's own base
	for _, name := range []string{"win-a", "win-b"} {
		nhost := openHost(t, "-data-dir", t.TempDir(), "-fsync=false")
		naddr := freeAddr(t)
		nodeURL := daemon.Advertised("127.0.0.1", naddr)
		nodeDials[nodeURL] = recordDials(nhost)
		n, err := node.New(node.Config{
			Name:         name,
			Address:      nodeURL,
			Client:       nhost.Client,
			Cores:        2,
			Broker:       wsa.NewEPR(masterURL + "/NotificationBroker"),
			NIS:          wsa.NewEPR(masterURL + "/NodeInfoService"),
			Store:        nhost.Store,
			Interceptors: nhost.Interceptors(),
		})
		if err != nil {
			t.Fatal(err)
		}
		_, stop, err := nhost.ListenHTTP(n.Server(), naddr, nodeURL)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(stop)
		if err := n.Register(ctx); err != nil {
			t.Fatal(err)
		}
		n.Start()
		t.Cleanup(n.Stop)
	}

	jobset := filepath.Join("..", "..", "examples", "gridsub-demo", "analysis.jobset")
	f, err := os.Open(jobset)
	if err != nil {
		t.Fatal(err)
	}
	desc, err := core.ParseJobSetFile(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	chost := openHost(t)
	clientDials := recordDials(chost)
	client, err := core.NewClient(core.ClientConfig{
		Transport: chost.Client,
		Master:    masterURL,
		TCPFiles:  true,
		Expose: func(srv *transport.Server) (string, func(), error) {
			srv.Use(chost.Interceptors()...)
			return chost.ListenHTTP(srv, "127.0.0.1:0")
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	for name, path := range desc.Files {
		content, err := os.ReadFile(filepath.Join(filepath.Dir(jobset), path))
		if err != nil {
			t.Fatal(err)
		}
		client.AddFile(name, content)
	}
	sub, err := client.Submit(ctx, desc.Spec)
	if err != nil {
		t.Fatal(err)
	}
	if status, err := sub.Wait(ctx); err != nil || status != scheduler.SetCompleted {
		_, detail := sub.Status()
		t.Fatalf("job set ended %q (%s), err %v", status, detail, err)
	}
	total, err := sub.FetchOutput(ctx, "sum", "total.txt")
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(string(total)); got != "100" {
		t.Fatalf("sum/total.txt = %q, want 100", got)
	}

	// Every daemon talked to the others over sockets and to itself over
	// none.
	nodeDials[masterURL] = masterDials
	for base, rec := range nodeDials {
		own, others := rec.dialled(base)
		if len(own) > 0 {
			t.Errorf("%s opened a socket to itself %d time(s): %v", base, len(own), own)
		}
		if len(others) == 0 {
			t.Errorf("%s dialled nobody: the recorder is not on the path the daemons use", base)
		}
	}
	// Every file a host fetched over HTTP crossed as the framed body the
	// shipped binding sends, never as base64 text: the client's fetch of
	// total.txt for certain, and sum's input when sum ran on the other
	// machine than gen.
	reads := clientDials.framedReads(t)
	if reads == 0 {
		t.Error("the client fetched total.txt without an FSS Read over HTTP: the recorder is not on the path gridsub uses")
	}
	for _, rec := range nodeDials {
		reads += rec.framedReads(t)
	}
	t.Logf("%d FSS Read(s) crossed HTTP, each with its content attached", reads)
	// The broker → /SchedulerConsumer self-call: as many messages entered
	// the server chain as left the client chain (one-way deliveries may
	// still be landing), and the -metrics table counted both halves.
	// One-way deliveries can still be landing after the set is done, so
	// the three counters are read until one reading of all of them agrees.
	row := pipeline.Key{Path: "/SchedulerConsumer", Action: wsn.ActionNotify}
	var sent, handled int64
	var got uint64
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		sent, handled, got = consumer.client.Load(), consumer.server.Load(), mhost.Metrics.Snapshot()[row].Calls
		if (sent > 0 && sent == handled && got == uint64(sent+handled)) || time.Now().After(deadline) {
			break
		}
	}
	if sent == 0 || sent != handled {
		t.Fatalf("/SchedulerConsumer: %d Notify left the master's client chain, %d reached its server chain", sent, handled)
	}
	if got != uint64(sent+handled) {
		t.Fatalf("-metrics row %v counts %d calls, want %d client-side + %d server-side", row, got, sent, handled)
	}
}

// TestRetriesFlagReachesNotificationDelivery: -retries is one policy for
// the host's idempotent calls and, through Host.MasterConfig as
// cmd/gridmaster assembles its master, for the broker's deliveries: the
// first Notify to a consumer fails on the way and the second arrives,
// inside one Publish. (The shipped master used to deliver each Notify
// once whatever -retries said.)
func TestRetriesFlagReachesNotificationDelivery(t *testing.T) {
	host := openHost(t, "-retries", "2")
	var deliveries atomic.Int64
	host.Client.WrapSchemes(func(_ string, rt transport.RoundTripper) transport.RoundTripper {
		return transport.WrapFaults(rt, func(_ transport.FaultOp, addr string) transport.FaultDecision {
			if strings.HasSuffix(addr, "/listener") && deliveries.Add(1) == 1 {
				return transport.FaultDecision{Err: errors.New("connection reset by peer")}
			}
			return transport.FaultDecision{}
		})
	})
	m, err := master.Assemble(host.MasterConfig(daemon.Advertised("127.0.0.1", freeAddr(t))))
	if err != nil {
		t.Fatal(err)
	}

	consumer := wsn.NewConsumer()
	events := consumer.Channel(wsn.Simple("jobs"), 1)
	mux := soap.NewMux()
	consumer.Mount(mux, "/listener")
	base, shutdown, err := transport.ListenHTTP(transport.NewServer(mux), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(context.Background())
	if _, err := m.Broker.Producer().Subscribe(wsa.NewEPR(base+"/listener"), wsn.Simple("jobs")); err != nil {
		t.Fatal(err)
	}
	if got := m.Broker.Producer().Publish(context.Background(), "jobs", wsa.EndpointReference{}, nil); got != 1 {
		t.Fatalf("Publish delivered to %d consumer(s), want 1", got)
	}
	select {
	case <-events:
	case <-time.After(5 * time.Second):
		t.Fatal("the notification whose first delivery failed never arrived")
	}
	if got := deliveries.Load(); got != 2 {
		t.Fatalf("the Notify crossed the wire %d time(s), want 2", got)
	}
}

// TestColocatedShutdownDrainsBeforeTheStoreCloses: Host.Shutdown takes the
// listener and the route away first — a self-call then fails like a
// closed port — and closes the store only after the requests already
// inside have drained, so a handler that was mid-request when shutdown
// began still commits its journaled write. (With the store closed first,
// as both mains had it, that write faults.)
func TestColocatedShutdownDrainsBeforeTheStoreCloses(t *testing.T) {
	dir := t.TempDir()
	host := openHostUnclosed(t, "-data-dir", dir, "-fsync=false", "-metrics")
	rows := host.Store.MustTable("rows", resourcedb.BlobCodec{})
	qRow := xmlutil.Q("urn:uvacg:test", "Row")

	entered, release := make(chan struct{}), make(chan struct{})
	d := soap.NewDispatcher()
	d.Register("urn:SlowWrite", func(ctx context.Context, req *soap.Envelope) (*soap.Envelope, error) {
		close(entered)
		<-release
		return nil, rows.Put("late", xmlutil.NewElement(qRow, "written while draining"))
	})
	d.Register("urn:Ping", func(ctx context.Context, req *soap.Envelope) (*soap.Envelope, error) { return nil, nil })
	mux := soap.NewMux()
	mux.Handle("/Svc", d)
	srv := transport.NewServer(mux)
	srv.Use(host.Interceptors()...)
	// The advertised name is a loopback port nothing listens on, so only
	// the route can answer it.
	const advertised = "http://127.0.0.1:1"
	base, stop, err := host.ListenHTTP(srv, "127.0.0.1:0", advertised)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	ping := func(addr string) error {
		_, err := host.Client.Call(ctx, wsa.NewEPR(addr+"/Svc"), "urn:Ping", nil)
		return err
	}
	// Both names of the listener are this process while it is up.
	for _, addr := range []string{base, advertised} {
		if err := ping(addr); err != nil {
			t.Fatalf("self-call to %s before shutdown: %v", addr, err)
		}
	}

	// A peer's request is inside the handler when the signal arrives.
	slow := make(chan error, 1)
	go func() {
		_, err := transport.NewClient().Call(ctx, wsa.NewEPR(base+"/Svc"), "urn:SlowWrite", nil)
		slow <- err
	}()
	<-entered
	var order []string
	var metrics strings.Builder
	down := make(chan struct{})
	go func() {
		defer close(down)
		host.Shutdown(func() { stop(); order = append(order, "listener") }, func() { order = append(order, "services") }, &metrics)
	}()
	// The route goes first: the own base now fails like a closed port,
	// while the request that was already inside is still being waited for.
	deadline := time.Now().Add(5 * time.Second)
	for ping(base) == nil {
		if time.Now().After(deadline) {
			t.Fatal("own base still answers after shutdown began")
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case <-down:
		t.Fatal("Shutdown returned with a request still inside")
	default:
	}
	close(release)
	if err := <-slow; err != nil {
		t.Fatalf("the request that was inside when shutdown began faulted: %v", err)
	}
	<-down
	if strings.Join(order, ",") != "listener,services" {
		t.Fatalf("shutdown order %v, want listener then services", order)
	}
	if err := rows.Put("after", xmlutil.NewElement(qRow, "x")); err == nil {
		t.Fatal("the store still journals after Shutdown")
	}
	if !strings.Contains(metrics.String(), "urn:SlowWrite") {
		t.Fatalf("-metrics dump lacks the drained request:\n%s", metrics.String())
	}
	reopened, err := resourcedb.OpenDurable(dir, resourcedb.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if doc, ok, err := reopened.Store.MustTable("rows", resourcedb.BlobCodec{}).Get("late"); err != nil || !ok || doc.Text != "written while draining" {
		t.Fatalf("the drained write is not in the journal: %v %v %v", doc, ok, err)
	}
}
