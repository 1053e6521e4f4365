package daemon_test

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
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
	"uvacg/internal/procspawn"
	"uvacg/internal/resourcedb"
	"uvacg/internal/services/execution"
	"uvacg/internal/services/filesystem"
	"uvacg/internal/services/nodeinfo"
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

// openHost parses args as gridmaster and gridnode would and opens their
// plumbing.
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
	flags := daemon.RegisterFlags(fs).RegisterJournalFlags(fs) // as the daemons declare them
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	host, err := flags.Open()
	if err != nil {
		t.Fatal(err)
	}
	return host
}

// dialRecorder wraps a host's http and soap.tcp bindings and notes every
// message that actually went to a socket, and the reply to every FSS
// Read among them.
type dialRecorder struct {
	inner map[string]transport.RoundTripper // by scheme
	mu    sync.Mutex
	sent  []crossing
	reads []read
	// tick orders the starts and answers of crossings.
	tick int64
}

// crossing is one message a recorder saw leave for a socket: when it
// left, and when its answer (reply or receipt) arrived, 0 if none did.
type crossing struct {
	addr, action   string
	left, answered int64
}

// read is the reply to an FSS Read and the scheme it crossed under.
type read struct {
	scheme string
	reply  *transport.Message
}

// schemeOf is the URI scheme of addr.
func schemeOf(addr string) string {
	scheme, _, _ := strings.Cut(addr, "://")
	return scheme
}

// note records a crossing leaving and returns its index.
func (d *dialRecorder) note(addr string, request *transport.Message) int {
	action := ""
	if env, err := soap.Unmarshal(request.Envelope); err == nil {
		if info, err := wsa.Extract(env); err == nil {
			action = info.Action
		}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.tick++
	d.sent = append(d.sent, crossing{addr: addr, action: action, left: d.tick})
	return len(d.sent) - 1
}

// answered records that crossing i was answered, unless err says not.
func (d *dialRecorder) answered(i int, err error) {
	if err != nil {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.tick++
	d.sent[i].answered = d.tick
}

func (d *dialRecorder) RoundTrip(ctx context.Context, addr string, request *transport.Message) (*transport.Message, error) {
	i := d.note(addr, request)
	reply, err := d.inner[schemeOf(addr)].RoundTrip(ctx, addr, request)
	d.answered(i, err)
	if err == nil && bytes.Contains(request.Envelope, []byte(">"+filesystem.ActionRead+"<")) {
		d.mu.Lock()
		d.reads = append(d.reads, read{schemeOf(addr), reply})
		d.mu.Unlock()
	}
	return reply, err
}

func (d *dialRecorder) Send(ctx context.Context, addr string, request *transport.Message) error {
	i := d.note(addr, request)
	err := d.inner[schemeOf(addr)].Send(ctx, addr, request)
	d.answered(i, err)
	return err
}

// recordDials installs a dialRecorder on host's http and soap.tcp
// schemes; call before the client carries traffic.
func recordDials(host *daemon.Host) *dialRecorder {
	rec := &dialRecorder{inner: make(map[string]transport.RoundTripper)}
	host.Client.WrapSchemes(func(scheme string, rt transport.RoundTripper) transport.RoundTripper {
		if scheme != "http" && scheme != transport.SchemeTCP {
			return nil
		}
		rec.inner[scheme] = rt
		return rec
	})
	return rec
}

// checkReads checks every FSS Read reply the recorder saw arrive — a
// fault aside — carried its content as an attachment over soap.tcp and
// as base64 text over HTTP, and returns how many crossed under each.
func (d *dialRecorder) checkReads(t *testing.T) (framed, inline int) {
	t.Helper()
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, r := range d.reads {
		env, err := soap.Unmarshal(r.reply.Envelope)
		if err != nil {
			t.Fatal(err)
		}
		if soap.IsFault(env.Body) {
			continue
		}
		content := env.Body.Child(xmlutil.Q(filesystem.NS, "Content"))
		attached := len(r.reply.Attachments) == 1 && content != nil && content.Text == "" && len(content.Children) == 1
		plain := len(r.reply.Attachments) == 0 && content != nil && content.Text != "" && len(content.Children) == 0
		switch {
		case r.scheme == transport.SchemeTCP && attached:
			framed++
		case r.scheme == "http" && plain:
			inline++
		default:
			t.Errorf("an FSS Read crossed %s with %d attachment(s) and Content %v", r.scheme, len(r.reply.Attachments), content)
		}
	}
	return framed, inline
}

// portOf is the host:port of addr.
func portOf(addr string) string {
	_, rest, _ := strings.Cut(addr, "://")
	hostport, _, _ := strings.Cut(rest, "/")
	return hostport
}

// framed counts the messages with action to the port hostport that the
// recorder saw leave as frames.
func (d *dialRecorder) framed(action, hostport string) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := 0
	for _, c := range d.sent {
		if c.action == action && portOf(c.addr) == hostport && schemeOf(c.addr) == transport.SchemeTCP {
			n++
		}
	}
	return n
}

// httpAfterAnswer lists the messages that left over HTTP for a port that
// had already answered an HTTP message of the recorder's: the port's
// announcement of its frames had arrived by then.
func (d *dialRecorder) httpAfterAnswer() []crossing {
	d.mu.Lock()
	defer d.mu.Unlock()
	firstAnswer := make(map[string]int64)
	for _, c := range d.sent {
		port := portOf(c.addr)
		if schemeOf(c.addr) == "http" && c.answered > 0 && (firstAnswer[port] == 0 || c.answered < firstAnswer[port]) {
			firstAnswer[port] = c.answered
		}
	}
	var late []crossing
	for _, c := range d.sent {
		if first := firstAnswer[portOf(c.addr)]; schemeOf(c.addr) == "http" && first > 0 && c.left > first {
			late = append(late, c)
		}
	}
	return late
}

// dialled splits what the recorder saw into the addresses on the port
// hostport, under either scheme, and the rest.
func (d *dialRecorder) dialled(hostport string) (own, others []string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, c := range d.sent {
		if portOf(c.addr) == hostport {
			own = append(own, c.addr)
		} else {
			others = append(others, c.addr)
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

// shippedGrid is a master and two nodes ("win-a", "win-b", two cores
// each) stood up the way the binaries do — daemon.Flags.Open,
// master.Assemble / node.New, Host.ListenHTTP, Start / Register, in
// cmd/gridmaster's and cmd/gridnode's order, every daemon advertising
// http:// — on loopback with journaled stores; the master keeps
// -metrics.
type shippedGrid struct {
	mhost            *daemon.Host
	m                *master.Master
	maddr, masterURL string
	// stopMaster takes the master's listener down; the test's cleanup
	// does it too.
	stopMaster func()
}

// standShippedGrid stands the grid up. wire, when given, sees each host
// before it carries traffic — "gridmaster" or the node's name, its listen
// address and its server, whose host interceptors are installed already.
func standShippedGrid(t *testing.T, ctx context.Context, wire func(name string, host *daemon.Host, addr string, srv *transport.Server)) *shippedGrid {
	t.Helper()
	if wire == nil {
		wire = func(string, *daemon.Host, string, *transport.Server) {}
	}
	g := &shippedGrid{mhost: openHost(t, "-data-dir", t.TempDir(), "-fsync=false", "-metrics"), maddr: freeAddr(t)}
	g.masterURL = daemon.Advertised("127.0.0.1", g.maddr)
	var err error
	if g.m, err = master.Assemble(g.mhost.MasterConfig(g.masterURL)); err != nil {
		t.Fatal(err)
	}
	srv := transport.NewServer(g.m.Mux)
	srv.Use(g.mhost.Interceptors()...)
	wire("gridmaster", g.mhost, g.maddr, srv)
	_, stop, err := g.mhost.ListenHTTP(srv, g.maddr, g.masterURL)
	if err != nil {
		t.Fatal(err)
	}
	g.stopMaster = sync.OnceFunc(stop)
	t.Cleanup(g.stopMaster)
	if _, err := g.m.Start(ctx); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"win-a", "win-b"} {
		nhost := openHost(t, "-data-dir", t.TempDir(), "-fsync=false")
		naddr := freeAddr(t)
		nodeURL := daemon.Advertised("127.0.0.1", naddr)
		n, err := node.New(node.Config{
			Name:         name,
			Address:      nodeURL,
			Client:       nhost.Client,
			Cores:        2,
			Broker:       wsa.NewEPR(g.masterURL + "/NotificationBroker"),
			NIS:          wsa.NewEPR(g.masterURL + "/NodeInfoService"),
			Store:        nhost.Store,
			Interceptors: nhost.Interceptors(),
		})
		if err != nil {
			t.Fatal(err)
		}
		wire(name, nhost, naddr, n.Server())
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
	return g
}

// demoJobSet reads the README's demo job set and the files it publishes.
func demoJobSet(t *testing.T) (*core.JobSetFile, map[string][]byte) {
	t.Helper()
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
	files := make(map[string][]byte, len(desc.Files))
	for name, path := range desc.Files {
		if files[name], err = os.ReadFile(filepath.Join(filepath.Dir(jobset), path)); err != nil {
			t.Fatal(err)
		}
	}
	return desc, files
}

// TestShippedWiringRunsDemoJobSet stands a grid up the way the binaries
// do — daemon.Flags.Open, master.Assemble / node.New, Host.ListenHTTP,
// Start / Register, in cmd/gridmaster's and cmd/gridnode's order, every
// daemon advertising http:// — on loopback with journaled stores, and
// runs the README's demo job set through it with the client wired as
// cmd/gridsub wires it: gen on one machine, sum staged from it, the total
// fetched back. A second set does the same with names, files and script
// arguments that are not ASCII, and its output comes back byte for byte.
//
// Each process asks a port over HTTP until that port has answered it
// once; from then on every message it sends there crosses as frames,
// both ways among gridmaster, the gridnodes and gridsub: the master's
// Run, a staging Read, the client's Submit and fetch, the ES's Notify to
// the broker and the broker's Notify to gridsub's listener. Neither the
// master nor a node may ever open a socket to itself, under either
// scheme: Host.ListenHTTP told each client which port is its own
// process. The broker's Notify to the co-hosted /SchedulerConsumer must
// all the same pass the client chain and the server chain, metrics
// included.
func TestShippedWiringRunsDemoJobSet(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var masterDials *dialRecorder
	consumer := &sideCounter{path: "/SchedulerConsumer"}
	nodeDials := make(map[string]*dialRecorder) // by the node's own port
	g := standShippedGrid(t, ctx, func(name string, host *daemon.Host, addr string, srv *transport.Server) {
		if name != "gridmaster" {
			nodeDials[addr] = recordDials(host)
			return
		}
		masterDials = recordDials(host)
		host.Client.Use(consumer.intercept)
		srv.Use(consumer.intercept)
	})
	mhost, m, maddr, masterURL := g.mhost, g.m, g.maddr, g.masterURL

	desc, files := demoJobSet(t)
	chost := openHost(t)
	clientDials := recordDials(chost)
	var listenerBase string
	client, err := core.NewClient(core.ClientConfig{
		Transport: chost.Client,
		Master:    masterURL,
		TCPFiles:  true,
		Expose: func(srv *transport.Server) (string, func(), error) {
			srv.Use(chost.Interceptors()...)
			base, stop, err := chost.ListenHTTP(srv, "127.0.0.1:0")
			listenerBase = base
			return base, stop, err
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	for name, content := range files {
		client.AddFile(name, content)
	}
	// A set whose names, files and script arguments are not ASCII crosses
	// every hop and every journal the demo does.
	client.AddFile("générer.app", core.Script("write données.txt résultat ✓ 日本", "exit 0"))
	client.AddFile("étape.app", core.Script("read entrée.txt", "transform entrée.txt sortie.txt upper", "exit 0"))
	wide := core.NewJobSet("analyse-données")
	wide.Add("générer", core.Local("générer.app")).Outputs("données.txt")
	wide.Add("étape-日本", core.Local("étape.app")).
		Input("entrée.txt", core.Output("générer", "données.txt")).Outputs("sortie.txt")
	for _, set := range []struct {
		spec      *core.JobSet
		job, file string
		want      string
	}{
		{desc.Spec, "sum", "total.txt", "100"},
		{wide.Spec(), "étape-日本", "sortie.txt", "RÉSULTAT ✓ 日本"},
	} {
		sub, err := client.Submit(ctx, set.spec)
		if err != nil {
			t.Fatal(err)
		}
		if status, err := sub.Wait(ctx); err != nil || status != scheduler.SetCompleted {
			_, detail := sub.Status()
			t.Fatalf("job set %s ended %q (%s), err %v", set.spec.Name, status, detail, err)
		}
		got, err := sub.FetchOutput(ctx, set.job, set.file)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != set.want {
			t.Fatalf("%s/%s = %q, want %q", set.job, set.file, got, set.want)
		}
	}

	// The nodes advertise http://, as the master does.
	procs, err := nodeinfo.GetProcessorsVia(ctx, mhost.Client, m.NIS.EPR())
	if err != nil || len(procs) != 2 {
		t.Fatalf("catalog: %v, %v", procs, err)
	}
	for _, p := range procs {
		if schemeOf(p.ES.Address) != "http" {
			t.Errorf("%s advertises its ES at %s, want http", p.Host, p.ES.Address)
		}
	}
	// Once a port had answered a process over HTTP, all that process sent
	// it crossed as frames. The ES's Notify to the broker and the broker's
	// Notify to gridsub's listener did so, one-way as they are.
	procsDials := map[string]*dialRecorder{"gridmaster": masterDials, "gridsub": clientDials}
	notified := 0
	for port, rec := range nodeDials {
		procsDials["gridnode "+port] = rec
		notified += rec.framed(wsn.ActionNotify, maddr)
	}
	for who, rec := range procsDials {
		for _, c := range rec.httpAfterAnswer() {
			t.Errorf("%s sent %s to %s over HTTP after the port had answered it", who, c.action, c.addr)
		}
	}
	if notified == 0 {
		t.Error("no node sent the broker a Notify as frames")
	}
	if masterDials.framed(wsn.ActionNotify, strings.TrimPrefix(listenerBase, "http://")) == 0 {
		t.Error("the broker sent gridsub's listener no Notify as frames")
	}

	// Every daemon talked to the others over sockets and to its own port
	// over none, under either scheme.
	nodeDials[maddr] = masterDials
	for port, rec := range nodeDials {
		own, others := rec.dialled(port)
		if len(own) > 0 {
			t.Errorf("%s opened a socket to itself %d time(s): %v", port, len(own), own)
		}
		if len(others) == 0 {
			t.Errorf("%s dialled nobody: the recorder is not on the path the daemons use", port)
		}
	}
	// Every file a host fetched crossed with its content attached over
	// soap.tcp and inline over HTTP: the client's fetch of total.txt for
	// certain, and every staging Read.
	framed, inline := clientDials.checkReads(t)
	if framed+inline == 0 {
		t.Error("the client fetched total.txt without an FSS Read on the wire: the recorder is not on the path gridsub uses")
	}
	for _, rec := range nodeDials {
		f, i := rec.checkReads(t)
		framed, inline = framed+f, inline+i
	}
	t.Logf("%d FSS Read(s) crossed attached over soap.tcp, %d inline over HTTP", framed, inline)
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

// TestRestartedMasterSchedulesOnNodesAlreadyUp: a gridmaster restarted
// with no -data-dir, on the port its nodes report to, starts with an empty
// catalog. The nodes, idle and up all along, renew their entries within a
// renewal period, and the demo set submitted at once waits for them and
// runs to completion. While a node reported only at start and on a
// threshold crossing, the restarted master never heard of the idle nodes
// and failed the set with "no processors available".
func TestRestartedMasterSchedulesOnNodesAlreadyUp(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	g := standShippedGrid(t, ctx, nil)
	g.stopMaster()

	mhost := openHost(t)
	m, err := master.Assemble(mhost.MasterConfig(g.masterURL))
	if err != nil {
		t.Fatal(err)
	}
	srv := transport.NewServer(m.Mux)
	srv.Use(mhost.Interceptors()...)
	_, stop, err := mhost.ListenHTTP(srv, g.maddr, g.masterURL)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(stop)
	if _, err := m.Start(ctx); err != nil {
		t.Fatal(err)
	}
	if procs, err := m.NIS.Processors(); err != nil || len(procs) != 0 {
		t.Fatalf("the restarted master's catalog before any renewal: %+v, %v", procs, err)
	}

	desc, files := demoJobSet(t)
	chost := openHost(t)
	client, err := core.NewClient(core.ClientConfig{
		Transport: chost.Client,
		Master:    g.masterURL,
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
	for name, content := range files {
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
	if got, err := sub.FetchOutput(ctx, "sum", "total.txt"); err != nil || string(got) != "100" {
		t.Fatalf("sum/total.txt = %q, %v", got, err)
	}
	if procs, err := m.NIS.Processors(); err != nil || len(procs) != 2 {
		t.Fatalf("the restarted master's catalog: %+v, %v", procs, err)
	}
}

// TestShippedMasterRetriesNotificationDelivery: a master host opened with
// no flags, assembled through Host.MasterConfig as cmd/gridmaster
// assembles it, runs the simulator's one retry. The first Notify to a
// consumer fails on the way and the second arrives, inside one Publish;
// an idempotent read on the host's client whose first wire attempt fails
// succeeds on the second; a Report, which is not idempotent, crosses the
// wire once and its failure is returned.
func TestShippedMasterRetriesNotificationDelivery(t *testing.T) {
	host := openHost(t)
	// Every odd crossing to a watched path fails before it leaves: the
	// first attempt of each leg below.
	var listener, nis atomic.Int64
	host.Client.WrapSchemes(func(_ string, rt transport.RoundTripper) transport.RoundTripper {
		return transport.WrapFaults(rt, func(_ transport.FaultOp, addr string) transport.FaultDecision {
			var n int64
			switch {
			case strings.HasSuffix(addr, "/listener"):
				n = listener.Add(1)
			case strings.HasSuffix(addr, "/NodeInfoService"):
				n = nis.Add(1)
			}
			if n%2 == 1 {
				return transport.FaultDecision{Err: errors.New("connection reset by peer")}
			}
			return transport.FaultDecision{}
		})
	})
	maddr := freeAddr(t)
	m, err := master.Assemble(host.MasterConfig(daemon.Advertised("127.0.0.1", maddr)))
	if err != nil {
		t.Fatal(err)
	}
	// Served without the co-located route, so the host's own calls to its
	// NIS cross the wrapped binding.
	_, stopMaster, err := transport.ListenHTTP(transport.NewServer(m.Mux), maddr)
	if err != nil {
		t.Fatal(err)
	}
	defer stopMaster(context.Background())

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
	// Two consumers: the listener, and the scheduler's standing
	// subscription, which hears every topic.
	if got := m.Broker.Producer().Publish(context.Background(), "jobs", wsa.EndpointReference{}, nil); got != 2 {
		t.Fatalf("Publish delivered to %d consumer(s), want 2", got)
	}
	select {
	case <-events:
	case <-time.After(5 * time.Second):
		t.Fatal("the notification whose first delivery failed never arrived")
	}
	if got := listener.Load(); got != 2 {
		t.Fatalf("the Notify crossed the wire %d time(s), want 2", got)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := nodeinfo.GetProcessorsVia(ctx, host.Client, m.NIS.EPR()); err != nil {
		t.Fatalf("GetProcessors whose first attempt failed: %v", err)
	}
	if got := nis.Load(); got != 2 {
		t.Fatalf("GetProcessors crossed the wire %d time(s), want 2", got)
	}
	report := nodeinfo.ReportRequest(nodeinfo.Processor{Host: "win-a", ES: wsa.NewEPR("http://127.0.0.1:1/ExecutionService"), Cores: 1, SpeedMHz: 1000, RAMMB: 512})
	if _, err := host.Client.Call(ctx, m.NIS.EPR(), nodeinfo.ActionReport, report); err == nil {
		t.Fatal("a Report whose only attempt failed returned no error")
	}
	if got := nis.Load(); got != 3 {
		t.Fatalf("the Report crossed the wire %d time(s), want 1", got-2)
	}
}

// TestColocatedShutdownDrainsBeforeTheStoreCloses: Host.Shutdown takes the
// listener and the route away first — a self-call then fails like a
// closed port, under either scheme — and closes the store only after the
// requests already inside have drained, so a handler that was
// mid-request when shutdown began still commits its journaled write.
// (With the store closed first, as both mains had it, that write
// faults.) The port serves both bindings, and so does the drain: one
// request inside arrived over HTTP and one over soap.tcp. A peer's
// connection that never sent a byte holds neither the accept loop, while
// the listener is up, nor the drain.
func TestColocatedShutdownDrainsBeforeTheStoreCloses(t *testing.T) {
	dir := t.TempDir()
	host := openHostUnclosed(t, "-data-dir", dir, "-fsync=false", "-metrics")
	rows := host.Store.MustTable("rows", resourcedb.BlobCodec{})
	qRow := xmlutil.Q("urn:uvacg:test", "Row")

	entered, release := make(chan string, 2), make(chan struct{})
	d := soap.NewDispatcher()
	d.Register("urn:SlowWrite", func(ctx context.Context, req *soap.Envelope) (*soap.Envelope, error) {
		entered <- req.Body.Text
		<-release
		return nil, rows.Put(req.Body.Text, xmlutil.NewElement(qRow, "written while draining"))
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
	port := strings.TrimPrefix(base, "http://")
	tcpBase := transport.SchemeTCP + "://" + port
	// A peer dials and says nothing, before anything else reaches the port.
	silent, err := net.Dial("tcp", port)
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	ping := func(addr string) error {
		_, err := host.Client.Call(ctx, wsa.NewEPR(addr+"/Svc"), "urn:Ping", nil)
		return err
	}
	// Every name of the listener is this process while it is up, in both
	// schemes.
	for _, addr := range []string{base, tcpBase, advertised, transport.SchemeTCP + "://127.0.0.1:1"} {
		if err := ping(addr); err != nil {
			t.Fatalf("self-call to %s before shutdown: %v", addr, err)
		}
	}

	// A peer's request over each binding is inside the handler when the
	// signal arrives. The peer is reached past the silent connection.
	slow := make(chan error, 2)
	for _, addr := range []string{base, tcpBase} {
		go func() {
			_, err := transport.NewClient().Call(ctx, wsa.NewEPR(addr+"/Svc"), "urn:SlowWrite", xmlutil.NewElement(qRow, addr))
			slow <- err
		}()
	}
	for range 2 {
		select {
		case <-entered:
		case <-ctx.Done():
			t.Fatal("a request never reached its handler past the silent connection")
		}
	}
	var order []string
	var metrics strings.Builder
	down := make(chan struct{})
	go func() {
		defer close(down)
		host.Shutdown(func() { stop(); order = append(order, "listener") }, func() { order = append(order, "services") }, &metrics)
	}()
	// The route goes first: the own port now fails like a closed one, under
	// either scheme, while the requests already inside are still waited for.
	deadline := time.Now().Add(5 * time.Second)
	for ping(base) == nil || ping(tcpBase) == nil {
		if time.Now().After(deadline) {
			t.Fatal("own port still answers after shutdown began")
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case <-down:
		t.Fatal("Shutdown returned with requests still inside")
	default:
	}
	close(release)
	released := time.Now()
	for range 2 {
		if err := <-slow; err != nil {
			t.Fatalf("a request that was inside when shutdown began faulted: %v", err)
		}
	}
	<-down
	if took := time.Since(released); took > 2*time.Second {
		t.Fatalf("shutdown took %v after the last request was answered: it waited on the silent connection", took)
	}
	if strings.Join(order, ",") != "listener,services" {
		t.Fatalf("shutdown order %v, want listener then services", order)
	}
	if err := rows.Put("after", xmlutil.NewElement(qRow, "x")); err == nil {
		t.Fatal("the store still journals after Shutdown")
	}
	if !strings.Contains(metrics.String(), "urn:SlowWrite") {
		t.Fatalf("-metrics dump lacks the drained requests:\n%s", metrics.String())
	}
	reopened, err := resourcedb.OpenDurable(dir, resourcedb.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	table := reopened.Store.MustTable("rows", resourcedb.BlobCodec{})
	for _, key := range []string{base, tcpBase} {
		if doc, ok, err := table.Get(key); err != nil || !ok || doc.Text != "written while draining" {
			t.Fatalf("the write drained from %s is not in the journal: %v %v %v", key, doc, ok, err)
		}
	}
}

// TestRunOnARestartedListenerRunsOnce: the master learns the node's
// frames from its first Run's answer and sends the second as frames, so
// its soap.tcp pool holds a connection to the node, whose listener then
// stops and starts again on the same port. The next Run, still sent as
// frames, finds that connection closed before any reply, goes out once
// more on a fresh dial, and the machine runs it once: one more job
// resource, one more process.
func TestRunOnARestartedListenerRunsOnce(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	broker := wsn.NewConsumer()
	events := broker.Channel(wsn.MustTopicExpression(wsn.DialectFull, "*//"), 16)
	mux := soap.NewMux()
	broker.Mount(mux, "/NotificationBroker")
	brokerBase, shutdown, err := transport.ListenHTTP(transport.NewServer(mux), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(ctx)
	files := filesystem.NewFileServer("/files")
	files.Publish("job.app", procspawn.BuildScript("exit 0"))
	filesEPR, err := files.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer files.Close()

	nhost := openHost(t)
	naddr := freeAddr(t)
	nodeURL := daemon.Advertised("127.0.0.1", naddr)
	n, err := node.New(node.Config{
		Name:         "win-a",
		Address:      nodeURL,
		Client:       nhost.Client,
		Cores:        2,
		Broker:       wsa.NewEPR(brokerBase + "/NotificationBroker"),
		Store:        nhost.Store,
		Interceptors: nhost.Interceptors(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Stop)
	_, stop, err := nhost.ListenHTTP(n.Server(), naddr, nodeURL)
	if err != nil {
		t.Fatal(err)
	}

	mhost := openHost(t)
	dials := recordDials(mhost)
	master := mhost.Client
	exited := 0
	run := func(name string) {
		t.Helper()
		_, err := master.Call(ctx, n.ES.EPR(), execution.ActionRun, execution.RunRequest(name, "set", "job.app",
			[]filesystem.FileRef{{Source: filesEPR, RemoteName: "job.app"}}))
		if err != nil {
			t.Fatalf("Run %s: %v", name, err)
		}
		for exited < len(n.ES.WSRF().Home().IDs()) {
			select {
			case note := <-events:
				if ev, err := execution.ParseJobEvent(note.Message); err == nil && ev.Kind == execution.EventExited {
					exited++
				}
			case <-ctx.Done():
				t.Fatalf("%d of the node's jobs exited", exited)
			}
		}
	}
	run("first")  // over HTTP, whose answer announces the port's frames
	run("second") // as frames; the connection stays in the master's pool
	stop()
	if _, stop, err = nhost.ListenHTTP(n.Server(), naddr, nodeURL); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(stop)
	run("third")
	home := n.ES.WSRF().Home()
	if jobs := len(home.IDs()); jobs != 3 {
		t.Fatalf("the node holds %d job resources after three Runs", jobs)
	}
	for _, id := range home.IDs() {
		if doc, err := home.Load(id); err != nil || doc.ChildText(execution.QStatus) != execution.StatusExited {
			t.Fatalf("job %s did not run to its exit: %v, %v", id, doc, err)
		}
	}
	// A fourth process, a Run spawned twice, would publish a fourth exit.
	quiet := time.After(100 * time.Millisecond)
	for waiting := true; waiting; {
		select {
		case note := <-events:
			if ev, err := execution.ParseJobEvent(note.Message); err == nil && ev.Kind == execution.EventExited {
				t.Fatal("the node spawned a fourth process for three Runs")
			}
		case <-quiet:
			waiting = false
		}
	}
	var schemes []string
	for _, c := range dials.sent {
		schemes = append(schemes, schemeOf(c.addr))
	}
	if got := strings.Join(schemes, " "); got != "http soap.tcp soap.tcp" {
		t.Fatalf("the Runs left as %s, want http, then frames", got)
	}
}

// TestDumpEndsWithRuntimeLine: the -metrics dump ends with the process's
// allocation counters on one line, and no line outside the table starts
// with '/', which is how a reader of the dump finds a table row.
func TestDumpEndsWithRuntimeLine(t *testing.T) {
	host := openHost(t, "-metrics")
	host.Metrics.Record(pipeline.Key{Path: "/SchedulerService", Action: "urn:Submit"}, time.Millisecond, false)
	var out bytes.Buffer
	host.DumpMetrics(&out)
	lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	last := lines[len(lines)-1]
	var allocated, cycles, mallocs uint64
	if _, err := fmt.Sscanf(last, "runtime: heap_alloc_bytes=%d gc_cycles=%d mallocs=%d", &allocated, &cycles, &mallocs); err != nil {
		t.Fatalf("last dump line %q: %v", last, err)
	}
	if allocated == 0 || mallocs == 0 {
		t.Fatalf("a running process reports no allocation: %q", last)
	}
	for i, line := range lines {
		if strings.HasPrefix(line, "/") && (i+1 >= len(lines) || !strings.HasPrefix(lines[i+1], "  calls=")) {
			t.Errorf("line %q starts with '/' but is not a table row", line)
		}
	}
}
