package node

import (
	"context"
	"testing"
	"time"

	"uvacg/internal/procspawn"
	"uvacg/internal/resourcedb"
	"uvacg/internal/services/execution"
	"uvacg/internal/services/filesystem"
	"uvacg/internal/services/nodeinfo"
	"uvacg/internal/soap"
	"uvacg/internal/transport"
	"uvacg/internal/wsa"
	"uvacg/internal/wsn"
	"uvacg/internal/wsrf"
	"uvacg/internal/wssec"
	"uvacg/internal/xmlutil"
)

// newMasterNIS hosts a bare NIS on the network for nodes to report to.
func newMasterNIS(t *testing.T, network *transport.Network) *nodeinfo.Service {
	t.Helper()
	store := resourcedb.NewStore()
	nis, err := nodeinfo.New(nodeinfo.Config{
		Address: "inproc://master",
		Home:    wsrf.NewStateHome(store.MustTable("nis", resourcedb.BlobCodec{})),
	})
	if err != nil {
		t.Fatal(err)
	}
	mux := soap.NewMux()
	mux.Handle(nis.WSRF().Path(), nis.WSRF().Dispatcher())
	network.Register("master", transport.NewServer(mux))
	return nis
}

func TestNodeAssemblyAndRegistration(t *testing.T) {
	network := transport.NewNetwork()
	client := transport.NewClient().WithNetwork(network)
	nis := newMasterNIS(t, network)

	n, err := New(Config{
		Name:     "win-a",
		Network:  network,
		Client:   client,
		Cores:    2,
		SpeedMHz: 2800,
		RAMMB:    1024,
		Accounts: wssec.StaticAccounts{"u": "p"},
		NIS:      nis.EPR(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Stop()

	ctx := context.Background()
	if err := n.Register(ctx); err != nil {
		t.Fatal(err)
	}
	procs, err := nis.Processors()
	if err != nil {
		t.Fatal(err)
	}
	if len(procs) != 1 {
		t.Fatalf("%d processors registered", len(procs))
	}
	p := procs[0]
	if p.Host != "win-a" || p.Cores != 2 || p.SpeedMHz != 2800 || p.RAMMB != 1024 {
		t.Fatalf("catalogued %+v", p)
	}
	if !p.ES.Equal(n.ES.EPR()) {
		t.Fatalf("member EPR %v", p.ES)
	}

	// Both per-machine services are reachable at their standard paths.
	for _, path := range []string{"/FileSystemService", "/ExecutionService"} {
		if srv, ok := network.Lookup("win-a"); !ok {
			t.Fatal("node not on network")
		} else if _, ok := srv.Mux().Lookup(path); !ok {
			t.Errorf("service %s not mounted", path)
		}
	}
}

func TestNodeDefaults(t *testing.T) {
	network := transport.NewNetwork()
	client := transport.NewClient().WithNetwork(network)
	n, err := New(Config{Name: "bare", Network: network, Client: client})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Stop()
	p := n.Processor()
	if p.Cores != 1 || p.SpeedMHz != 1000 || p.RAMMB != 512 {
		t.Fatalf("defaults = %+v", p)
	}
	// No NIS configured: Register must refuse rather than hang.
	if err := n.Register(context.Background()); err == nil {
		t.Fatal("register without NIS accepted")
	}
}

func TestNodeConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
}

func TestNodeUtilizationStreamReachesNIS(t *testing.T) {
	network := transport.NewNetwork()
	client := transport.NewClient().WithNetwork(network)
	nis := newMasterNIS(t, network)

	load := 0.0
	n, err := New(Config{
		Name:                 "win-b",
		Network:              network,
		Client:               client,
		NIS:                  nis.EPR(),
		UtilizationThreshold: 0.05,
		Background:           func() float64 { return load },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Stop()
	if err := n.Register(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Background load jumps; one monitor sample must propagate it.
	load = 0.6
	n.Monitor.Sample()
	deadline := time.Now().Add(5 * time.Second)
	for {
		procs, err := nis.Processors()
		if err != nil {
			t.Fatal(err)
		}
		if len(procs) == 1 && procs[0].Utilization > 0.5 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("utilization never propagated: %+v", procs)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestNodeCertificateStable(t *testing.T) {
	network := transport.NewNetwork()
	client := transport.NewClient().WithNetwork(network)
	n, err := New(Config{Name: "c", Network: network, Client: client, Accounts: wssec.StaticAccounts{"u": "p"}})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Stop()
	if n.Certificate().Fingerprint() != n.Certificate().Fingerprint() {
		t.Fatal("certificate fingerprint unstable")
	}
	if n.Certificate().Subject == "" {
		t.Fatal("certificate has no subject")
	}
}

func TestNodeGridAccountMapping(t *testing.T) {
	network := transport.NewNetwork()
	client := transport.NewClient().WithNetwork(network)
	n, err := New(Config{
		Name:         "mapped",
		Network:      network,
		Client:       client,
		Accounts:     wssec.StaticAccounts{"labuser": "localpw"},
		GridAccounts: wssec.StaticAccounts{"grid-user": "gridpw"},
		GridMap:      wssec.GridMap{"grid-user": {Username: "labuser", Password: "localpw"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Stop()
	// The ES accepts the grid identity, not the local one: wiring chose
	// the grid verifier. (Behavioural checks of the mapping itself live
	// in the execution package.)
	if n.ES == nil {
		t.Fatal("no ES")
	}
}

// TestNodeTablesKeepTheirJournaledCodec: a fresh node stores its job and
// directory resources as blobs — nothing reads the structured codec's
// property index, which every Put would rebuild — but a -data-dir written
// when they were structured names that codec in its WAL and snapshot and
// keeps it, rows and all: nothing migrates.
func TestNodeTablesKeepTheirJournaledCodec(t *testing.T) {
	dir := t.TempDir()
	old, err := resourcedb.OpenDurable(dir, resourcedb.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	row := xmlutil.NewContainer(xmlutil.Q("urn:t", "Job"), xmlutil.NewElement(xmlutil.Q("urn:t", "Name"), "gen"))
	if err := old.MustTable("jobs", resourcedb.StructuredCodec{}).Put("j1", row); err != nil {
		t.Fatal(err)
	}
	if err := old.Close(); err != nil {
		t.Fatal(err)
	}

	reopened, err := resourcedb.OpenDurable(dir, resourcedb.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	network := transport.NewNetwork()
	n, err := New(Config{Name: "win-a", Network: network, Client: transport.NewClient().WithNetwork(network),
		NIS: newMasterNIS(t, network).EPR(), Store: reopened.Store})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Stop()
	jobs, _ := n.Store.Table("jobs")
	if got := jobs.Codec().Name(); got != (resourcedb.StructuredCodec{}).Name() {
		t.Fatalf("reopened jobs table codec %q", got)
	}
	if doc, ok, err := jobs.Get("j1"); err != nil || !ok || !doc.Equal(row) {
		t.Fatalf("row written by the old codec: %v, found %v, err %v", doc, ok, err)
	}
	dirs, _ := n.Store.Table("directories") // never journaled: declared afresh
	if got := dirs.Codec().Name(); got != (resourcedb.BlobCodec{}).Name() {
		t.Fatalf("fresh directories table codec %q", got)
	}
}

// TestJobPathNeverWaitsForNIS: a NIS that takes a Report and never answers
// — a slow master, a partition that swallows replies — holds up the
// Processor Utilization service's ticker and nothing else: the machine
// takes a Run, stages, starts and ends the job, answers a CPUTime read and
// kills a second job, all well inside the Report's five-second timeout.
// When utilization was sampled inside Reserve, Spawn and the process's
// exit, each of those waited out a hung Report, the first of them holding
// the Execution Service's lock.
func TestJobPathNeverWaitsForNIS(t *testing.T) {
	network := transport.NewNetwork()
	client := transport.NewClient().WithNetwork(network)

	reported, release := make(chan struct{}, 1), make(chan struct{})
	nis := soap.NewDispatcher()
	nis.Register(nodeinfo.ActionReport, func(ctx context.Context, _ *soap.Envelope) (*soap.Envelope, error) {
		select {
		case reported <- struct{}{}:
		default:
		}
		select {
		case <-release:
		case <-ctx.Done(): // the Report's own timeout
		}
		return nil, soap.ReceiverFault("nis: going down")
	})
	broker := wsn.NewConsumer()
	events := broker.Channel(wsn.MustTopicExpression(wsn.DialectFull, "*//"), 16)
	masterMux := soap.NewMux()
	masterMux.Handle("/NodeInfoService", nis)
	broker.Mount(masterMux, "/NotificationBroker")
	network.Register("master", transport.NewServer(masterMux))
	files := filesystem.NewFileServer("/files")
	clientMux := soap.NewMux()
	files.Mount(clientMux)
	network.Register("client", transport.NewServer(clientMux))

	n, err := New(Config{
		Name:    "win-a",
		Network: network,
		Client:  client,
		Cores:   2,
		NIS:     wsa.NewEPR("inproc://master/NodeInfoService"),
		Broker:  wsa.NewEPR("inproc://master/NotificationBroker"),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Stop)                    // waits for the ticker, which waits for its Report:
	t.Cleanup(func() { close(release) }) // let that go first
	n.Start()
	select {
	case <-reported: // the ticker's first sample always reports; it now hangs
	case <-time.After(5 * time.Second):
		t.Fatal("the monitor's ticker never reported")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	start := time.Now()
	run := func(name string, script []byte) wsa.EndpointReference {
		t.Helper()
		files.Publish(name+".app", script)
		body, err := client.Call(ctx, n.ES.EPR(), execution.ActionRun, execution.RunRequest(name, "jobset-t", name+".app",
			[]filesystem.FileRef{{Source: wsa.NewEPR("inproc://client/files"), RemoteName: name + ".app"}}))
		if err != nil {
			t.Fatalf("Run %s: %v", name, err)
		}
		job, _, err := execution.ParseRunResponse(body)
		if err != nil {
			t.Fatal(err)
		}
		return job
	}
	seen := make(map[string]execution.JobEvent) // one-way delivery keeps no order
	await := func(job, kind string) execution.JobEvent {
		t.Helper()
		for {
			if ev, ok := seen[job+"/"+kind]; ok {
				return ev
			}
			select {
			case note := <-events:
				if ev, err := execution.ParseJobEvent(note.Message); err == nil {
					seen[ev.JobName+"/"+ev.Kind] = ev
				}
			case <-ctx.Done():
				t.Fatalf("no %s event of %s", kind, job)
			}
		}
	}
	run("quick", procspawn.BuildScript("write out.txt done", "exit 0"))
	await("quick", execution.EventStarted)
	await("quick", execution.EventExited)
	long := run("long", procspawn.BuildScript("compute 100000000", "exit 0"))
	await("long", execution.EventStarted)
	if _, err := wsrf.NewResourceClient(client, long).GetPropertyText(ctx, execution.QCPUTime); err != nil {
		t.Fatalf("CPUTime read: %v", err)
	}
	if _, err := client.Call(ctx, long, execution.ActionKill, execution.KillRequest()); err != nil {
		t.Fatalf("Kill: %v", err)
	}
	if ev := await("long", execution.EventExited); ev.ExitCode != procspawn.ExitKilled {
		t.Fatalf("long exited %d, want killed", ev.ExitCode)
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("two jobs took %v beside a NIS that never answers: something on their path waited for it", took)
	}
}

// TestTickReportsGridLoad: nothing samples when a slot is taken or given
// back; the monitor's next tick does, and its Report says how much of the
// utilization is the grid's own — both from one reading.
func TestTickReportsGridLoad(t *testing.T) {
	network := transport.NewNetwork()
	client := transport.NewClient().WithNetwork(network)
	nis := newMasterNIS(t, network)
	n, err := New(Config{Name: "win-a", Network: network, Client: client, Cores: 2, NIS: nis.EPR(),
		Background: func() float64 { return 0.25 }})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Stop()
	if err := n.Register(context.Background()); err != nil {
		t.Fatal(err)
	}
	catalogued := func(util float64, load int) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
			procs, err := nis.Processors()
			if err != nil {
				t.Fatal(err)
			}
			if len(procs) == 1 && procs[0].Utilization == util && procs[0].GridLoad == load {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("catalogue reads %+v, want utilization %v with grid load %d", procs, util, load)
			}
		}
	}
	catalogued(0.25, 0)
	release := n.Spawner.Reserve()
	if p := n.Processor(); p.Utilization != 0.75 || p.GridLoad != 1 {
		t.Fatalf("the machine reads %+v with one slot held", p)
	}
	if procs, _ := nis.Processors(); len(procs) != 1 || procs[0].GridLoad != 0 {
		t.Fatalf("taking a slot reported by itself: %+v", procs)
	}
	n.Start()
	catalogued(0.75, 1)
	release()
	catalogued(0.25, 0)
}
