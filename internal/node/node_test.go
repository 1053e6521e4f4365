package node

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"uvacg/internal/procspawn"
	"uvacg/internal/resourcedb"
	"uvacg/internal/services/execution"
	"uvacg/internal/services/filesystem"
	"uvacg/internal/services/nodeinfo"
	"uvacg/internal/soap"
	"uvacg/internal/transport"
	"uvacg/internal/wal"
	"uvacg/internal/wsa"
	"uvacg/internal/wsn"
	"uvacg/internal/wsrf"
	"uvacg/internal/wssec"
	"uvacg/internal/xmlutil"
)

// newMasterNIS hosts a bare NIS on the network for nodes to report to.
func newMasterNIS(t *testing.T, network *transport.Network) *nodeinfo.Service {
	t.Helper()
	nis, err := nodeinfo.New(nodeinfo.Config{Address: "inproc://master"})
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

	// Both per-machine services are reachable at their standard paths: the
	// node is on the network, and an action neither service knows is
	// refused with a fault by the service, not by the server for want of
	// one.
	if _, ok := network.Lookup("win-a"); !ok {
		t.Fatal("node not on network")
	}
	for _, path := range []string{"/FileSystemService", "/ExecutionService"} {
		_, err := client.Call(ctx, wsa.NewEPR("inproc://win-a"+path), "urn:probe", xmlutil.NewElement(xmlutil.Q("urn:probe", "Probe"), ""))
		if f, ok := soap.AsFault(err); !ok || strings.Contains(f.Reason, "no service at") {
			t.Errorf("service %s not mounted: %v", path, err)
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

// TestRegisterSendsOneReport: the reading Register sends is the
// monitor's last report, so a sample of the unchanged machine right
// after it reports nothing. The first sample used to notify whatever it
// read, a second, identical Report at once.
func TestRegisterSendsOneReport(t *testing.T) {
	network := transport.NewNetwork()
	var reports atomic.Int32
	nis := soap.NewDispatcher()
	nis.Register(nodeinfo.ActionReport, func(context.Context, *soap.Envelope) (*soap.Envelope, error) {
		reports.Add(1)
		return soap.New(xmlutil.NewElement(xmlutil.Q(nodeinfo.NS, "ReportResponse"), "")), nil
	})
	mux := soap.NewMux()
	mux.Handle("/NodeInfoService", nis)
	network.Register("master", transport.NewServer(mux))
	n, err := New(Config{Name: "win-a", Network: network, Client: transport.NewClient().WithNetwork(network),
		Cores: 2, NIS: wsa.NewEPR("inproc://master/NodeInfoService")})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Stop()
	if err := n.Register(context.Background()); err != nil {
		t.Fatal(err)
	}
	n.Monitor.Sample()
	if got := reports.Load(); got != 1 {
		t.Fatalf("Register and a sample of the unchanged machine sent %d Reports, want 1", got)
	}
}

// TestStalledReportDoesNotOutliveTheLease: the monitor's one goroutine
// sends nothing while a Report is out, and a machine's entry lapses three
// renewal periods after the last Report the NIS took. So a Report is given
// one period: when the NIS stalls the first for longer than the lease, the
// next arrives a period and a sampling tick after it, not after the stall.
func TestStalledReportDoesNotOutliveTheLease(t *testing.T) {
	network := transport.NewNetwork()
	arrived := make(chan time.Time, 8) // more Reports than the test waits for; later ones are dropped
	var reports atomic.Int32
	nis := soap.NewDispatcher()
	nis.Register(nodeinfo.ActionReport, func(ctx context.Context, _ *soap.Envelope) (*soap.Envelope, error) {
		select {
		case arrived <- time.Now():
		default:
		}
		if reports.Add(1) == 1 {
			select {
			case <-ctx.Done():
			case <-time.After(6 * nodeinfo.RenewEvery): // twice the lease
			}
		}
		return soap.New(xmlutil.NewElement(xmlutil.Q(nodeinfo.NS, "ReportResponse"), "")), nil
	})
	mux := soap.NewMux()
	mux.Handle("/NodeInfoService", nis)
	network.Register("master", transport.NewServer(mux))
	n, err := New(Config{Name: "win-a", Network: network, Client: transport.NewClient().WithNetwork(network),
		Cores: 2, NIS: wsa.NewEPR("inproc://master/NodeInfoService")})
	if err != nil {
		t.Fatal(err)
	}
	n.Start() // the first sample always reports
	defer n.Stop()
	var at [2]time.Time
	for i := range at {
		select {
		case at[i] = <-arrived:
		case <-time.After(10 * time.Second):
			t.Fatalf("Report %d never arrived", i+1)
		}
	}
	if gap, most := at[1].Sub(at[0]), nodeinfo.RenewEvery+250*time.Millisecond; gap > most {
		t.Fatalf("the Report after a stalled one arrived %v later, over a renewal period and a tick (%v)", gap, most)
	}
}

// TestNodeTablesKeepTheirJournaledCodec: a fresh node stores its job and
// directory resources as blobs — nothing reads the structured codec's
// property index, which every Put would rebuild — but a -data-dir written
// when they were structured names that codec in its WAL and keeps it,
// rows and all, through a compaction: nothing migrates.
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
	if doc, ok, err := jobs.Get("j1"); err != nil || !ok || !doc.Equal(row) {
		t.Fatalf("row written by the old codec: %v, found %v, err %v", doc, ok, err)
	}
	// A checkpoint names each row's codec: the jobs table keeps the one
	// it was journaled with, and the directories table, never journaled
	// before, is declared afresh as a blob table.
	dirs, ok := n.Store.Table("directories")
	if !ok {
		t.Fatal("the node declared no directories table")
	}
	if err := dirs.Put("d1", row); err != nil {
		t.Fatal(err)
	}
	if err := reopened.Compact(); err != nil {
		t.Fatal(err)
	}
	stored := make(map[string]string)
	if _, err := wal.Replay(dir, func(rec wal.Record) error {
		stored[rec.Table] = rec.Codec
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for table, codec := range map[string]resourcedb.Codec{
		"jobs":        resourcedb.StructuredCodec{},
		"directories": resourcedb.BlobCodec{},
	} {
		if stored[table] != codec.Name() {
			t.Errorf("the %s table is stored with the %q codec, want %q", table, stored[table], codec.Name())
		}
	}
}

// TestJobPathNeverWaitsForNIS: a NIS that takes a Report and never answers
// — a slow master, a partition that swallows replies — holds up the
// Processor Utilization service's ticker and nothing else: the machine
// takes a Run, stages, starts and ends the job, answers a CPUTime read and
// kills a second job, all in under a second, while each Report hangs for
// as long as it is given.
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

// TestOldDirectoryReadsNothingAfterRestart: a directory's path is made
// from its resource ID. A machine on a journaled store makes a directory
// and writes out.dat; restarted on the reopened store, with a fresh file
// system, it makes a new directory with a file of its own. A Read through
// the first directory's EPR, which the Scheduler keeps for a finished
// producer, fails. While paths came from a counter that a restart set back
// to zero, the new directory took the old one's path and the Read returned
// the new job's file.
func TestOldDirectoryReadsNothingAfterRestart(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	network := transport.NewNetwork()
	client := transport.NewClient().WithNetwork(network)
	start := func() (*Node, *resourcedb.DurableStore) {
		t.Helper()
		store, err := resourcedb.OpenDurable(dir, resourcedb.DurableOptions{})
		if err != nil {
			t.Fatal(err)
		}
		n, err := New(Config{Name: "win-a", Network: network, Client: client, Store: store.Store})
		if err != nil {
			t.Fatal(err)
		}
		return n, store
	}
	mkdir := func(n *Node, job, content string) wsa.EndpointReference {
		t.Helper()
		epr, err := filesystem.CreateDirectoryVia(ctx, client, n.FSS.EPR(), job)
		if err != nil {
			t.Fatal(err)
		}
		if err := filesystem.WriteFile(ctx, client, epr, "out.dat", []byte(content)); err != nil {
			t.Fatal(err)
		}
		return epr
	}

	first, store := start()
	old := mkdir(first, "job", "first job's output")
	first.Stop()
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	second, store := start()
	defer store.Close()
	defer second.Stop()
	fresh := mkdir(second, "job", "second job's output")
	if fresh.Equal(old) {
		t.Fatalf("the restarted machine handed out the old directory's EPR %v again", old)
	}
	if got, err := filesystem.FetchFile(ctx, client, old, "out.dat"); err == nil {
		t.Fatalf("a Read through the old directory's EPR returned %q", got)
	}
	if got, err := filesystem.FetchFile(ctx, client, fresh, "out.dat"); err != nil || string(got) != "second job's output" {
		t.Fatalf("the new directory's out.dat: %q, %v", got, err)
	}
}
