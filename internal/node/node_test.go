package node

import (
	"context"
	"testing"
	"time"

	"uvacg/internal/resourcedb"
	"uvacg/internal/services/nodeinfo"
	"uvacg/internal/soap"
	"uvacg/internal/transport"
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
