// Package node assembles one grid machine: the Windows box of the
// paper's campus grid, running a File System Service, an Execution
// Service, the ProcSpawn service and the Processor Utilization service
// (paper §4, Fig. 3). It is the only place a machine is put together —
// an in-process machine on a simulated Network and the gridnode daemon
// behind an HTTP listener are the same construction, differing in what
// hosts Server(). Hardware heterogeneity (clock speed, cores, RAM) and
// background load are configurable so the Scheduler has real differences
// to exploit.
package node

import (
	"context"
	"fmt"
	"log"
	"time"

	"uvacg/internal/procspawn"
	"uvacg/internal/resourcedb"
	"uvacg/internal/services/execution"
	"uvacg/internal/services/filesystem"
	"uvacg/internal/services/nodeinfo"
	"uvacg/internal/soap"
	"uvacg/internal/transport"
	"uvacg/internal/vfs"
	"uvacg/internal/wsa"
	"uvacg/internal/wsrf"
	"uvacg/internal/wssec"
)

// Config describes one machine.
type Config struct {
	// Name is the machine's host name, as the NIS catalog lists it.
	Name string
	// Address is the base address the machine's services advertise in
	// their EPRs; empty means "inproc://" + Name.
	Address string
	// Network, when set, is the simulated fabric the machine joins under
	// Name. Without one the caller hosts Server() behind a binding of
	// its own at Address.
	Network *transport.Network
	// Client is the shared outbound client.
	Client *transport.Client
	// Hardware characteristics (paper §4.6: "CPU speed and total RAM").
	Cores    int
	SpeedMHz float64
	RAMMB    int
	// UnitTime scales simulated compute (see procspawn.Config).
	UnitTime time.Duration
	// Accounts are the machine's local user accounts; when set, the ES
	// requires WS-Security credentials and ProcSpawn verifies them.
	Accounts wssec.StaticAccounts
	// GridAccounts, when set together with GridMap, authenticates Run
	// requests against grid-wide identities and maps them to local
	// accounts (the gridmap pattern §4.2 anticipates). Accounts then
	// only gates what ProcSpawn will run.
	GridAccounts wssec.StaticAccounts
	// GridMap translates grid identities to local accounts.
	GridMap wssec.GridMap
	// Broker is the Notification Broker's EPR for job lifecycle events.
	Broker wsa.EndpointReference
	// NIS, when set, receives utilization reports from this machine.
	NIS wsa.EndpointReference
	// UtilizationThreshold is the report trigger delta (default 0.1).
	UtilizationThreshold float64
	// Background supplies non-grid load (0..1); nil means idle.
	Background func() float64
	// Store, when set, backs the machine's WS-Resources (e.g. a
	// resourcedb.DurableStore's Store for crash/restart drills); nil
	// gets a fresh in-memory store.
	Store *resourcedb.Store
	// Interceptors form the machine's server-side receive pipeline
	// (deadline re-establishment, request correlation), shared by the
	// FSS and ES it hosts.
	Interceptors []soap.Interceptor
	// OnStage, when set, observes every file the machine's FSS stages —
	// the simulator's I7 ledger and the bench rigs' byte counters.
	OnStage func(rec filesystem.StageRecord)
	// ReplicaEvents opts the FSS into publishing replica-manifest
	// "stored" events to the broker. Off by default: without a
	// replicator or a data-aware scheduler listening, the publish per
	// staged file would be pure overhead.
	ReplicaEvents bool
}

// Node is a running grid machine.
type Node struct {
	Name     string
	FS       *vfs.FS
	Spawner  *procspawn.Spawner
	FSS      *filesystem.Service
	ES       *execution.Service
	Monitor  *procspawn.UtilizationMonitor
	Identity *wssec.Identity
	Store    *resourcedb.Store

	cfg    Config
	client *transport.Client
	server *transport.Server
}

// New builds a machine and, given a Network, registers it there.
func New(cfg Config) (*Node, error) {
	if cfg.Name == "" || cfg.Client == nil {
		return nil, fmt.Errorf("node: config requires Name and Client")
	}
	if cfg.Cores == 0 {
		cfg.Cores = 1
	}
	if cfg.SpeedMHz == 0 {
		cfg.SpeedMHz = 1000
	}
	if cfg.RAMMB == 0 {
		cfg.RAMMB = 512
	}
	if cfg.UtilizationThreshold == 0 {
		cfg.UtilizationThreshold = 0.1
	}
	address := cfg.Address
	if address == "" {
		address = "inproc://" + cfg.Name
	}

	n := &Node{Name: cfg.Name, cfg: cfg, client: cfg.Client}
	n.FS = vfs.New()
	n.Store = cfg.Store
	if n.Store == nil {
		n.Store = resourcedb.NewStore()
	}

	// Only a secured ES has use for a key pair, and minting one costs
	// tens of milliseconds of start-up.
	var err error
	if cfg.Accounts != nil || cfg.GridAccounts != nil {
		n.Identity, err = wssec.NewIdentity("CN=ExecutionService/" + cfg.Name)
		if err != nil {
			return nil, err
		}
	}

	spawnCfg := procspawn.Config{
		FS:       n.FS,
		Cores:    cfg.Cores,
		SpeedMHz: cfg.SpeedMHz,
		UnitTime: cfg.UnitTime,
	}
	if cfg.Accounts != nil {
		// Assign only when an account table exists: a nil map inside a
		// non-nil interface would demand credentials nobody can supply.
		spawnCfg.Accounts = cfg.Accounts
	}
	n.Spawner, err = procspawn.NewSpawner(spawnCfg)
	if err != nil {
		return nil, err
	}

	fssCfg := filesystem.Config{
		Address: address,
		FS:      n.FS,
		Client:  cfg.Client,
		Home:    wsrf.NewStateHome(n.Store.MustTable("directories", resourcedb.BlobCodec{})),
		Host:    cfg.Name,
		OnStage: cfg.OnStage,
	}
	if cfg.ReplicaEvents {
		fssCfg.Broker = cfg.Broker
	}
	n.FSS, err = filesystem.New(fssCfg)
	if err != nil {
		return nil, err
	}

	esCfg := execution.Config{
		Address: address,
		Home:    wsrf.NewStateHome(n.Store.MustTable("jobs", resourcedb.BlobCodec{})),
		Client:  cfg.Client,
		FSS:     n.FSS.EPR(),
		Spawner: n.Spawner,
		Broker:  cfg.Broker,
	}
	switch {
	case cfg.GridAccounts != nil:
		esCfg.Security = &wssec.VerifierConfig{
			Identity: n.Identity,
			Accounts: cfg.GridAccounts,
			Required: true,
		}
		esCfg.MapAccount = cfg.GridMap
	case cfg.Accounts != nil:
		esCfg.Security = &wssec.VerifierConfig{
			Identity: n.Identity,
			Accounts: cfg.Accounts,
			Required: true,
		}
	}
	n.ES, err = execution.New(esCfg)
	if err != nil {
		return nil, err
	}

	n.Monitor = procspawn.NewUtilizationMonitor(n.Spawner, procspawn.MonitorConfig{
		Threshold:  cfg.UtilizationThreshold,
		Background: cfg.Background,
		Notify:     n.reportUtilization,
	})

	mux := soap.NewMux()
	mux.Handle(n.FSS.WSRF().Path(), n.FSS.WSRF().Dispatcher())
	mux.Handle(n.ES.WSRF().Path(), n.ES.WSRF().Dispatcher())
	n.server = transport.NewServer(mux)
	n.server.Use(cfg.Interceptors...)
	if cfg.Network != nil {
		cfg.Network.Register(cfg.Name, n.server)
	}
	return n, nil
}

// Server is the machine's transport server with FSS and ES mounted:
// already registered when the machine joined a Network, otherwise for
// the caller to put behind a listener.
func (n *Node) Server() *transport.Server { return n.server }

// Processor describes this machine for the NIS.
func (n *Node) Processor() nodeinfo.Processor {
	util, load := n.Monitor.Reading()
	return nodeinfo.Processor{
		Host:        n.Name,
		ES:          n.ES.EPR(),
		Cores:       n.cfg.Cores,
		SpeedMHz:    n.cfg.SpeedMHz,
		RAMMB:       n.cfg.RAMMB,
		Utilization: util,
		GridLoad:    load,
	}
}

// reportUtilization is the Processor Utilization service's notify hook,
// called on the monitor's ticker goroutine and nowhere on a job's path.
// The monitor says when; what is sent is the machine as it reads now, so
// Utilization and GridLoad are one sample. Request-response, so the next
// tick cannot start a second report while this one is in flight.
func (n *Node) reportUtilization(float64) {
	if n.cfg.NIS.IsZero() {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	// Best effort: a report the NIS never got is superseded by the next
	// threshold crossing, and the Scheduler places on its own count of
	// what it sent here meanwhile.
	_, _ = n.client.Call(ctx, n.cfg.NIS, nodeinfo.ActionReport, nodeinfo.ReportRequest(n.Processor()))
}

// Register announces the machine to the NIS (initial catalog entry) and
// takes the first utilization sample.
func (n *Node) Register(ctx context.Context) error {
	if n.cfg.NIS.IsZero() {
		return fmt.Errorf("node: %s has no NIS configured", n.Name)
	}
	// Registration is answered before Register returns, so the machine is
	// visible to the Scheduler from then on.
	if _, err := n.client.Call(ctx, n.cfg.NIS, nodeinfo.ActionReport, nodeinfo.ReportRequest(n.Processor())); err != nil {
		return err
	}
	n.Monitor.Sample()
	return nil
}

// Start launches the background utilization monitor.
func (n *Node) Start() { n.Monitor.Start() }

// Stop halts background activity, gives the ES's queued lifecycle events
// five seconds to reach the broker, and removes the machine from its
// network, if it joined one.
func (n *Node) Stop() {
	n.Monitor.Stop()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := n.ES.DrainEvents(ctx); err != nil {
		log.Printf("node %s: lifecycle events still queued at stop: %v", n.Name, err)
	}
	if n.cfg.Network != nil {
		n.cfg.Network.Deregister(n.Name)
	}
}

// Certificate returns the machine's ES certificate for credential
// encryption; zero on a machine that runs unsecured.
func (n *Node) Certificate() wssec.Certificate {
	if n.Identity == nil {
		return wssec.Certificate{}
	}
	return n.Identity.Certificate()
}
