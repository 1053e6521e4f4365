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
	// their EPRs; empty means "inproc://" + Name. gridnode gives
	// "http://host:port" (daemon.Advertised): its one port answers
	// soap.tcp too, and says so, so a peer's later messages cross as
	// pooled frames.
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
	// the simulator's I7 ledger. One job's files are staged at once, so
	// it is called from several goroutines.
	OnStage func(rec filesystem.StageRecord)
}

// Node is a running grid machine.
type Node struct {
	Name    string
	FS      *vfs.FS
	Spawner *procspawn.Spawner
	FSS     *filesystem.Service
	ES      *execution.Service
	Monitor *procspawn.UtilizationMonitor
	Store   *resourcedb.Store

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

	var err error
	n.Spawner, err = procspawn.NewSpawner(procspawn.Config{
		FS:       n.FS,
		Cores:    cfg.Cores,
		SpeedMHz: cfg.SpeedMHz,
		UnitTime: cfg.UnitTime,
		Accounts: cfg.Accounts,
	})
	if err != nil {
		return nil, err
	}

	n.FSS, err = filesystem.New(filesystem.Config{
		Address: address,
		FS:      n.FS,
		Client:  cfg.Client,
		Home:    wsrf.NewStateHome(n.Store.MustTable("directories", resourcedb.BlobCodec{})),
		Host:    cfg.Name,
		OnStage: cfg.OnStage,
	})
	if err != nil {
		return nil, err
	}

	n.ES, err = execution.New(execution.Config{
		Address:  address,
		Home:     wsrf.NewStateHome(n.Store.MustTable("jobs", resourcedb.BlobCodec{})),
		Client:   cfg.Client,
		FSS:      n.FSS.EPR(),
		Spawner:  n.Spawner,
		Broker:   cfg.Broker,
		Accounts: cfg.Accounts,
	})
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

// Processor describes this machine, and the attempts its ES runs, for the NIS.
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
		Attempts:    n.ES.RunningAttempts(),
	}
}

// reportUtilization is the Processor Utilization service's notify hook,
// called on the monitor's ticker goroutine and nowhere on a job's path.
// The monitor says when; what is sent is the machine as it reads now, so
// Utilization and GridLoad are one sample. Request-response, so the next
// tick cannot start a second report while this one is in flight: it gets
// one renewal period, or a stalled one could outlast the machine's lease.
func (n *Node) reportUtilization(float64) {
	if n.cfg.NIS.IsZero() {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), nodeinfo.RenewEvery)
	defer cancel()
	// Best effort: a report the NIS never got is superseded by the next
	// threshold crossing or renewal, and the Scheduler places on its own
	// count of what it sent here meanwhile.
	_, _ = n.client.Call(ctx, n.cfg.NIS, nodeinfo.ActionReport, nodeinfo.ReportRequest(n.Processor()))
}

// Register announces the machine to the NIS (initial catalog entry). The
// reading it sends is the monitor's last report, so the first sample
// reports only a change from it. The entry lapses unless the machine is
// Started too: the monitor renews it.
func (n *Node) Register(ctx context.Context) error {
	if n.cfg.NIS.IsZero() {
		return fmt.Errorf("node: %s has no NIS configured", n.Name)
	}
	// Registration is answered before Register returns, so the machine is
	// visible to the Scheduler from then on.
	p := n.Processor()
	if _, err := n.client.Call(ctx, n.cfg.NIS, nodeinfo.ActionReport, nodeinfo.ReportRequest(p)); err != nil {
		return err
	}
	n.Monitor.Reported(p.Utilization)
	return nil
}

// Start launches the background utilization monitor, which reports
// every threshold crossing and renews the machine's catalog entry.
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
