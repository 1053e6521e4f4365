// Package core is the public face of the library: it assembles a whole
// campus grid (simulated machines plus the master services — Scheduler,
// Node Info and Notification Broker) and provides the client through
// which a scientist submits job sets, watches their progress via
// WS-Notification, and retrieves outputs. It is the programmatic
// equivalent of the paper's GUI tool plus testbed deployment (Fig. 3).
package core

import (
	"context"
	"fmt"
	"log"
	"time"

	"uvacg/internal/admission"
	"uvacg/internal/master"
	"uvacg/internal/node"
	"uvacg/internal/pipeline"
	"uvacg/internal/resourcedb"
	"uvacg/internal/services/filesystem"
	"uvacg/internal/services/nodeinfo"
	"uvacg/internal/services/scheduler"
	"uvacg/internal/soap"
	"uvacg/internal/transport"
	"uvacg/internal/wsa"
	"uvacg/internal/wsn"
	"uvacg/internal/wsrf"
	"uvacg/internal/wssec"
)

// IdempotentActions is the grid's safe-to-retry predicate: the pure
// reads of the WSRF property port types, the NIS processor query and
// the FSS file reads. Mutating operations — Submit, Run, uploads,
// lifetime changes — are excluded; they must reach a service at most
// once.
func IdempotentActions() func(string) bool {
	return pipeline.IdempotentActions(
		wsrf.ActionGetResourceProperty,
		wsrf.ActionGetResourcePropertyDocument,
		wsrf.ActionGetMultipleResourceProperties,
		wsrf.ActionQueryResourceProperties,
		nodeinfo.ActionGetProcessors,
		filesystem.ActionRead,
		filesystem.ActionList,
		filesystem.ActionReadBlob,
	)
}

// NodeSpec describes one simulated machine.
type NodeSpec struct {
	Name     string
	Cores    int
	SpeedMHz float64
	RAMMB    int
	// Background supplies non-grid load (0..1); nil means idle.
	Background func() float64
}

// GridConfig assembles a grid.
type GridConfig struct {
	// Nodes are the machines; at least one is required.
	Nodes []NodeSpec
	// Accounts, when set, turns on WS-Security end to end: clients must
	// submit with valid credentials, the Scheduler forwards them
	// encrypted to each ES, and ProcSpawn runs jobs as that account.
	Accounts wssec.StaticAccounts
	// Policy picks execution nodes; defaults to the paper's greedy
	// "fastest, most available" policy.
	Policy scheduler.Policy
	// UnitTime scales simulated compute (default 50µs per unit at
	// 1000 MHz).
	UnitTime time.Duration
	// UtilizationThreshold is each machine's report trigger delta.
	UtilizationThreshold float64
	// JobTimeout, when positive, fails any dispatched job with no
	// terminal event inside the window (a crashed or partitioned
	// machine) instead of letting the job set hang.
	JobTimeout time.Duration
	// Metrics, when set, records every outbound call the grid makes
	// (per wire attempt, retries included), keyed by service path and
	// action.
	Metrics *pipeline.Metrics
	// Retry, when set, retries idempotent actions on transient
	// transport failures (a nil Idempotent predicate defaults to
	// IdempotentActions()) and, with the same backoff, the broker's
	// notification deliveries.
	Retry *pipeline.RetryPolicy
	// DefaultRetry applies to every job whose spec carries no retry
	// policy of its own (the gridmaster -retry-default flag).
	DefaultRetry scheduler.RetryPolicy
	// Admission, when set, parks submits in this queue and lets the
	// fair-share pump activate them (the gridmaster -queue-depth flags).
	Admission *admission.Queue
	// Preempt lets an interactive-class arrival that finds its tenant's
	// running quota full evict the tenant's youngest running
	// scavenger-class set (requires Admission; the -preempt flag).
	Preempt bool
}

// Grid is a running campus grid.
type Grid struct {
	Network   *transport.Network
	Client    *transport.Client
	Master    *transport.Server
	Nodes     []*node.Node
	Broker    *wsn.Broker
	NIS       *nodeinfo.Service
	Scheduler *scheduler.Service

	cfg        GridConfig
	master     *master.Master
	ssIdentity *wssec.Identity
	clientSeq  int
}

// masterHost names the master machine on the grid's network.
const masterHost = "master"

// NewGrid builds and starts a grid.
func NewGrid(cfg GridConfig) (*Grid, error) {
	if len(cfg.Nodes) == 0 {
		return nil, fmt.Errorf("core: grid needs at least one node")
	}
	network := transport.NewNetwork()
	client := transport.NewClient().WithNetwork(network)
	client.Use(ClientInterceptors(cfg.Retry, nil, cfg.Metrics)...)

	g := &Grid{Network: network, Client: client, cfg: cfg}

	if cfg.Preempt && cfg.Admission == nil {
		return nil, fmt.Errorf("core: Preempt needs an Admission queue")
	}
	ssCfg := scheduler.Config{
		Policy:       cfg.Policy,
		ESCerts:      g.certFor,
		JobTimeout:   cfg.JobTimeout,
		DefaultRetry: cfg.DefaultRetry,
		Admission:    cfg.Admission,
		Preempt:      cfg.Preempt,
	}
	if cfg.Accounts != nil {
		var err error
		g.ssIdentity, err = wssec.NewIdentity("CN=SchedulerService/" + masterHost)
		if err != nil {
			return nil, err
		}
		ssCfg.Security = &wssec.VerifierConfig{
			Identity: g.ssIdentity,
			Accounts: cfg.Accounts,
			Required: true,
		}
	}
	mcfg := master.Config{
		Address:   "inproc://" + masterHost,
		Store:     resourcedb.NewStore(),
		Client:    client,
		Scheduler: ssCfg,
		Metrics:   cfg.Metrics,
	}
	if cfg.Retry != nil {
		// Notification delivery gets the same bounded backoff: a slow
		// consumer's transient failure is absorbed instead of counting
		// toward its subscription's destruction.
		mcfg.DeliveryRetry = *cfg.Retry
	}
	m, err := master.Assemble(mcfg)
	if err != nil {
		return nil, err
	}
	g.master = m
	g.Broker, g.NIS, g.Scheduler = m.Broker, m.NIS, m.Scheduler
	g.Master = transport.NewServer(m.Mux)
	g.Master.Use(ServerInterceptors()...)
	network.Register(masterHost, g.Master)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := m.Start(ctx); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}

	for _, spec := range cfg.Nodes {
		n, err := node.New(node.Config{
			Interceptors:         ServerInterceptors(),
			Name:                 spec.Name,
			Network:              network,
			Client:               client,
			Cores:                spec.Cores,
			SpeedMHz:             spec.SpeedMHz,
			RAMMB:                spec.RAMMB,
			UnitTime:             cfg.UnitTime,
			Accounts:             cfg.Accounts,
			Broker:               g.Broker.EPR(),
			NIS:                  g.NIS.EPR(),
			UtilizationThreshold: cfg.UtilizationThreshold,
			Background:           spec.Background,
		})
		if err != nil {
			return nil, fmt.Errorf("core: node %s: %w", spec.Name, err)
		}
		g.Nodes = append(g.Nodes, n)
	}
	for _, n := range g.Nodes {
		if err := n.Register(ctx); err != nil {
			return nil, fmt.Errorf("core: register %s with NIS: %w", n.Name, err)
		}
	}
	return g, nil
}

// ClientInterceptors is the outbound pipeline every grid host runs:
// request correlation and deadline propagation always; tracing, retry of
// idempotent actions (IdempotentActions unless the policy names its own)
// and metrics where given. The order is nesting order, earlier outermost,
// so metrics sits innermost and records every wire attempt a retry makes.
func ClientInterceptors(retry *pipeline.RetryPolicy, trace *log.Logger, metrics *pipeline.Metrics) []soap.Interceptor {
	ics := []soap.Interceptor{pipeline.ClientRequestID(), pipeline.ClientDeadline()}
	if trace != nil {
		ics = append(ics, pipeline.Trace(trace))
	}
	if retry != nil {
		p := *retry
		if p.Idempotent == nil {
			p.Idempotent = IdempotentActions()
		}
		ics = append(ics, pipeline.Retry(p))
	}
	if metrics != nil {
		ics = append(ics, metrics.Interceptor())
	}
	return ics
}

// ServerInterceptors is the receive pipeline every grid host runs:
// lift the propagated request ID onto the handler context and
// re-establish the caller's deadline.
func ServerInterceptors() []soap.Interceptor {
	return []soap.Interceptor{pipeline.ServerRequestID(), pipeline.ServerDeadline()}
}

// certFor resolves the ES certificate for credential encryption.
func (g *Grid) certFor(es wsa.EndpointReference) (wssec.Certificate, bool) {
	for _, n := range g.Nodes {
		if n.ES.EPR().Address == es.Address {
			return n.Certificate(), true
		}
	}
	return wssec.Certificate{}, false
}

// SchedulerCertificate returns the SS certificate clients encrypt their
// Submit credentials to; zero when security is off.
func (g *Grid) SchedulerCertificate() (wssec.Certificate, bool) {
	if g.ssIdentity == nil {
		return wssec.Certificate{}, false
	}
	return g.ssIdentity.Certificate(), true
}

// Node finds a machine by name.
func (g *Grid) Node(name string) (*node.Node, bool) {
	for _, n := range g.Nodes {
		if n.Name == name {
			return n, true
		}
	}
	return nil, false
}

// StartMonitors launches every machine's background utilization
// monitor.
func (g *Grid) StartMonitors() {
	for _, n := range g.Nodes {
		n.Start()
	}
}

// Close stops the grid's background activity.
func (g *Grid) Close() {
	if g.master != nil {
		g.master.Stop()
	}
	for _, n := range g.Nodes {
		n.Stop()
	}
}
