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

	"uvacg/internal/master"
	"uvacg/internal/node"
	"uvacg/internal/pipeline"
	"uvacg/internal/resourcedb"
	"uvacg/internal/services/filesystem"
	"uvacg/internal/services/nodeinfo"
	"uvacg/internal/services/scheduler"
	"uvacg/internal/soap"
	"uvacg/internal/transport"
	"uvacg/internal/wsn"
	"uvacg/internal/wsrf"
	"uvacg/internal/wssec"
)

// IdempotentActions is the grid's safe-to-retry predicate: the pure
// reads of the WSRF property port types, the NIS processor query, the
// FSS file reads, and Notify, whose delivery is at-least-once by
// contract (the Scheduler ignores a repeated job event by its attempt
// identity). Mutating operations — Submit, Run, uploads, lifetime
// changes — are excluded; they must reach a service at most once.
func IdempotentActions() func(string) bool {
	return pipeline.IdempotentActions(
		wsrf.ActionGetResourceProperty,
		wsrf.ActionGetResourcePropertyDocument,
		wsrf.ActionGetMultipleResourceProperties,
		wsrf.ActionQueryResourceProperties,
		nodeinfo.ActionGetProcessors,
		filesystem.ActionRead,
		filesystem.ActionList,
		wsn.ActionNotify,
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

	cfg       GridConfig
	clientSeq int
}

// masterHost names the master machine on the grid's network.
const masterHost = "master"

// NewGrid builds and starts a grid: every machine registers with the NIS
// and runs its utilization monitor, which renews its entry.
func NewGrid(cfg GridConfig) (*Grid, error) {
	if len(cfg.Nodes) == 0 {
		return nil, fmt.Errorf("core: grid needs at least one node")
	}
	network := transport.NewNetwork()
	client := transport.NewClient().WithNetwork(network)
	client.Use(ClientInterceptors(nil, nil)...)

	g := &Grid{Network: network, Client: client, cfg: cfg}

	m, err := master.Assemble(master.Config{
		Address:   "inproc://" + masterHost,
		Store:     resourcedb.NewStore(),
		Client:    client,
		Scheduler: scheduler.Config{Policy: cfg.Policy, Accounts: cfg.Accounts},
	})
	if err != nil {
		return nil, err
	}
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
		n.Start()
	}
	return g, nil
}

// ClientInterceptors is the outbound pipeline every grid host runs:
// request correlation, deadline propagation and the one retry of
// IdempotentActions always; tracing and metrics where given. The order is
// nesting order, earlier outermost, so metrics sits innermost and records
// every wire attempt a retry makes.
func ClientInterceptors(trace *log.Logger, metrics *pipeline.Metrics) []soap.Interceptor {
	ics := []soap.Interceptor{pipeline.ClientRequestID(), pipeline.ClientDeadline()}
	if trace != nil {
		ics = append(ics, pipeline.Trace(trace))
	}
	ics = append(ics, pipeline.Retry(pipeline.RetryPolicy{Idempotent: IdempotentActions()}))
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

// Close stops the grid's background activity.
func (g *Grid) Close() {
	for _, n := range g.Nodes {
		n.Stop()
	}
}
