// Package master is the one place a grid master is put together —
// broker, Node Info Service, scheduler and, when asked for, replicator,
// over one resource store and one service mux — and the one place their
// start order is written down. core.NewGrid, the simulator and the
// gridmaster binary all call Assemble and Start, so what the simulator's
// invariants are proven on is the wiring that ships.
package master

import (
	"context"
	"errors"
	"fmt"

	"uvacg/internal/pipeline"
	"uvacg/internal/resourcedb"
	"uvacg/internal/services/filesystem"
	"uvacg/internal/services/nodeinfo"
	"uvacg/internal/services/scheduler"
	"uvacg/internal/soap"
	"uvacg/internal/transport"
	"uvacg/internal/wsn"
	"uvacg/internal/wsrf"
)

// Config describes one master host.
type Config struct {
	// Address is the base address the host's services advertise in
	// their EPRs ("inproc://master", "http://host:8700").
	Address string
	// Store holds the host's tables: subscriptions, nodeinfo, jobsets
	// and replicas.
	Store *resourcedb.Store
	// Client performs the host's outbound calls.
	Client *transport.Client
	// Scheduler is the scheduler's configuration; Assemble fills in
	// Address, Home, Client, NIS and Broker.
	Scheduler scheduler.Config
	// DeliveryRetry is the broker's notification-delivery retry; the
	// zero value delivers each notification once.
	DeliveryRetry pipeline.RetryPolicy
	// Replicas, when positive, runs the replication layer: staged inputs
	// are fanned out to this many FSS nodes and the acked holder sets
	// journaled in the Store.
	Replicas int
	// OnAck, when set, observes every journaled holder set.
	OnAck func(hash string, holders []string)
	// Metrics, when set, records replication fan-out rounds.
	Metrics *pipeline.Metrics
}

// Master is an assembled master host. Mount Mux behind a binding, then
// call Start.
type Master struct {
	Broker    *wsn.Broker
	NIS       *nodeinfo.Service
	Scheduler *scheduler.Service
	// Replicator is nil unless Config.Replicas is positive.
	Replicator *filesystem.Replicator
	// Mux has every hosted service and consumer mounted.
	Mux *soap.Mux

	cancel context.CancelFunc
}

// Assemble builds the host's services and mounts them on one mux.
// Nothing runs yet: no job set is recovered.
func Assemble(cfg Config) (*Master, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("master: config requires a Store")
	}
	table := func(name string) *resourcedb.Table { return cfg.Store.MustTable(name, resourcedb.BlobCodec{}) }
	m := &Master{Mux: soap.NewMux()}
	var err error

	m.Broker, err = wsn.NewBroker("/NotificationBroker", cfg.Address, wsrf.NewStateHome(table("subscriptions")), cfg.Client)
	if err != nil {
		return nil, err
	}
	m.Broker.Producer().SetDeliveryRetry(cfg.DeliveryRetry)
	m.Mux.Handle(m.Broker.Service().Path(), m.Broker.Service().Dispatcher())
	subSvc := m.Broker.Producer().SubscriptionService()
	m.Mux.Handle(subSvc.Path(), subSvc.Dispatcher())

	m.NIS, err = nodeinfo.New(nodeinfo.Config{Address: cfg.Address, Home: wsrf.NewStateHome(table("nodeinfo"))})
	if err != nil {
		return nil, err
	}
	m.Mux.Handle(m.NIS.WSRF().Path(), m.NIS.WSRF().Dispatcher())

	ssCfg := cfg.Scheduler
	ssCfg.Address, ssCfg.Client = cfg.Address, cfg.Client
	ssCfg.NIS, ssCfg.Broker = m.NIS.EPR(), m.Broker.EPR()
	ssCfg.Home = wsrf.NewStateHome(table("jobsets"))
	m.Scheduler, err = scheduler.New(ssCfg)
	if err != nil {
		return nil, err
	}
	m.Mux.Handle(m.Scheduler.WSRF().Path(), m.Scheduler.WSRF().Dispatcher())
	m.Scheduler.Consumer().Mount(m.Mux, m.Scheduler.ConsumerPath())

	if cfg.Replicas > 0 {
		m.Replicator = filesystem.NewReplicator(filesystem.ReplicatorConfig{
			Address:  cfg.Address,
			Client:   cfg.Client,
			Broker:   m.Broker.EPR(),
			NIS:      m.NIS.EPR(),
			Replicas: cfg.Replicas,
			Journal:  table("replicas"),
			Metrics:  cfg.Metrics,
			OnAck:    cfg.OnAck,
		})
		m.Replicator.Consumer().Mount(m.Mux, m.Replicator.ConsumerPath())
	}
	return m, nil
}

// Start brings the assembled host to life, once Mux is reachable at the
// configured address. The order is the contract:
//
//  1. the standing subscriptions — the Replicator's and, under the
//     data-aware policy, the Scheduler's replica consumer — are made
//     before anything this host starts can publish on the replica topic:
//     the broker keeps no message for a late subscriber;
//  2. Recover resumes the job sets the last run left unfinished and
//     re-parks the journaled Queued ones in admission-sequence order, and
//     only then
//  3. StartAdmission lets the fair-share pump draw from the rebuilt
//     queue — a pump started earlier would pick from a half-rebuilt one
//     and activate sets out of their fair-share order.
//
// ctx bounds the start-up work; the pump runs until Stop. The host is up
// whatever Start returns: the error joins a failed subscription and the
// job sets that could not be resumed, for the caller to log or refuse.
func (m *Master) Start(ctx context.Context) (resumed int, err error) {
	bg, cancel := context.WithCancel(context.Background())
	m.cancel = cancel
	var errs []error
	if m.Replicator != nil {
		if err := m.Replicator.Start(ctx); err != nil {
			errs = append(errs, fmt.Errorf("replicator subscription: %w", err))
		}
	}
	if err := m.Scheduler.SubscribeReplicas(ctx); err != nil {
		errs = append(errs, fmt.Errorf("scheduler replica subscription: %w", err))
	}
	resumed, rerr := m.Scheduler.Recover(ctx)
	if rerr != nil {
		errs = append(errs, fmt.Errorf("job set recovery: %w", rerr))
	}
	m.Scheduler.StartAdmission(bg)
	return resumed, errors.Join(errs...)
}

// Stop ends the background work Start began (the admission pump).
// Services keep answering until their binding closes.
func (m *Master) Stop() {
	if m.cancel != nil {
		m.cancel()
	}
}
