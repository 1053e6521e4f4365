// Package master is the one place a grid master is put together —
// broker, Node Info Service and scheduler over one resource store and one
// service mux — and the one place their start order is written down.
// core.NewGrid, the simulator and the gridmaster binary all call Assemble
// and Start, so what the simulator's invariants are proven on is the
// wiring that ships.
package master

import (
	"context"
	"fmt"

	"uvacg/internal/resourcedb"
	"uvacg/internal/services/nodeinfo"
	"uvacg/internal/services/scheduler"
	"uvacg/internal/soap"
	"uvacg/internal/transport"
	"uvacg/internal/wsn"
	"uvacg/internal/wsrf"
)

// BrokerPath is where a master mounts its notification broker; the NIS
// sits at nodeinfo.ServicePath and the SS at scheduler.ServicePath.
const BrokerPath = "/NotificationBroker"

// Config describes one master host.
type Config struct {
	// Address is the base address the host's services advertise in
	// their EPRs ("inproc://master", "http://host:8700").
	Address string
	// Store holds the host's tables: subscriptions and jobsets. A table
	// it does not name, such as the replicas journal of an earlier release
	// or the nodeinfo journal of one that kept the catalog on disk, is
	// replayed and left alone. The NIS keeps its catalog in memory, since
	// the machines' renewals rebuild it.
	Store *resourcedb.Store
	// Client performs the host's outbound calls.
	Client *transport.Client
	// Scheduler is the scheduler's configuration; Assemble fills in
	// Address, Home, Client, NIS and Broker.
	Scheduler scheduler.Config
}

// Master is an assembled master host. Mount Mux behind a binding, then
// call Start.
type Master struct {
	Broker    *wsn.Broker
	NIS       *nodeinfo.Service
	Scheduler *scheduler.Service
	// Mux has every hosted service and consumer mounted.
	Mux *soap.Mux
}

// Assemble builds the host's services, mounts them on one mux and
// subscribes the scheduler to every set's events, once: the subscription
// is durable and Subscribe idempotent. Nothing runs yet: no job set is
// recovered.
func Assemble(cfg Config) (*Master, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("master: config requires a Store")
	}
	table := func(name string) *resourcedb.Table { return cfg.Store.MustTable(name, resourcedb.BlobCodec{}) }
	m := &Master{Mux: soap.NewMux()}
	var err error

	m.Broker, err = wsn.NewBroker(BrokerPath, cfg.Address, wsrf.NewStateHome(table("subscriptions")), cfg.Client)
	if err != nil {
		return nil, err
	}
	m.Mux.Handle(m.Broker.Service().Path(), m.Broker.Service().Dispatcher())
	subSvc := m.Broker.Producer().SubscriptionService()
	m.Mux.Handle(subSvc.Path(), subSvc.Dispatcher())

	m.NIS, err = nodeinfo.New(nodeinfo.Config{Address: cfg.Address})
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
	if _, err := m.Broker.Producer().Subscribe(m.Scheduler.ConsumerEPR(), m.Scheduler.ConsumerTopics()); err != nil {
		return nil, fmt.Errorf("master: subscribe the scheduler: %w", err)
	}
	return m, nil
}

// Start brings the assembled host to life, once Mux is reachable at the
// configured address: Recover resumes the job sets the last run left
// unfinished. ctx bounds the start-up work. The host is up whatever Start
// returns: the error names the job sets that could not be resumed, for the
// caller to log or refuse.
func (m *Master) Start(ctx context.Context) (resumed int, err error) {
	resumed, err = m.Scheduler.Recover(ctx)
	if err != nil {
		err = fmt.Errorf("job set recovery: %w", err)
	}
	return resumed, err
}
