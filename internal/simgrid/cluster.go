package simgrid

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"uvacg/internal/core"
	"uvacg/internal/master"
	"uvacg/internal/node"
	"uvacg/internal/resourcedb"
	"uvacg/internal/services/filesystem"
	"uvacg/internal/services/scheduler"
	"uvacg/internal/transport"
	"uvacg/internal/wsa"
	"uvacg/internal/wsn"
	"uvacg/internal/wssec"
)

// Cluster hosts: the master machine and the observer/client machine are
// fixed; execution nodes are "node-1".."node-N".
const (
	MasterHost   = "master"
	ObserverHost = "client"
)

// ClusterConfig sizes a simulated cluster.
type ClusterConfig struct {
	Seed  int64
	Nodes int
	// DataDir roots every service's durable store; each host gets a
	// subdirectory that survives Crash/Restart.
	DataDir string
}

// Ack records one acknowledged submission: the scheduler accepted the
// job set and returned its resource EPR and topic. Acked submissions are
// the anchor of invariants I3 and I4.
type Ack struct {
	Name  string
	Set   wsa.EndpointReference
	Topic string
}

// masterHost is one incarnation of the master machine. Crashing it
// abandons the incarnation (its goroutines die against a tripped fence
// and a closed store — like a killed process's in-flight I/O) and a
// restart builds a fresh one.
type masterHost struct {
	store *resourcedb.DurableStore
	m     *master.Master
	f     *fence // trips on crash: no outbound I/O survives
}

// fence models SIGKILL for outbound traffic: once tripped, every message
// the incarnation's surviving goroutines (watchdogs, retry-backoff timers,
// a machine's processes) still try to send fails — a dead process makes no
// network calls. A restart builds a fresh incarnation with a fresh fence.
type fence struct{ dead atomic.Bool }

// errDead fails every outbound message of a crashed incarnation.
var errDead = errors.New("simgrid: host incarnation is dead")

// nodeHost is one incarnation of an execution machine.
type nodeHost struct {
	store *resourcedb.DurableStore
	node  *node.Node
	f     *fence // trips on crash: no outbound I/O survives
}

// Cluster is a whole in-process grid wired over fault-injecting
// transports: scheduler + broker + NIS on the master, N execution/FSS
// machines, and an observer host carrying the client-side file server
// and the invariant checker's notification listener. Every host has its
// own transport.Client wrapped with the shared Chaos engine, so
// partitions can be asymmetric and every cross-host message is in play.
type Cluster struct {
	Chaos    *Chaos
	Network  *transport.Network
	Observer *Observer

	cfg ClusterConfig

	mu     sync.Mutex
	master *masterHost
	nodes  map[string]*nodeHost
	acked  []Ack

	// Every committed dispatch of every master incarnation, in commit
	// order (the retry-storm drill counts them).
	dispatches []scheduler.DispatchRecord
	// Ledger for invariant I7: every file any FSS staged, with the bytes
	// it installed.
	stages []filesystem.StageRecord
}

// NewCluster builds and starts a cluster with chaos disabled; call
// c.Chaos.Enable(true) once setup traffic (registration, app publishing)
// is done.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if cfg.Nodes <= 0 {
		cfg.Nodes = 1
	}
	if cfg.DataDir == "" {
		return nil, fmt.Errorf("simgrid: ClusterConfig.DataDir is required")
	}
	c := &Cluster{
		Chaos:   NewChaos(cfg.Seed),
		Network: transport.NewNetwork(),
		cfg:     cfg,
		nodes:   make(map[string]*nodeHost),
	}
	// The observer's listener is the measuring instrument for I2/I4:
	// exempt it so a lost notification means the system lost it, not the
	// probe. The same host's file server stays faultable.
	c.Chaos.ExemptAddr(ObserverHost, "/listener")

	var err error
	if c.Observer, err = c.newObserver(); err != nil {
		return nil, err
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if unresumed, err := c.startMaster(ctx); err != nil || unresumed != nil {
		return nil, errors.Join(err, unresumed)
	}
	// Machines join in parallel — TestHundredsOfNodes runs 160 of them —
	// with concurrency capped so store opens do not stampede.
	// Registration order was never part of the determinism contract
	// (chaos counters only start once the engine is enabled).
	sem := make(chan struct{}, 32)
	var wg sync.WaitGroup
	errs := make([]error, cfg.Nodes)
	for i := 1; i <= cfg.Nodes; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			unregistered, err := c.startNode(ctx, fmt.Sprintf("node-%d", i))
			errs[i-1] = errors.Join(err, unregistered)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return c, nil
}

// clientWith builds the outbound pipeline for one host — the one every
// grid host runs, with its retry — over a chaos-wrapped transport. A
// non-nil fence kills every outbound message once the host's incarnation
// is crashed.
func (c *Cluster) clientWith(host string, f *fence) *transport.Client {
	client := transport.NewClient().WithNetwork(c.Network)
	client.Use(core.ClientInterceptors(nil, nil)...)
	decide := c.Chaos.FaultFunc(host)
	client.WrapSchemes(func(_ string, rt transport.RoundTripper) transport.RoundTripper {
		return transport.WrapFaults(rt, func(op transport.FaultOp, addr string) transport.FaultDecision {
			if f != nil && f.dead.Load() {
				return transport.FaultDecision{Err: errDead}
			}
			return decide(op, addr)
		})
	})
	return client
}

// startMaster opens (or reopens) the master's durable store and brings
// broker, NIS and scheduler up over it through the one shared
// assembly — the wiring gridmaster ships — so the start order every crash
// drill exercises is master.Start's; on a reopened store the broker
// recovers its subscriptions and Recover resumes interrupted runs. err
// means there is no master: the store would not open or the services not
// assemble. unresumed is what a master that is up could not recover.
func (c *Cluster) startMaster(ctx context.Context) (unresumed, err error) {
	store, err := resourcedb.OpenDurable(filepath.Join(c.cfg.DataDir, MasterHost), resourcedb.DurableOptions{})
	if err != nil {
		return nil, fmt.Errorf("simgrid: open master store: %w", err)
	}
	ssCfg := scheduler.Config{OnDispatch: c.noteDispatch}
	f := &fence{}
	m, err := master.Assemble(master.Config{
		Address:   "inproc://" + MasterHost,
		Store:     store.Store,
		Client:    c.clientWith(MasterHost, f),
		Scheduler: ssCfg,
	})
	if err != nil {
		store.Close()
		return nil, err
	}
	srv := transport.NewServer(m.Mux)
	srv.Use(core.ServerInterceptors()...)
	c.Network.Register(MasterHost, srv)
	_, unresumed = m.Start(ctx)
	c.mu.Lock()
	c.master = &masterHost{store: store, m: m, f: f}
	c.mu.Unlock()
	return unresumed, nil
}

// startNode opens (or reopens) one machine's durable store, joins it to
// the network and starts its monitor, whose renewals keep it in the NIS
// catalog. err means there is no machine: its store would not open or its
// services not assemble. unregistered is why one that is up is not listed
// yet — under chaos the Report can be dropped: its next renewal lists it.
func (c *Cluster) startNode(ctx context.Context, name string) (unregistered, err error) {
	store, err := resourcedb.OpenDurable(filepath.Join(c.cfg.DataDir, name), resourcedb.DurableOptions{})
	if err != nil {
		return nil, fmt.Errorf("simgrid: open %s store: %w", name, err)
	}
	f := &fence{}
	n, err := node.New(node.Config{
		Interceptors: core.ServerInterceptors(),
		Name:         name,
		Network:      c.Network,
		Client:       c.clientWith(name, f),
		Cores:        2,
		SpeedMHz:     2000,
		UnitTime:     5 * time.Microsecond,
		Broker:       c.Master().m.Broker.EPR(),
		NIS:          c.Master().m.NIS.EPR(),
		Store:        store.Store,
		OnStage:      c.noteStage,
	})
	if err != nil {
		store.Close()
		return nil, err
	}
	regErr := n.Register(ctx)
	n.Start()
	c.mu.Lock()
	c.nodes[name] = &nodeHost{store: store, node: n, f: f}
	c.mu.Unlock()
	if regErr != nil {
		return fmt.Errorf("simgrid: register %s: %w", name, regErr), nil
	}
	return nil, nil
}

// Master returns the current master incarnation.
func (c *Cluster) Master() *masterHost {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.master
}

// Scheduler returns the current scheduler instance.
func (c *Cluster) Scheduler() *scheduler.Service { return c.Master().m.Scheduler }

// liveScheduler returns the master's scheduler, nil while the master is
// crashed: a dead incarnation's books died with it, and what it had acked
// is the journal's (and the next incarnation's) to honor.
func (c *Cluster) liveScheduler() *scheduler.Service {
	if m := c.Master(); !m.f.dead.Load() {
		return m.m.Scheduler
	}
	return nil
}

// busy reports whether a machine — any machine, for a job not placed yet —
// is staging or running a process that can still report, as no crashed one can.
func (c *Cluster) busy(name string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for n, h := range c.nodes {
		if (name == "" || n == name) && !h.f.dead.Load() && h.node.Spawner.Load() > 0 {
			return true
		}
	}
	return false
}

// CrashMaster kills the master machine: it vanishes from the network and
// its durable store closes, so the incarnation's still-running
// goroutines fail their writes exactly as a killed process's in-flight
// I/O would. State on disk is whatever the WAL had committed.
func (c *Cluster) CrashMaster() {
	m := c.Master()
	m.f.dead.Store(true)
	c.Network.Deregister(MasterHost)
	_ = m.store.Close()
}

// RestartMaster reopens the master over its surviving data directory and
// resumes interrupted job sets. err means the master did not come back;
// unresumed carries the per-set recovery failures of one that did.
func (c *Cluster) RestartMaster(ctx context.Context) (unresumed, err error) {
	return c.startMaster(ctx)
}

// CrashNode kills one machine: fence trip, network drop, store close. Jobs
// it was running never report an exit — the scheduler watchdog's problem.
func (c *Cluster) CrashNode(name string) error {
	c.mu.Lock()
	h, ok := c.nodes[name]
	c.mu.Unlock()
	if !ok {
		return fmt.Errorf("simgrid: unknown node %q", name)
	}
	h.f.dead.Store(true)
	h.node.Stop()
	return h.store.Close()
}

// RestartNode brings a crashed machine back over its data directory. err
// means it did not come back; unregistered, that it is up and not listed
// until its next renewal.
func (c *Cluster) RestartNode(ctx context.Context, name string) (unregistered, err error) {
	return c.startNode(ctx, name)
}

// Submit publishes nothing itself — apps must already be on the observer
// file server — it sends the Submit through the observer's client, which
// builds the envelope, and owns the chaos policy: four tries, 10 ms apart.
// Only a parsed response counts as an ack; a created-but-unacked set is
// invariant I1's problem, not I3's.
func (c *Cluster) Submit(ctx context.Context, spec *scheduler.JobSetSpec) (Ack, error) {
	for attempt := 1; ; attempt++ {
		sub, err := c.Observer.grid.SubmitTo(ctx, c.Scheduler().EPR(), wssec.Credentials{}, spec)
		if err == nil {
			ack := Ack{Name: spec.Name, Set: sub.JobSet, Topic: sub.Topic}
			c.mu.Lock()
			c.acked = append(c.acked, ack)
			c.mu.Unlock()
			return ack, nil
		}
		if attempt == 4 {
			return Ack{}, err
		}
		select {
		case <-ctx.Done():
			return Ack{}, ctx.Err()
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// Acked returns every acknowledged submission so far.
func (c *Cluster) Acked() []Ack {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Ack(nil), c.acked...)
}

// noteDispatch appends one committed dispatch to the dispatch ledger.
func (c *Cluster) noteDispatch(rec scheduler.DispatchRecord) {
	c.mu.Lock()
	c.dispatches = append(c.dispatches, rec)
	c.mu.Unlock()
}

// noteStage appends one staged file to the stage ledger (node.Config
// OnStage hook; called from every machine's FSS).
func (c *Cluster) noteStage(rec filesystem.StageRecord) {
	c.mu.Lock()
	c.stages = append(c.stages, rec)
	c.mu.Unlock()
}

// StageRecords snapshots the stage ledger: every file any FSS staged,
// with the bytes it installed and the route they arrived by.
func (c *Cluster) StageRecords() []filesystem.StageRecord {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]filesystem.StageRecord(nil), c.stages...)
}

// JobSetDocs projects every persisted job-set resource — the ground
// truth the invariants read.
func (c *Cluster) JobSetDocs() []scheduler.JobSetView {
	home := c.Scheduler().WSRF().Home()
	var views []scheduler.JobSetView
	for _, id := range home.IDs() {
		doc, err := home.Load(id)
		if err != nil {
			continue
		}
		views = append(views, scheduler.ParseJobSetDocument(doc))
	}
	return views
}

// AwaitQuiescence blocks until every topic-bearing job set document is
// terminal and every acked topic has produced an observed terminal
// event, or the deadline passes. The error names what is still pending —
// the raw material of an I1/I4 violation.
func (c *Cluster) AwaitQuiescence(deadline time.Duration) error {
	end := time.Now().Add(deadline)
	for {
		pending := c.pendingWork()
		if len(pending) == 0 {
			return nil
		}
		if time.Now().After(end) {
			return fmt.Errorf("not quiescent after %v: %s", deadline, strings.Join(pending, "; "))
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func (c *Cluster) pendingWork() []string {
	var pending []string
	for _, v := range c.JobSetDocs() {
		if v.Topic != "" && !scheduler.TerminalSetStatus(v.Status) {
			pending = append(pending, fmt.Sprintf("set %s(%s) status %s", v.Name, v.Topic, v.Status))
		}
	}
	terminal := c.Observer.TerminalSets()
	for _, ack := range c.Acked() {
		if !terminal[ack.Topic] {
			pending = append(pending, fmt.Sprintf("no terminal event for acked %s(%s)", ack.Name, ack.Topic))
		}
	}
	return pending
}

// Close tears the cluster down: nodes stop, stores close, the observer's
// client leaves the network. Crash-closed stores close twice harmlessly.
func (c *Cluster) Close() {
	c.mu.Lock()
	nodes := make([]*nodeHost, 0, len(c.nodes))
	for _, h := range c.nodes {
		nodes = append(nodes, h)
	}
	m := c.master
	c.mu.Unlock()
	for _, h := range nodes {
		h.node.Stop()
		_ = h.store.Close()
	}
	if m != nil {
		_ = m.store.Close()
	}
	c.Observer.grid.Close()
}

// Observer is the client-side host: the one grid client — whose file
// server publishes job applications and whose Submit the cluster's
// chaos policy drives — plus the recorded log of every notification its
// listener received, which the invariant checker reads. The listener
// route is exempt from chaos; the file server is not.
type Observer struct {
	Files  *filesystem.FileServer
	client *transport.Client
	grid   *core.Client

	mu     sync.Mutex
	events []ObservedEvent
}

// ObservedEvent is one notification as seen by the client, with its
// topic split into the scheduler's conventions: set topic, job name and
// event kind ("jobset:<status>" for set-level events).
type ObservedEvent struct {
	Topic    string
	Set      string
	Job      string
	Kind     string
	ExitCode int
	HasExit  bool
	// Detail is why: a set event's Detail, a job event's Error.
	Detail string
	// JobEPR identifies the reporting process instance, so retry drills
	// can count distinct attempts even when a re-established
	// subscription delivers the same publish more than once.
	JobEPR string
}

func (c *Cluster) newObserver() (*Observer, error) {
	o := &Observer{client: c.clientWith(ObserverHost, nil)}
	var err error
	o.grid, err = core.NewClient(core.ClientConfig{
		Transport: o.client,
		Tap:       o.record,
		Expose: func(srv *transport.Server) (string, func(), error) {
			c.Network.Register(ObserverHost, srv)
			return "inproc://" + ObserverHost, func() { c.Network.Deregister(ObserverHost) }, nil
		},
	})
	if err != nil {
		return nil, err
	}
	o.Files = o.grid.Files
	return o, nil
}

func (o *Observer) FilesEPR() wsa.EndpointReference { return o.grid.FilesEPR() }

func (o *Observer) record(n wsn.Notification) {
	ev := ObservedEvent{Topic: n.Topic}
	if pe, ok := scheduler.ParseEvent(n); ok {
		ev.Set, ev.Job, ev.Kind, ev.Detail = pe.Set, pe.Job, pe.Kind, pe.JobEvent.Error
		if pe.Job == "" {
			ev.Kind, ev.Detail = "jobset:"+pe.Kind, pe.Detail
		}
		ev.ExitCode, ev.HasExit = pe.JobEvent.ExitCode, pe.JobEvent.HasExit
		if pe.JobEvent.JobName != "" && !n.Producer.IsZero() { // the ES publishes as the job
			ev.JobEPR = n.Producer.String()
		}
	}
	o.mu.Lock()
	o.events = append(o.events, ev)
	o.mu.Unlock()
}

// Events snapshots the recorded notification log.
func (o *Observer) Events() []ObservedEvent {
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]ObservedEvent(nil), o.events...)
}

// TerminalSets maps set topic → true for every set-level terminal event
// seen so far.
func (o *Observer) TerminalSets() map[string]bool {
	out := make(map[string]bool)
	for _, ev := range o.Events() {
		switch ev.Kind {
		case "jobset:completed", "jobset:failed", "jobset:cancelled":
			out[ev.Set] = true
		}
	}
	return out
}
