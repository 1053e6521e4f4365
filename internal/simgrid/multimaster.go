package simgrid

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync/atomic"

	"uvacg/internal/lease"
	"uvacg/internal/master"
	"uvacg/internal/resourcedb"
	"uvacg/internal/services/scheduler"
	"uvacg/internal/wsa"
	"uvacg/internal/wsrf"
	"uvacg/internal/xmlutil"
)

// CoreHost is the hub machine of a multi-master cluster: the broker,
// the NIS and the shared job-set and lease tables live here — the
// in-process stand-in for the central database every WSRF.NET service
// kept its WS-Resources in. Masters are scheduler-only replicas named
// by MasterName.
const CoreHost = "core"

// MasterName names replica i (1-based): "master-1" .. "master-M".
func MasterName(i int) string { return fmt.Sprintf("master-%d", i) }

// masterIndex parses a MasterName back to its 0-based index. The
// single-master host "master" is not a replica name.
func masterIndex(host string) (int, bool) {
	var i int
	if _, err := fmt.Sscanf(host, "master-%d", &i); err != nil || i < 1 {
		return 0, false
	}
	return i - 1, true
}

// errMasterDead fails every I/O of a crashed master incarnation.
var errMasterDead = errors.New("simgrid: master incarnation is dead")

// fence models SIGKILL for a replica that keeps no state of its own:
// once tripped, the incarnation's shared-table access, lease traffic
// and outbound messages all fail, exactly as a killed process's
// in-flight I/O would. A restart builds a fresh incarnation with a
// fresh fence; the old one stays dead forever.
type fence struct{ dead atomic.Bool }

// fencedHome gates a master's route to the shared job-set table behind
// its incarnation fence.
type fencedHome struct {
	inner wsrf.ResourceHome
	f     *fence
}

func (h *fencedHome) Create(id string, initial *xmlutil.Element) error {
	if h.f.dead.Load() {
		return errMasterDead
	}
	return h.inner.Create(id, initial)
}

func (h *fencedHome) Load(id string) (*xmlutil.Element, error) {
	if h.f.dead.Load() {
		return nil, errMasterDead
	}
	return h.inner.Load(id)
}

func (h *fencedHome) Save(id string, doc *xmlutil.Element) error {
	if h.f.dead.Load() {
		return errMasterDead
	}
	return h.inner.Save(id, doc)
}

func (h *fencedHome) Destroy(id string) error {
	if h.f.dead.Load() {
		return errMasterDead
	}
	return h.inner.Destroy(id)
}

func (h *fencedHome) Exists(id string) bool {
	return !h.f.dead.Load() && h.inner.Exists(id)
}

func (h *fencedHome) IDs() []string {
	if h.f.dead.Load() {
		return nil
	}
	return h.inner.IDs()
}

// gatedLeaseStore is a master's route to the shared lease table. It
// fails when the incarnation is dead and — because lease traffic in a
// real deployment crosses the network to the core database — when the
// chaos engine has the master partitioned from the core. That is what
// forces a partitioned-but-alive master to fence itself on its local
// clock instead of silently renewing.
type gatedLeaseStore struct {
	inner lease.Store
	f     *fence
	chaos *Chaos
	host  string
}

func (g *gatedLeaseStore) gate() error {
	if g.f.dead.Load() {
		return errMasterDead
	}
	if g.chaos.Blocked(g.host, CoreHost) || g.chaos.Blocked(CoreHost, g.host) {
		return fmt.Errorf("simgrid: %s is partitioned from %s", g.host, CoreHost)
	}
	return nil
}

func (g *gatedLeaseStore) Load(shard int) (lease.Record, bool, error) {
	if err := g.gate(); err != nil {
		return lease.Record{}, false, err
	}
	return g.inner.Load(shard)
}

func (g *gatedLeaseStore) CompareAndSave(rec lease.Record, expectEpoch uint64) error {
	if err := g.gate(); err != nil {
		return err
	}
	return g.inner.CompareAndSave(rec, expectEpoch)
}

// coreServices is the hub incarnation: broker, NIS and the durable
// store holding the shared jobsets and leases tables. The core never
// crashes in a scenario — it plays the highly-available central
// database, the single point the paper's architecture also assumes.
type coreServices struct {
	store   *resourcedb.DurableStore
	m       *master.Master
	jobsets *resourcedb.Table
	leases  *lease.TableStore
}

// startCore opens the hub's durable store and brings broker and NIS up
// over it, plus the shared jobsets and leases tables the masters attach
// to.
func (c *Cluster) startCore(ctx context.Context) error {
	store, err := resourcedb.OpenDurable(filepath.Join(c.cfg.DataDir, CoreHost), resourcedb.DurableOptions{})
	if err != nil {
		return fmt.Errorf("simgrid: open core store: %w", err)
	}
	m, err := c.bringUp(ctx, CoreHost, master.Config{Store: store.Store, Client: c.clientWith(CoreHost, nil)})
	if err != nil {
		store.Close()
		return err
	}
	c.mu.Lock()
	c.core = &coreServices{
		store:   store,
		m:       m,
		jobsets: store.MustTable("jobsets", resourcedb.BlobCodec{}),
		leases:  lease.NewTableStore(store.MustTable("leases", resourcedb.BlobCodec{})),
	}
	c.mu.Unlock()
	return nil
}

// preferredShards lists the shards replica self (0-based) claims
// eagerly at startup: the ones hashing onto it in the static layout.
func preferredShards(self, masters, shards int) []int {
	var out []int
	for s := 0; s < shards; s++ {
		if s%masters == self {
			out = append(out, s)
		}
	}
	return out
}

// startMasterN builds incarnation i (0-based) of a scheduler replica:
// a fenced view of the shared tables, a lease manager for its shard
// claims, and the scheduler itself beside the hub's broker and NIS.
// master.Start claims the replica's preferred shards and recovers them
// before the admission pump runs. The returned error carries per-set
// recovery failures; the replica is up once c.masters[i] is set.
func (c *Cluster) startMasterN(ctx context.Context, i int) error {
	host := MasterName(i + 1)
	f := &fence{}
	masters := c.cfg.Masters

	mgr, err := lease.NewManager(lease.Config{
		Store:     &gatedLeaseStore{inner: c.core.leases, f: f, chaos: c.Chaos, host: host},
		Owner:     c.masterEPR(i).Address,
		Shards:    c.cfg.Shards,
		Preferred: preferredShards(i, masters, c.cfg.Shards),
		TTL:       c.cfg.LeaseTTL,
	})
	if err != nil {
		return err
	}
	ssCfg := c.schedulerConfig()
	ssCfg.Sharding = &scheduler.Sharding{
		Manager: mgr,
		PeerForShard: func(shard int) (wsa.EndpointReference, bool) {
			return c.masterEPR(shard % masters), true
		},
		Observer: c.noteShardEvent,
	}
	m, err := c.bringUp(ctx, host, master.Config{
		Client:    c.clientWith(host, f),
		Scheduler: ssCfg,
		Broker:    c.core.m.Broker.EPR(),
		NIS:       c.core.m.NIS.EPR(),
		JobSets:   &fencedHome{inner: wsrf.NewStateHome(c.core.jobsets), f: f},
	})
	if m == nil {
		return err
	}
	c.mu.Lock()
	for len(c.masters) <= i {
		c.masters = append(c.masters, nil)
	}
	c.masters[i] = &masterHost{host: host, m: m, mgr: mgr, f: f}
	c.mu.Unlock()
	return err
}

// CrashMasterN kills replica i: it vanishes from the network and its
// fence trips, so every in-flight table write, lease renewal and
// outbound message of the incarnation fails. Its shard leases stay in
// the shared table until they expire — a surviving peer claims them
// after the grace period and recovers the orphaned job sets.
func (c *Cluster) CrashMasterN(i int) {
	c.mu.Lock()
	m := c.masters[i]
	c.mu.Unlock()
	c.Network.Deregister(m.host)
	m.f.dead.Store(true)
	m.m.Stop()
}

// RestartMasterN brings replica i back as a fresh incarnation and
// recovers whatever shards its initial lease pass claimed: its own if
// the lease had not expired (a self-reclaim bumps the epoch), nothing
// if a peer already took them over.
func (c *Cluster) RestartMasterN(ctx context.Context, i int) error {
	return c.startMasterN(ctx, i)
}

// MultiMaster reports whether the cluster runs the sharded layout.
func (c *Cluster) MultiMaster() bool { return c.cfg.Masters > 1 }

// Shards returns the shard ring size (1 in single-master mode).
func (c *Cluster) Shards() int {
	if !c.MultiMaster() {
		return 1
	}
	return c.cfg.Shards
}

// SchedulerN returns replica i's current scheduler incarnation.
func (c *Cluster) SchedulerN(i int) *scheduler.Service {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.masters[i].m.Scheduler
}

// LeaseManagerN returns replica i's current lease manager.
func (c *Cluster) LeaseManagerN(i int) *lease.Manager {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.masters[i].mgr
}

// masterEPR is the static scheduler endpoint of replica i (0-based).
func (c *Cluster) masterEPR(i int) wsa.EndpointReference {
	return wsa.NewEPR("inproc://" + MasterName(i+1) + scheduler.ServicePath)
}

// noteShardEvent appends one ownership transition to the lease ledger.
func (c *Cluster) noteShardEvent(ev scheduler.ShardEvent) {
	c.mu.Lock()
	c.shardEvents = append(c.shardEvents, ev)
	c.mu.Unlock()
}

// noteDispatch appends one committed dispatch to the dispatch ledger.
func (c *Cluster) noteDispatch(rec scheduler.DispatchRecord) {
	c.mu.Lock()
	c.dispatches = append(c.dispatches, rec)
	c.mu.Unlock()
}

// ShardEvents snapshots the lease ledger: every ownership transition
// every master incarnation went through, in commit order.
func (c *Cluster) ShardEvents() []scheduler.ShardEvent {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]scheduler.ShardEvent(nil), c.shardEvents...)
}

// Dispatches snapshots the dispatch ledger: every job dispatch any
// master committed to, stamped with the lease epoch it was made under.
func (c *Cluster) Dispatches() []scheduler.DispatchRecord {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]scheduler.DispatchRecord(nil), c.dispatches...)
}

// LiveHolders lists the owner identities of live (non-crashed) master
// incarnations that currently believe they hold the shard's lease.
func (c *Cluster) LiveHolders(shard int) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []string
	for _, m := range c.masters {
		if m != nil && !m.f.dead.Load() && m.mgr.Held(shard) {
			out = append(out, m.mgr.Owner())
		}
	}
	return out
}
