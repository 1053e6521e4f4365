package scheduler

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"uvacg/internal/lease"
	"uvacg/internal/node"
	"uvacg/internal/procspawn"
	"uvacg/internal/resourcedb"
	"uvacg/internal/services/filesystem"
	"uvacg/internal/services/nodeinfo"
	"uvacg/internal/soap"
	"uvacg/internal/transport"
	"uvacg/internal/wsa"
	"uvacg/internal/wsn"
	"uvacg/internal/wsrf"
	"uvacg/internal/xmlutil"
)

// multiHarness wires two sharded schedulers against one shared store —
// the WSRF.NET central-database deployment shape: broker and NIS live
// on a "core" host, each master runs only a scheduler, and the
// job-set and lease tables are common to both.
type multiHarness struct {
	network *transport.Network
	client  *transport.Client
	masters []*Service
	mgrs    []*lease.Manager
	files   *filesystem.FileServer
	events  <-chan wsn.Notification
	clock   *testClock
	cancel  context.CancelFunc
}

// testClock is a manually advanced clock for lease timing.
type testClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *testClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *testClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func newMultiHarness(t *testing.T, shards int, nodeNames ...string) *multiHarness {
	return newMultiHarnessCfg(t, shards, nil, nodeNames...)
}

// newMultiHarnessCfg is newMultiHarness with a per-master Config hook.
func newMultiHarnessCfg(t *testing.T, shards int, mutate func(i int, cfg *Config), nodeNames ...string) *multiHarness {
	t.Helper()
	network := transport.NewNetwork()
	client := transport.NewClient().WithNetwork(network)
	store := resourcedb.NewStore()
	clock := &testClock{now: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}

	broker, err := wsn.NewBroker("/NB", "inproc://core",
		wsrf.NewStateHome(store.MustTable("subs", resourcedb.BlobCodec{})), client)
	if err != nil {
		t.Fatal(err)
	}
	nis, err := nodeinfo.New(nodeinfo.Config{
		Address: "inproc://core",
		Home:    wsrf.NewStateHome(store.MustTable("nis", resourcedb.BlobCodec{})),
		Client:  client,
		Broker:  broker.EPR(),
	})
	if err != nil {
		t.Fatal(err)
	}
	coreMux := soap.NewMux()
	coreMux.Handle(broker.Service().Path(), broker.Service().Dispatcher())
	coreMux.Handle(broker.Producer().SubscriptionService().Path(), broker.Producer().SubscriptionService().Dispatcher())
	coreMux.Handle(nis.WSRF().Path(), nis.WSRF().Dispatcher())
	network.Register("core", transport.NewServer(coreMux))

	// One CAS-serialized lease store shared by every master.
	leaseStore := lease.NewTableStore(store.MustTable("leases", resourcedb.BlobCodec{}))
	jobsets := store.MustTable("jobsets", resourcedb.BlobCodec{})

	h := &multiHarness{network: network, client: client, clock: clock}
	ctx, cancel := context.WithCancel(context.Background())
	h.cancel = cancel
	t.Cleanup(cancel)

	addrFor := func(i int) string { return fmt.Sprintf("inproc://m%d", i+1) }
	for i := 0; i < 2; i++ {
		addr := addrFor(i)
		mgr, err := lease.NewManager(lease.Config{
			Store:     leaseStore,
			Owner:     addr + "/SchedulerService",
			Shards:    shards,
			Preferred: preferredShards(i, 2, shards),
			TTL:       time.Minute,
			Now:       clock.Now,
		})
		if err != nil {
			t.Fatal(err)
		}
		peer := func(shard int) (wsa.EndpointReference, bool) {
			return wsa.NewEPR(addrFor(shard%2) + "/SchedulerService"), true
		}
		cfg := Config{
			Address:  addr,
			Home:     wsrf.NewStateHome(jobsets),
			Client:   client,
			NIS:      nis.EPR(),
			Broker:   broker.EPR(),
			Policy:   Greedy{},
			Sharding: &Sharding{Manager: mgr, PeerForShard: peer, RenewInterval: time.Hour},
		}
		if mutate != nil {
			mutate(i, &cfg)
		}
		ss, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		mux := soap.NewMux()
		mux.Handle(ss.WSRF().Path(), ss.WSRF().Dispatcher())
		ss.Consumer().Mount(mux, ss.ConsumerPath())
		network.Register(fmt.Sprintf("m%d", i+1), transport.NewServer(mux))
		ss.StartSharding(ctx)
		h.masters = append(h.masters, ss)
		h.mgrs = append(h.mgrs, mgr)
	}

	for _, name := range nodeNames {
		n, err := node.New(node.Config{
			Name:     name,
			Network:  network,
			Client:   client,
			Cores:    2,
			SpeedMHz: 2000,
			UnitTime: 5 * time.Microsecond,
			Broker:   broker.EPR(),
			NIS:      nis.EPR(),
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := n.Register(context.Background()); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(n.Stop)
	}

	files := filesystem.NewFileServer("/files")
	consumer := wsn.NewConsumer()
	h.events = consumer.Channel(wsn.MustTopicExpression(wsn.DialectFull, "*//"), 128)
	clientMux := soap.NewMux()
	files.Mount(clientMux)
	consumer.Mount(clientMux, "/listener")
	network.Register("client", transport.NewServer(clientMux))
	h.files = files
	return h
}

// preferredShards statically assigns shard s to master s mod m.
func preferredShards(self, masters, shards int) []int {
	var out []int
	for s := 0; s < shards; s++ {
		if s%masters == self {
			out = append(out, s)
		}
	}
	return out
}

// nameForShard finds a job-set name hashing into the wanted shard.
func nameForShard(shard, shards int) string {
	for i := 0; ; i++ {
		name := fmt.Sprintf("set-%d", i)
		if lease.ShardOf(name, shards) == shard {
			return name
		}
	}
}

func (h *multiHarness) submitTo(t *testing.T, master *Service, spec *JobSetSpec) (*soap.Envelope, error) {
	t.Helper()
	env := soap.New(SubmitRequest(spec, wsa.NewEPR("inproc://client/files"), wsa.NewEPR("inproc://client/listener")))
	return h.client.Invoke(context.Background(), master.EPR(), ActionSubmit, env)
}

func (h *multiHarness) waitTerminal(t *testing.T, topic string) string {
	t.Helper()
	deadline := time.After(30 * time.Second)
	for {
		select {
		case n := <-h.events:
			segs := strings.Split(n.Topic, "/")
			if len(segs) == 3 && segs[0] == topic && segs[1] == "jobset" {
				return segs[2]
			}
		case <-deadline:
			t.Fatal("no terminal job-set event")
		}
	}
}

// TestSubmitWrongShardRedirects is the satellite regression: a Submit
// against the wrong master must come back as a typed WrongShardFault
// carrying the owner's endpoint, and resubmitting there must succeed.
func TestSubmitWrongShardRedirects(t *testing.T) {
	const shards = 2
	h := newMultiHarness(t, shards, "node-a")
	h.files.Publish("j.app", procspawn.BuildScript("exit 0"))

	// Shard 1 is master 2's; submit its set to master 1.
	name := nameForShard(1, shards)
	spec := &JobSetSpec{Name: name, Jobs: []JobSpec{{Name: "j", Executable: "local://j.app"}}}
	_, err := h.submitTo(t, h.masters[0], spec)
	if err == nil {
		t.Fatal("submit to non-owner succeeded")
	}
	bf, ok := wsrf.BaseFaultFromError(err)
	if !ok || bf.ErrorCode != WrongShardFaultCode {
		t.Fatalf("want WrongShardFault, got %v", err)
	}
	owner, ok := RedirectTarget(err)
	if !ok {
		t.Fatalf("fault carries no redirect target: %v", err)
	}
	if want := h.masters[1].EPR().Address; owner.Address != want {
		t.Fatalf("redirect to %q, want %q", owner.Address, want)
	}

	// Following the redirect lands on the owner and runs to completion.
	env := soap.New(SubmitRequest(spec, wsa.NewEPR("inproc://client/files"), wsa.NewEPR("inproc://client/listener")))
	resp, err := h.client.Invoke(context.Background(), owner, ActionSubmit, env)
	if err != nil {
		t.Fatalf("submit to owner: %v", err)
	}
	_, topic, err := ParseSubmitResponse(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if got := h.waitTerminal(t, topic); got != "completed" {
		t.Fatalf("terminal event %q", got)
	}
}

// TestLostLeaseParksRunAndPeerRecovers drives the failover sequence at
// the scheduler layer with a controlled clock: master 1's lease on
// shard 0 lapses, master 2 claims it, master 1 parks the run (no more
// dispatches, no more document writes), and master 2's RecoverShard
// finishes the set.
func TestLostLeaseParksRunAndPeerRecovers(t *testing.T) {
	const shards = 2
	h := newMultiHarness(t, shards, "node-a", "node-b")
	h.files.Publish("a.app", procspawn.BuildScript("write out.txt hello", "exit 0"))
	h.files.Publish("b.app", procspawn.BuildScript("read in.txt", "exit 0"))

	name := nameForShard(0, shards)
	spec := &JobSetSpec{Name: name, Jobs: []JobSpec{
		{Name: "a", Executable: "local://a.app", Outputs: []string{"out.txt"}},
		{Name: "b", Executable: "local://b.app",
			Inputs: []FileSpec{{LocalName: "in.txt", Source: "a://out.txt"}}},
	}}
	resp, err := h.submitTo(t, h.masters[0], spec)
	if err != nil {
		t.Fatalf("submit to owner: %v", err)
	}
	_, topic, err := ParseSubmitResponse(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if got := h.waitTerminal(t, topic); got != "completed" {
		t.Fatalf("terminal event %q", got)
	}

	// Reset the set to Running with one job undone, as if master 1
	// crashed mid-set, then lapse its lease and hand the shard over.
	id := strings.TrimPrefix(topic, "jobset-")
	waitNotified(t, h.masters[0], id)
	if err := h.masters[0].WSRF().UpdateResource(id, func(doc *xmlutil.Element) error {
		doc.Child(QStatus).Text = SetRunning
		doc.SetAttr(qNotifiedAttr, "")
		for _, st := range doc.ChildrenNamed(QJobState) {
			if st.Attr(qNameAttr) == "b" {
				st.SetAttr(qStatusAttr, JobPending)
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	h.clock.Advance(2 * time.Minute) // lease TTL + grace
	if h.masters[0].ownsSet(name) {
		t.Fatal("master 1 still claims ownership after expiry")
	}
	// The peer claims the orphan first; only then does the old owner's
	// maintenance tick run (an unclaimed expired lease would otherwise
	// simply renew — the shard was still nobody else's).
	if _, ok, err := h.mgrs[1].Acquire(0); !ok || err != nil {
		t.Fatalf("master 2 claim of orphaned shard: ok=%v err=%v", ok, err)
	}
	m1lost := false
	h.mgrs[0].Tick(lease.Hooks{OnLost: func(shard int, _ uint64) {
		if shard == 0 {
			m1lost = true
			h.masters[0].parkShard(0)
		}
	}})
	if !m1lost {
		t.Fatal("master 1 did not observe its lost lease")
	}
	if h.masters[0].sets.live(topic) != nil {
		t.Fatal("parked run still registered on master 1")
	}
	resumed, err := h.masters[1].RecoverShard(context.Background(), 0)
	if err != nil {
		t.Fatalf("RecoverShard: %v", err)
	}
	if resumed != 1 {
		t.Fatalf("resumed %d sets, want 1", resumed)
	}
	if got := h.waitTerminal(t, topic); got != "completed" {
		t.Fatalf("recovered terminal event %q", got)
	}

	// And a fresh submit for that shard now belongs to master 2.
	spec2 := &JobSetSpec{Name: nameForShard(0, shards) + "x", Jobs: []JobSpec{{Name: "a", Executable: "local://a.app"}}}
	if lease.ShardOf(spec2.Name, shards) == 0 {
		if _, err := h.submitTo(t, h.masters[0], spec2); err == nil {
			t.Fatal("fenced master accepted a submit for its lost shard")
		}
	}
}
