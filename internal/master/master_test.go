package master_test

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"uvacg/internal/master"
	"uvacg/internal/node"
	"uvacg/internal/procspawn"
	"uvacg/internal/resourcedb"
	"uvacg/internal/services/execution"
	"uvacg/internal/services/filesystem"
	"uvacg/internal/services/scheduler"
	"uvacg/internal/soap"
	"uvacg/internal/transport"
	"uvacg/internal/wal"
	"uvacg/internal/wsa"
	"uvacg/internal/wsn"
	"uvacg/internal/wsrf"
	"uvacg/internal/xmlutil"
)

// assemble builds a master over store and puts it on the network as
// "master", in place of any earlier incarnation.
func assemble(t *testing.T, network *transport.Network, client *transport.Client, store *resourcedb.Store, ss scheduler.Config) *master.Master {
	t.Helper()
	m, err := master.Assemble(master.Config{Address: "inproc://master", Store: store, Client: client, Scheduler: ss})
	if err != nil {
		t.Fatal(err)
	}
	network.Deregister("master")
	network.Register("master", transport.NewServer(m.Mux))
	return m
}

// submitStillRunning submits a one-job set that stays Running: no machine
// is registered, so every dispatch fails once its wait for a renewal ends,
// and the next waits an hour.
func submitStillRunning(t *testing.T, ctx context.Context, client *transport.Client, m *master.Master, name string) {
	t.Helper()
	spec := &scheduler.JobSetSpec{Name: name, Jobs: []scheduler.JobSpec{{
		Name: "only", Executable: "local://only.app",
		Retry: scheduler.RetryPolicy{Limit: 5, Backoff: time.Hour},
	}}}
	env := soap.New(scheduler.SubmitRequest(spec, wsa.NewEPR("inproc://client/files"), wsa.EndpointReference{}))
	if _, err := client.Invoke(ctx, m.Scheduler.EPR(), scheduler.ActionSubmit, env); err != nil {
		t.Fatal(err)
	}
}

// awaitAttempts waits until the set's one job has used n retries while the
// set is still Running.
func awaitAttempts(t *testing.T, m *master.Master, n int) {
	t.Helper()
	home := m.Scheduler.WSRF().Home()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		for _, id := range home.IDs() {
			if doc, err := home.Load(id); err == nil {
				v := scheduler.ParseJobSetDocument(doc)
				if j := v.Job("only"); j != nil && j.Attempt >= n && v.Status == scheduler.SetRunning {
					return
				}
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("the set never reached %d journaled attempt(s) while Running", n)
		}
	}
}

// ssSubscriptions counts the broker's subscriptions whose consumer is the
// scheduler's.
func ssSubscriptions(t *testing.T, m *master.Master) int {
	t.Helper()
	home := m.Broker.Producer().SubscriptionService().Home()
	n := 0
	for _, id := range home.IDs() {
		doc, err := home.Load(id)
		if err != nil {
			t.Fatal(err)
		}
		consumer, err := wsa.ParseEPR(doc.Child(xmlutil.Q(wsn.NS, "ConsumerReference")))
		if err != nil {
			t.Fatal(err)
		}
		if consumer.Address == m.Scheduler.ConsumerEPR().Address {
			n++
		}
	}
	return n
}

// TestOneStandingSchedulerSubscription: Assemble subscribes the
// scheduler's consumer to every set once, and no set adds another — the
// broker holds exactly one subscription for it after several Submits, and
// still one after the host is reassembled twice over the same store.
func TestOneStandingSchedulerSubscription(t *testing.T) {
	network := transport.NewNetwork()
	client := transport.NewClient().WithNetwork(network)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	store := resourcedb.NewStore()
	m := assemble(t, network, client, store, scheduler.Config{})
	if got := ssSubscriptions(t, m); got != 1 {
		t.Fatalf("an assembled master's broker holds %d subscriptions for the scheduler, want 1", got)
	}
	for i := range 3 {
		submitStillRunning(t, ctx, client, m, fmt.Sprint("set-", i))
	}
	if got := ssSubscriptions(t, m); got != 1 {
		t.Fatalf("after 3 sets the broker holds %d subscriptions for the scheduler, want 1", got)
	}
	for restart := 1; restart <= 2; restart++ {
		m = assemble(t, network, client, store, scheduler.Config{})
		if got := ssSubscriptions(t, m); got != 1 {
			t.Fatalf("reassembly %d: the broker holds %d subscriptions for the scheduler, want 1", restart, got)
		}
	}
}

// TestDataDirWithALeasesTableStillOpens: a -data-dir written by a
// gridmaster that still had -peers carries a "leases" table beside its job
// sets. It opens like one without: replay creates tables by name, nothing
// reads that one, and the sets the journal holds are recovered — there is
// no migration to run.
func TestDataDirWithALeasesTableStillOpens(t *testing.T) {
	for _, leases := range []bool{false, true} {
		t.Run(fmt.Sprintf("leases=%v", leases), func(t *testing.T) {
			network := transport.NewNetwork()
			client := transport.NewClient().WithNetwork(network)
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			dir := t.TempDir()

			old, err := resourcedb.OpenDurable(dir, resourcedb.DurableOptions{})
			if err != nil {
				t.Fatal(err)
			}
			first := assemble(t, network, client, old.Store, scheduler.Config{})
			submitStillRunning(t, ctx, client, first, "kept")
			awaitAttempts(t, first, 1)
			if leases {
				row := xmlutil.NewContainer(xmlutil.Q("urn:uvacg:lease", "Lease"),
					xmlutil.NewElement(xmlutil.Q("urn:uvacg:lease", "Owner"), "http://localhost:8700/SchedulerService"),
					xmlutil.NewElement(xmlutil.Q("urn:uvacg:lease", "Epoch"), "1"))
				if err := old.Store.MustTable("leases", resourcedb.BlobCodec{}).Put("0", row); err != nil {
					t.Fatal(err)
				}
			}
			if err := old.Close(); err != nil {
				t.Fatal(err)
			}

			reopened, err := resourcedb.OpenDurable(dir, resourcedb.DurableOptions{})
			if err != nil {
				t.Fatalf("the old data dir does not open: %v", err)
			}
			defer reopened.Close()
			second := assemble(t, network, client, reopened.Store, scheduler.Config{})
			if resumed, err := second.Start(ctx); resumed != 1 || err != nil {
				t.Fatalf("Start over the old data dir recovered %d set(s), err %v; want 1", resumed, err)
			}
		})
	}
}

// TestDataDirWithAReplicasTableResumesRunningSets: a -data-dir written by
// a gridmaster that still ran with -replicas carries a "replicas" journal
// of holder sets beside its job sets. It opens like one without, and the
// set it left Running is resumed and dispatched again.
func TestDataDirWithAReplicasTableResumesRunningSets(t *testing.T) {
	network := transport.NewNetwork()
	client := transport.NewClient().WithNetwork(network)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	dir := t.TempDir()

	old, err := resourcedb.OpenDurable(dir, resourcedb.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	first := assemble(t, network, client, old.Store, scheduler.Config{})
	submitStillRunning(t, ctx, client, first, "running")
	awaitAttempts(t, first, 1)
	// One row as the replicator journaled it: a blob's holder set, keyed
	// by the blob's SHA-256.
	holders := xmlutil.NewContainer(xmlutil.Q("urn:uvacg:fss", "ReplicaState"),
		xmlutil.NewElement(xmlutil.Q("urn:uvacg:fss", "Holder"), "http://localhost:8701/FileSystemService"),
		xmlutil.NewElement(xmlutil.Q("urn:uvacg:fss", "Holder"), "http://localhost:8702/FileSystemService"))
	holders.SetAttr(xmlutil.Q("", "size"), "524288")
	if err := old.Store.MustTable("replicas", resourcedb.BlobCodec{}).Put(strings.Repeat("5e", 32), holders); err != nil {
		t.Fatal(err)
	}
	if err := old.Close(); err != nil {
		t.Fatal(err)
	}

	reopened, err := resourcedb.OpenDurable(dir, resourcedb.DurableOptions{})
	if err != nil {
		t.Fatalf("the old data dir does not open: %v", err)
	}
	defer reopened.Close()
	second := assemble(t, network, client, reopened.Store, scheduler.Config{})
	resumed, err := second.Start(ctx)
	if resumed != 1 || err != nil {
		t.Fatalf("Start over the old data dir resumed %d set(s), err %v; want 1", resumed, err)
	}
	awaitAttempts(t, second, 2)
}

// queuedDocument is a job-set document as a gridmaster that ran admission
// control journaled a set it had acked and not yet started: status Queued,
// the submitter's tenant, the set's class and its admission sequence, and
// the job states it had reached — all Pending for a fresh set; for one
// preempted mid-run, what had completed, with its output directory.
func queuedDocument(id, class string, seq int, spec *scheduler.JobSetSpec, done map[string]wsa.EndpointReference) *xmlutil.Element {
	q := func(local string) xmlutil.QName { return xmlutil.Q(scheduler.NS, local) }
	attr := func(local string) xmlutil.QName { return xmlutil.Q("", local) }
	files := wsa.NewEPR("inproc://client/files")
	snapshot := &xmlutil.Element{Name: q("Spec")}
	for _, el := range scheduler.SubmitRequest(spec, wsa.EndpointReference{}, wsa.EndpointReference{}).Children {
		snapshot.Append(el)
		if el.Name == q("Name") {
			snapshot.Append(xmlutil.NewElement(q("Class"), class))
		}
	}
	doc := xmlutil.NewContainer(q("JobSetState"),
		xmlutil.NewElement(q("Name"), spec.Name),
		xmlutil.NewElement(q("Status"), "Queued"),
		snapshot,
		files.ElementNamed(q("ClientFiles")),
	)
	doc.SetAttr(attr("tenant"), "anonymous").SetAttr(attr("class"), class).SetAttr(attr("admitSeq"), fmt.Sprint(seq))
	for _, j := range spec.Jobs {
		st := xmlutil.NewElement(q("JobState"), "").SetAttr(attr("name"), j.Name).SetAttr(attr("status"), scheduler.JobPending)
		if dir, ok := done[j.Name]; ok {
			st.SetAttr(attr("status"), scheduler.JobCompleted).SetAttr(attr("node"), "node-a").
				SetAttr(attr("dir"), dir.String()).SetAttr(attr("exitCode"), "0")
		}
		doc.Append(st)
	}
	doc.Append(xmlutil.NewElement(q("Topic"), "jobset-"+id))
	return doc
}

// TestDataDirWithQueuedSetsRunsThem: a -data-dir written by a gridmaster
// that ran admission control may hold sets it acked Queued and never
// started — one fresh, one preempted back into the queue after its first
// job completed. A master without admission control resumes both like any
// unfinished set and runs them to Completed, and the completed job is not
// run again.
func TestDataDirWithQueuedSetsRunsThem(t *testing.T) {
	network := transport.NewNetwork()
	client := transport.NewClient().WithNetwork(network)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	dir := t.TempDir()

	fresh := &scheduler.JobSetSpec{Name: "fresh", Jobs: []scheduler.JobSpec{{Name: "only", Executable: "local://work.app"}}}
	preempted := &scheduler.JobSetSpec{Name: "preempted", Jobs: []scheduler.JobSpec{
		{Name: "first", Executable: "local://work.app"},
		{Name: "second", Executable: "local://work.app", After: []string{"first"}},
	}}
	firstDir := wsa.NewEPR("inproc://node-a/FileSystemService").WithProperty(wsrf.QResourceID, "first-dir")
	old, err := resourcedb.OpenDurable(dir, resourcedb.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	jobsets := old.Store.MustTable("jobsets", resourcedb.BlobCodec{})
	for id, doc := range map[string]*xmlutil.Element{
		"fresh-1":     queuedDocument("fresh-1", "batch", 2, fresh, nil),
		"preempted-1": queuedDocument("preempted-1", "scavenger", 1, preempted, map[string]wsa.EndpointReference{"first": firstDir}),
	} {
		if err := jobsets.Put(id, doc); err != nil {
			t.Fatal(err)
		}
	}
	if err := old.Close(); err != nil {
		t.Fatal(err)
	}

	files := filesystem.NewFileServer("/files")
	files.Publish("work.app", procspawn.BuildScript("compute 40000", "exit 0"))
	clientMux := soap.NewMux()
	files.Mount(clientMux)
	network.Register("client", transport.NewServer(clientMux))

	reopened, err := resourcedb.OpenDurable(dir, resourcedb.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	// Runs sent, by "topic/job": Run is not idempotent, so the client
	// sends one per dispatch.
	var mu sync.Mutex
	dispatched := make(map[string]int)
	client.Use(func(ctx context.Context, call *soap.CallInfo, next soap.Handler) (*soap.Envelope, error) {
		if call.Action == execution.ActionRun {
			mu.Lock()
			dispatched[call.Request.Body.ChildText(execution.QTopic)+"/"+call.Request.Body.ChildText(execution.QJobName)]++
			mu.Unlock()
		}
		return next(ctx, call)
	})
	m := assemble(t, network, client, reopened.Store, scheduler.Config{})
	n, err := node.New(node.Config{
		Name: "node-a", Network: network, Client: client, Cores: 2, SpeedMHz: 2000, UnitTime: 5 * time.Microsecond,
		Broker: m.Broker.EPR(), NIS: m.NIS.EPR(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Stop()
	if err := n.Register(ctx); err != nil {
		t.Fatal(err)
	}
	if resumed, err := m.Start(ctx); resumed != 2 || err != nil {
		t.Fatalf("Start over the admission master's data dir resumed %d set(s), err %v; want 2", resumed, err)
	}

	home := m.Scheduler.WSRF().Home()
	for done := false; !done; time.Sleep(time.Millisecond) {
		done = true
		for _, id := range []string{"fresh-1", "preempted-1"} {
			doc, err := home.Load(id)
			if err != nil {
				t.Fatal(err)
			}
			v := scheduler.ParseJobSetDocument(doc)
			done = done && v.Status == scheduler.SetCompleted
			if scheduler.TerminalSetStatus(v.Status) && v.Status != scheduler.SetCompleted {
				t.Fatalf("set %s ended %s: %+v", id, v.Status, v.Jobs)
			}
		}
		if ctx.Err() != nil {
			t.Fatal("the Queued sets never completed")
		}
	}
	doc, err := home.Load("preempted-1")
	if err != nil {
		t.Fatal(err)
	}
	v := scheduler.ParseJobSetDocument(doc)
	if got := v.Job("first").Dir; got.String() != firstDir.String() {
		t.Fatalf("the completed job's directory reads %s, want %s", got, firstDir)
	}
	mu.Lock()
	defer mu.Unlock()
	want := map[string]int{"jobset-fresh-1/only": 1, "jobset-preempted-1/second": 1}
	if fmt.Sprint(dispatched) != fmt.Sprint(want) {
		t.Fatalf("dispatched %v, want %v: the completed job must not run again", dispatched, want)
	}
}

// TestCatalogIsNotJournaled: the NIS's members are soft state. A master on
// a journaled store takes Reports and writes no nodeinfo record; a master
// reassembled over that store starts with an empty catalog, which the
// machines' renewals fill.
func TestCatalogIsNotJournaled(t *testing.T) {
	network := transport.NewNetwork()
	client := transport.NewClient().WithNetwork(network)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	dir := t.TempDir()
	store, err := resourcedb.OpenDurable(dir, resourcedb.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m := assemble(t, network, client, store.Store, scheduler.Config{})
	n, err := node.New(node.Config{Name: "win-a", Network: network, Client: client, NIS: m.NIS.EPR()})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Stop()
	if err := n.Register(ctx); err != nil {
		t.Fatal(err)
	}
	if procs, err := m.NIS.Processors(); err != nil || len(procs) != 1 {
		t.Fatalf("catalog after the Report: %+v, %v", procs, err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	tables := make(map[string]int)
	if _, err := wal.Replay(dir, func(rec wal.Record) error {
		tables[rec.Table]++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if tables["nodeinfo"] != 0 || tables["subscriptions"] == 0 {
		t.Fatalf("journaled records by table: %v, want subscriptions and no nodeinfo", tables)
	}

	reopened, err := resourcedb.OpenDurable(dir, resourcedb.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	second := assemble(t, network, client, reopened.Store, scheduler.Config{})
	if procs, err := second.NIS.Processors(); err != nil || len(procs) != 0 {
		t.Fatalf("a reassembled master's catalog before any renewal: %+v, %v", procs, err)
	}
}
