package master_test

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"uvacg/internal/admission"
	"uvacg/internal/master"
	"uvacg/internal/resourcedb"
	"uvacg/internal/services/scheduler"
	"uvacg/internal/soap"
	"uvacg/internal/transport"
	"uvacg/internal/wsa"
	"uvacg/internal/xmlutil"
)

// admissionLedger records queue events in commit order.
type admissionLedger struct {
	mu     sync.Mutex
	events []admission.Event
}

func (l *admissionLedger) note(ev admission.Event) {
	l.mu.Lock()
	l.events = append(l.events, ev)
	l.mu.Unlock()
}

func (l *admissionLedger) snapshot() []admission.Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]admission.Event(nil), l.events...)
}

// incarnation assembles a master with an admission queue over store and
// puts it on the network as "master".
func incarnation(t *testing.T, network *transport.Network, client *transport.Client, store *resourcedb.Store, observe func(admission.Event)) *master.Master {
	t.Helper()
	m, err := master.Assemble(master.Config{
		Address: "inproc://master",
		Store:   store,
		Client:  client,
		Scheduler: scheduler.Config{
			Admission: admission.New(admission.Config{Observer: observe}),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	network.Deregister("master")
	network.Register("master", transport.NewServer(m.Mux))
	return m
}

// TestStartRecoversBeforeAdmissionPump pins the start order: every
// journaled Queued set is back in the admission queue before the pump
// draws its first one. The first incarnation is never started, so its
// acked submissions stay parked in the journal — a master killed between
// enqueue and activation. The second comes up over the same store through
// Start, the call gridmaster, core.NewGrid and simgrid's RestartMaster
// all make.
func TestStartRecoversBeforeAdmissionPump(t *testing.T) {
	network := transport.NewNetwork()
	client := transport.NewClient().WithNetwork(network)
	store := resourcedb.NewStore()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	const sets = 8
	first := incarnation(t, network, client, store, nil)
	for i := 0; i < sets; i++ {
		spec := &scheduler.JobSetSpec{Name: fmt.Sprintf("set-%d", i), Jobs: []scheduler.JobSpec{
			{Name: "only", Executable: "local://only.app"},
		}}
		env := soap.New(scheduler.SubmitRequest(spec, wsa.NewEPR("inproc://client/files"), wsa.EndpointReference{}))
		if _, err := client.Invoke(ctx, first.Scheduler.EPR(), scheduler.ActionSubmit, env); err != nil {
			t.Fatal(err)
		}
	}

	var ledger admissionLedger
	second := incarnation(t, network, client, store, ledger.note)
	resumed, err := second.Start(ctx)
	defer second.Stop()
	if err != nil {
		t.Fatal(err)
	}
	if resumed != sets {
		t.Fatalf("Start re-parked %d set(s), want %d", resumed, sets)
	}

	// The pump does run — wait for its first draw — and everything it
	// found in the queue was put there first.
	var events []admission.Event
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		events = ledger.snapshot()
		if len(events) > sets {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("admission pump never drew a set: %d event(s)", len(events))
		}
	}
	for i, ev := range events[:sets] {
		if ev.Kind != admission.EventEnqueue {
			t.Fatalf("event %d is kind %d (%s): the pump ran before recovery had re-parked all %d sets", i, ev.Kind, ev.Name, sets)
		}
	}
	if events[sets].Kind != admission.EventDequeue {
		t.Fatalf("event %d is kind %d, want the pump's first dequeue", sets, events[sets].Kind)
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
			first := incarnation(t, network, client, old.Store, nil) // never started: the set stays Queued
			spec := &scheduler.JobSetSpec{Name: "kept", Jobs: []scheduler.JobSpec{{Name: "only", Executable: "local://only.app"}}}
			env := soap.New(scheduler.SubmitRequest(spec, wsa.NewEPR("inproc://client/files"), wsa.EndpointReference{}))
			if _, err := client.Invoke(ctx, first.Scheduler.EPR(), scheduler.ActionSubmit, env); err != nil {
				t.Fatal(err)
			}
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
			second := incarnation(t, network, client, reopened.Store, nil)
			resumed, err := second.Start(ctx)
			defer second.Stop()
			if resumed != 1 || err != nil {
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
	assemble := func(store *resourcedb.Store) *master.Master {
		m, err := master.Assemble(master.Config{Address: "inproc://master", Store: store, Client: client})
		if err != nil {
			t.Fatal(err)
		}
		network.Deregister("master")
		network.Register("master", transport.NewServer(m.Mux))
		return m
	}
	// awaitAttempts waits until the set's one job has used n retries: no
	// machine is registered, so every dispatch fails and the next waits an
	// hour, with the set still Running.
	awaitAttempts := func(m *master.Master, n int) {
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

	old, err := resourcedb.OpenDurable(dir, resourcedb.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	first := assemble(old.Store)
	spec := &scheduler.JobSetSpec{Name: "running", Jobs: []scheduler.JobSpec{{
		Name: "only", Executable: "local://only.app",
		Retry: scheduler.RetryPolicy{Limit: 5, Backoff: time.Hour},
	}}}
	env := soap.New(scheduler.SubmitRequest(spec, wsa.NewEPR("inproc://client/files"), wsa.EndpointReference{}))
	if _, err := client.Invoke(ctx, first.Scheduler.EPR(), scheduler.ActionSubmit, env); err != nil {
		t.Fatal(err)
	}
	awaitAttempts(first, 1)
	// One row as the replicator journaled it: a blob's holder set, keyed
	// by the blob's SHA-256.
	holders := xmlutil.NewContainer(xmlutil.Q("urn:uvacg:fss", "ReplicaState"),
		xmlutil.NewElement(xmlutil.Q("urn:uvacg:fss", "Holder"), "http://localhost:8701/FileSystemService"),
		xmlutil.NewElement(xmlutil.Q("urn:uvacg:fss", "Holder"), "http://localhost:8702/FileSystemService"))
	holders.SetAttr(xmlutil.Q("", "size"), "524288")
	if err := old.Store.MustTable("replicas", resourcedb.BlobCodec{}).Put(strings.Repeat("5e", 32), holders); err != nil {
		t.Fatal(err)
	}
	first.Stop()
	if err := old.Close(); err != nil {
		t.Fatal(err)
	}

	reopened, err := resourcedb.OpenDurable(dir, resourcedb.DurableOptions{})
	if err != nil {
		t.Fatalf("the old data dir does not open: %v", err)
	}
	defer reopened.Close()
	second := assemble(reopened.Store)
	resumed, err := second.Start(ctx)
	defer second.Stop()
	if resumed != 1 || err != nil {
		t.Fatalf("Start over the old data dir resumed %d set(s), err %v; want 1", resumed, err)
	}
	awaitAttempts(second, 2)
}
