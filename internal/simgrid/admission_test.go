package simgrid

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"uvacg/internal/admission"
	"uvacg/internal/procspawn"
	"uvacg/internal/services/scheduler"
)

// oneJobSpec builds a single-job set running the named app.
func oneJobSpec(name, app string) *scheduler.JobSetSpec {
	return &scheduler.JobSetSpec{Name: name, Jobs: []scheduler.JobSpec{
		{Name: "j", Executable: "local://" + app},
	}}
}

// TestAdmissionTenantStormShedsAndDrains floods an admission-fronted
// master from two authenticated tenants at once, well past the
// per-tenant queued quota. The storm must shed with QueueFullFault
// Retry-After hints (which the submitters honor), every eventually
// acked set must run to terminal, and the admission ledger must balance
// — invariant I6 plus the classic five, checked at quiescence.
func TestAdmissionTenantStormShedsAndDrains(t *testing.T) {
	const perTenant = 12
	tenants := []string{"alice", "bob"}
	c, err := NewCluster(ClusterConfig{
		Seed: 11, Nodes: 2, DataDir: t.TempDir(),
		Admission: &AdmissionConfig{
			TenantQueued:  5,
			TenantRunning: 1,
			RetryAfter:    20 * time.Millisecond,
			Tenants:       map[string]string{"alice": "pw-a", "bob": "pw-b"},
			Weights:       map[string]int{"alice": 2, "bob": 1},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Observer.Files.Publish("work.app", procspawn.BuildScript("compute 200000", "exit 0"))

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	sc := &Scenario{}
	specsMu := sync.Mutex{}
	sheds := make(map[string]int, len(tenants))
	var wg sync.WaitGroup
	for _, tenant := range tenants {
		wg.Add(1)
		go func(tenant string) {
			defer wg.Done()
			for i := 0; i < perTenant; i++ {
				spec := oneJobSpec(fmt.Sprintf("%s-set-%d", tenant, i), "work.app")
				specsMu.Lock()
				sc.Sets = append(sc.Sets, spec)
				specsMu.Unlock()
				for attempt := 0; ; attempt++ {
					_, err := c.SubmitAs(ctx, spec, tenant)
					if err == nil {
						break
					}
					if !admission.IsQueueFull(err) || attempt > 100 {
						t.Errorf("tenant %s set %d: %v", tenant, i, err)
						return
					}
					// Backpressure: honor the server's hint and try again.
					hint, ok := admission.RetryAfterHint(err)
					if !ok {
						t.Errorf("QueueFullFault without Retry-After hint: %v", err)
						return
					}
					specsMu.Lock()
					sheds[tenant]++
					specsMu.Unlock()
					time.Sleep(hint)
				}
			}
		}(tenant)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if len(c.Acked()) != perTenant*len(tenants) {
		t.Fatalf("acked %d sets, want %d", len(c.Acked()), perTenant*len(tenants))
	}
	shedTotal := 0
	for _, n := range sheds {
		shedTotal += n
	}
	if shedTotal == 0 {
		t.Fatal("storm never hit the tenant quota — no backpressure exercised")
	}

	if err := c.AwaitQuiescence(45 * time.Second); err != nil {
		t.Fatalf("storm never drained: %v", err)
	}
	time.Sleep(200 * time.Millisecond)
	for _, v := range CheckInvariants(c, sc) {
		t.Error(v)
	}
	// Every eventual ack is accounted: per tenant, ledger enqueues equal
	// the sets submitted and every one was dequeued.
	st, ok := c.Scheduler().AdmissionStats()
	if !ok {
		t.Fatal("admission-enabled master reports no stats")
	}
	if st.Depth != 0 || int(st.Dequeues) != perTenant*len(tenants) {
		t.Fatalf("queue stats at quiescence: %+v", st)
	}
	for _, ts := range st.Tenants {
		if ts.Queued != 0 || ts.Running != 0 || int(ts.Dequeues) != perTenant {
			t.Fatalf("tenant %s stats at quiescence: %+v", ts.Tenant, ts)
		}
	}
}

// TestAdmissionCrashMidEnqueueReplaysQueuedSets is the I6 durability
// drill: a burst of submissions is acked Queued, the master is killed
// with most of them still parked, and the restarted master must rebuild
// its queue from the journaled documents and run every acked set to
// terminal — zero lost acked enqueues.
func TestAdmissionCrashMidEnqueueReplaysQueuedSets(t *testing.T) {
	const sets = 6
	c, err := NewCluster(ClusterConfig{
		Seed: 12, Nodes: 1, DataDir: t.TempDir(),
		// Anonymous submissions: authenticated ones are "secured" and by
		// design cannot survive a restart (credentials are never
		// persisted), which would turn this drill into a failure test.
		Admission: &AdmissionConfig{TenantRunning: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Observer.Files.Publish("work.app", procspawn.BuildScript("compute 200000", "exit 0"))

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	sc := &Scenario{}
	for i := 0; i < sets; i++ {
		spec := oneJobSpec(fmt.Sprintf("crashq-%d", i), "work.app")
		sc.Sets = append(sc.Sets, spec)
		if _, err := c.Submit(ctx, spec); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	// The running cap serializes activation, so the burst is still
	// parked when the master dies.
	queued := 0
	for _, v := range c.JobSetDocs() {
		if v.Status == scheduler.SetQueued {
			queued++
		}
	}
	if queued == 0 {
		t.Fatal("no set was still Queued at crash time — the drill lost its teeth")
	}
	c.CrashMaster()
	time.Sleep(50 * time.Millisecond)
	restartMaster(t, ctx, c)

	if err := c.AwaitQuiescence(30 * time.Second); err != nil {
		t.Fatalf("replayed queue never drained: %v", err)
	}
	time.Sleep(200 * time.Millisecond)
	for _, v := range CheckInvariants(c, sc) {
		t.Error(v)
	}
	terminal := c.Observer.TerminalSets()
	for _, ack := range c.Acked() {
		if !terminal[ack.Topic] {
			t.Errorf("acked queued set %s (topic %s) lost across the crash", ack.Name, ack.Topic)
		}
	}
}
