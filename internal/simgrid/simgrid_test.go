package simgrid

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"uvacg/internal/procspawn"
	"uvacg/internal/services/scheduler"
)

// Replay knobs: `go test ./internal/simgrid -chaos.seed=N` re-runs one
// failing scenario; -chaos.count widens or narrows the sweep.
var (
	chaosSeed  = flag.Int64("chaos.seed", 0, "run only this scenario seed (0 = sweep)")
	chaosCount = flag.Int("chaos.count", 25, "number of scenario seeds to sweep")
	chaosBase  = flag.Int64("chaos.base", 1, "first seed of the sweep")
)

// TestChaosScenarios is the property suite: randomized DAGs × fault
// schedules, the invariants checked per run, reproducing seed printed
// on failure.
func TestChaosScenarios(t *testing.T) {
	seeds := make([]int64, 0, *chaosCount)
	if *chaosSeed != 0 {
		seeds = append(seeds, *chaosSeed)
	} else {
		for s := *chaosBase; s < *chaosBase+int64(*chaosCount); s++ {
			seeds = append(seeds, s)
		}
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			res := RunSeed(seed, RunOptions{Dir: t.TempDir()})
			if res.Err != nil {
				t.Fatalf("seed %d: harness error: %v\nreplay: go test ./internal/simgrid -run 'TestChaosScenarios' -chaos.seed=%d\ntranscript:\n%s",
					seed, res.Err, seed, res.Transcript)
			}
			for _, v := range res.Violations {
				t.Errorf("seed %d: %s", seed, v)
			}
			if t.Failed() {
				t.Logf("replay: go test ./internal/simgrid -run 'TestChaosScenarios' -chaos.seed=%d\ntranscript:\n%s",
					seed, res.Transcript)
			}
		})
	}
}

// TestScenarioDeterminism pins the replay contract: generating a seed
// twice yields byte-identical transcripts, and a full run reports the
// transcript it was generated from (before whatever the run itself noted).
func TestScenarioDeterminism(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		a, b := Generate(seed).Transcript(), Generate(seed).Transcript()
		if a != b {
			t.Fatalf("seed %d: transcripts differ:\n%s\n---\n%s", seed, a, b)
		}
	}
	res := RunSeed(7, RunOptions{Dir: t.TempDir()})
	if !strings.HasPrefix(res.Transcript, Generate(7).Transcript()) {
		t.Fatal("RunSeed transcript diverges from Generate")
	}
}

// restartMaster brings the crashed master back, which a drill cannot go
// on without; what it could not resume is the drill's to find out.
func restartMaster(t *testing.T, ctx context.Context, c *Cluster) {
	t.Helper()
	unresumed, err := c.RestartMaster(ctx)
	if err != nil {
		t.Fatalf("the master did not come back: %v", err)
	}
	if unresumed != nil {
		t.Logf("recover reported: %v", unresumed)
	}
}

// TestRestartOverUnopenableStoreIsAHarnessError: a master whose store
// refuses to reopen after its crash never comes back. The run must say
// that, with the cause, and not blame the product for the sets left
// unfinished (it used to read "I1: set not terminal").
func TestRestartOverUnopenableStoreIsAHarnessError(t *testing.T) {
	const seed = 50 // crash master at=111ms restart=1.297s: room for the sabotage
	if !strings.Contains(Generate(seed).Transcript(), "crash "+MasterHost) {
		t.Fatalf("seed %d no longer crashes the master", seed)
	}
	dir := t.TempDir()
	done := make(chan struct{})
	sabotaged := make(chan error, 1)
	go func() {
		// Once the first incarnation has its store open, a directory goes
		// where its snapshot would: the running store never looks there
		// again, the reopening one cannot load it.
		master := filepath.Join(dir, MasterHost)
		for {
			if segs, _ := filepath.Glob(filepath.Join(master, "wal-*.log")); len(segs) > 0 {
				sabotaged <- os.Mkdir(filepath.Join(master, "snapshot.db"), 0o755)
				return
			}
			select {
			case <-done:
				sabotaged <- fmt.Errorf("the master never opened a store under %s", master)
				return
			case <-time.After(time.Millisecond):
			}
		}
	}()
	res := RunSeed(seed, RunOptions{Dir: dir})
	close(done)
	if err := <-sabotaged; err != nil {
		t.Fatal(err)
	}
	if res.Err == nil || !strings.Contains(res.Err.Error(), "snapshot") || len(res.Violations) != 0 {
		t.Fatalf("harness error %v, violations %v; want the store's refusal and no violation", res.Err, res.Violations)
	}
}

// TestMasterCrashRecoversAckedSet drives the sharpest I3/I4 edge
// deliberately rather than waiting for the sweep to find it: a set is
// acked, the master dies mid-run, and after recovery the set still
// exists, terminates, and its terminal event reaches the listener.
func TestMasterCrashRecoversAckedSet(t *testing.T) {
	c, err := NewCluster(ClusterConfig{Seed: 99, Nodes: 2, DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Observer.Files.Publish("a.app", procspawn.BuildScript("compute 200000", "write out.txt ok", "exit 0"))
	c.Observer.Files.Publish("b.app", procspawn.BuildScript("read in_a.txt", "exit 0"))
	spec := &scheduler.JobSetSpec{Name: "crashset", Jobs: []scheduler.JobSpec{
		{Name: "a", Executable: "local://a.app", Outputs: []string{"out.txt"}},
		{Name: "b", Executable: "local://b.app",
			Inputs: []scheduler.FileSpec{{LocalName: "in_a.txt", Source: "a://out.txt"}}},
	}}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	ack, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}

	c.CrashMaster()
	time.Sleep(50 * time.Millisecond)
	restartMaster(t, ctx, c)

	if err := c.AwaitQuiescence(30 * time.Second); err != nil {
		t.Fatalf("cluster never quiesced: %v", err)
	}
	time.Sleep(200 * time.Millisecond)

	found := false
	for _, v := range c.JobSetDocs() {
		if v.Topic == ack.Topic {
			found = true
			if !scheduler.TerminalSetStatus(v.Status) {
				t.Fatalf("recovered set status %q", v.Status)
			}
		}
	}
	if !found {
		t.Fatalf("acked set (topic %s) lost across master crash", ack.Topic)
	}
	if !c.Observer.TerminalSets()[ack.Topic] {
		t.Fatal("no terminal notification after crash recovery")
	}
}

// TestPartitionedNodeFailsSetNotHangs: a machine cut off from the master
// cannot report exits; the watchdog must fail the set instead of letting
// it hang (I1 under partition, pinned explicitly).
func TestPartitionedNodeFailsSetNotHangs(t *testing.T) {
	c, err := NewCluster(ClusterConfig{Seed: 42, Nodes: 1, DataDir: t.TempDir(), JobTimeout: 300 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Observer.Files.Publish("slow.app", procspawn.BuildScript("compute 100000000", "exit 0"))
	spec := &scheduler.JobSetSpec{Name: "cut", Jobs: []scheduler.JobSpec{
		{Name: "slow", Executable: "local://slow.app"},
	}}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := c.Submit(ctx, spec); err != nil {
		t.Fatal(err)
	}
	// Give dispatch a moment to land on the node, then cut the wire both
	// ways so the exit event can never arrive.
	time.Sleep(100 * time.Millisecond)
	c.Chaos.Enable(true)
	c.Chaos.PartitionBoth("node-1", MasterHost)

	if err := c.AwaitQuiescence(20 * time.Second); err != nil {
		t.Fatalf("partitioned set hung: %v", err)
	}
	for _, v := range c.JobSetDocs() {
		if v.Topic != "" && v.Status == scheduler.SetCompleted {
			t.Fatalf("set %s completed despite partition", v.Name)
		}
	}
}

// docFor projects one set's persisted document by topic.
func docFor(c *Cluster, topic string) (scheduler.JobSetView, bool) {
	for _, v := range c.JobSetDocs() {
		if v.Topic == topic {
			return v, true
		}
	}
	return scheduler.JobSetView{}, false
}

// waitDocStatus polls the persisted job-set document until it reaches
// the wanted status.
func waitDocStatus(t *testing.T, c *Cluster, topic, want string, deadline time.Duration) scheduler.JobSetView {
	t.Helper()
	end := time.Now().Add(deadline)
	for {
		if v, ok := docFor(c, topic); ok && v.Status == want {
			return v
		}
		if time.Now().After(end) {
			v, _ := docFor(c, topic)
			t.Fatalf("set %s stuck at %q, want %q", topic, v.Status, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestBrokerFaultedTerminalPublishRecovers drives the I4 edge the
// notified-marker fix exists for, in two fault windows. First the
// master's co-located broker eats everything the master sends it — the
// acked terminal publish of the failing set included — so the set must
// NOT be stamped notified and the listener must see nothing. Then the
// fault narrows to one-way sends only, and the next set's acked terminal
// publish goes through and IS stamped — the marker tracks actual delivery
// per set. A master restart after the broker heals must replay the
// starved set's terminal event to the listener.
func TestBrokerFaultedTerminalPublishRecovers(t *testing.T) {
	c, err := NewCluster(ClusterConfig{
		Seed: 41, Nodes: 2, DataDir: t.TempDir(),
		JobTimeout: 800 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Observer.Files.Publish("long.app", procspawn.BuildScript("compute 500000000", "exit 0"))
	c.Observer.Files.Publish("quick.app", procspawn.BuildScript("exit 0"))
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	wedge, err := c.Submit(ctx, &scheduler.JobSetSpec{Name: "wedge", Jobs: []scheduler.JobSpec{
		{Name: "long", Executable: "local://long.app"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the job is running so the watchdog is armed.
	started := func() bool {
		for _, ev := range c.Observer.Events() {
			if ev.Set == wedge.Topic && ev.Kind == "started" {
				return true
			}
		}
		return false
	}
	for end := time.Now().Add(15 * time.Second); !started(); {
		if time.Now().After(end) {
			t.Fatal("wedge job never started")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Window 1: the master's co-located broker eats every message from
	// the master. The Src filter leaves node → broker job events flowing,
	// and the path scoping leaves Submit (scheduler path) and the broker's
	// deliveries out of it.
	c.Chaos.SetTarget(MasterHost, "/NotificationBroker",
		TargetRule{Src: MasterHost, Faults: RouteFaults{Drop: 1}})
	c.Chaos.Enable(true)

	// The watchdog fails the set; its terminal publish is dropped, so
	// the notified marker must stay off and the listener sees nothing.
	view := waitDocStatus(t, c, wedge.Topic, scheduler.SetFailed, 15*time.Second)
	if view.Notified {
		t.Fatal("terminal publish was dropped but the set is stamped notified")
	}
	if c.Observer.TerminalSets()[wedge.Topic] {
		t.Fatal("listener saw a terminal event the broker never accepted")
	}

	// Window 2: the fault narrows to one-way sends; the new set's
	// subscription and acked terminal publish are round trips and go
	// through.
	c.Chaos.SetTarget(MasterHost, "/NotificationBroker",
		TargetRule{Src: MasterHost, OneWayOnly: true, Faults: RouteFaults{Drop: 1}})
	quick, err := c.Submit(ctx, &scheduler.JobSetSpec{Name: "fallback", Jobs: []scheduler.JobSpec{
		{Name: "q", Executable: "local://quick.app"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	view = waitDocStatus(t, c, quick.Topic, scheduler.SetCompleted, 15*time.Second)
	// The marker is stamped after the publish returns; give it a beat.
	for end := time.Now().Add(5 * time.Second); !view.Notified; view, _ = docFor(c, quick.Topic) {
		if time.Now().After(end) {
			t.Fatal("acked terminal publish went through but the set is not stamped notified")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Broker heals; a restarted master replays the starved set's
	// terminal event (the fallback set was already delivered).
	c.Chaos.ClearTarget(MasterHost, "/NotificationBroker")
	c.CrashMaster()
	time.Sleep(50 * time.Millisecond)
	restartMaster(t, ctx, c)
	for end := time.Now().Add(20 * time.Second); ; {
		terminal := c.Observer.TerminalSets()
		if terminal[wedge.Topic] && terminal[quick.Topic] {
			break
		}
		if time.Now().After(end) {
			t.Fatalf("terminal events after recovery: %v", terminal)
		}
		time.Sleep(20 * time.Millisecond)
	}
	for _, topic := range []string{wedge.Topic, quick.Topic} {
		if v, ok := docFor(c, topic); !ok || !v.Notified {
			t.Fatalf("set %s not stamped notified after replay (found=%v)", topic, ok)
		}
	}
}

// TestHundredsOfNodes scales the harness to the paper's "grid" claim: 160
// execution machines joining in parallel and a batch of sets — everything
// registers, dispatches and completes.
func TestHundredsOfNodes(t *testing.T) {
	if testing.Short() {
		t.Skip("160-node cluster is not a -short test")
	}
	const nodes = 160
	c, err := NewCluster(ClusterConfig{Seed: 14, Nodes: nodes, DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if got := len(c.NodeNames()); got != nodes {
		t.Fatalf("%d machines joined, want %d", got, nodes)
	}
	c.Observer.Files.Publish("quick.app", procspawn.BuildScript("write out.txt ok", "exit 0"))

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var acks []Ack
	for i := 0; i < 6; i++ {
		spec := &scheduler.JobSetSpec{Name: fmt.Sprintf("wide-%d", i), Jobs: []scheduler.JobSpec{
			{Name: "x", Executable: "local://quick.app", Outputs: []string{"out.txt"}},
			{Name: "y", Executable: "local://quick.app", Outputs: []string{"out.txt"}},
			{Name: "z", Executable: "local://quick.app", Outputs: []string{"out.txt"}},
		}}
		ack, err := c.Submit(ctx, spec)
		if err != nil {
			t.Fatalf("submit %s: %v", spec.Name, err)
		}
		acks = append(acks, ack)
	}
	if err := c.AwaitQuiescence(60 * time.Second); err != nil {
		t.Fatalf("wide cluster never quiesced: %v", err)
	}
	for _, ack := range acks {
		if v, ok := docFor(c, ack.Topic); !ok || v.Status != scheduler.SetCompleted {
			t.Fatalf("set %s finished %q", ack.Name, v.Status)
		}
	}
}
