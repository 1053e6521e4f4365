package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"uvacg/internal/master"
	"uvacg/internal/procspawn"
	"uvacg/internal/resourcedb"
	"uvacg/internal/services/execution"
	"uvacg/internal/services/filesystem"
	"uvacg/internal/services/nodeinfo"
	"uvacg/internal/services/scheduler"
	"uvacg/internal/soap"
	"uvacg/internal/transport"
	"uvacg/internal/vfs"
	"uvacg/internal/wsa"
	"uvacg/internal/wsn"
	"uvacg/internal/wsrf"
	"uvacg/internal/wssec"
	"uvacg/internal/xmlutil"
)

var testAccounts = wssec.StaticAccounts{"scientist": "pw"}

func testGrid(t *testing.T, nodes ...NodeSpec) *Grid {
	t.Helper()
	if len(nodes) == 0 {
		nodes = []NodeSpec{
			{Name: "win-a", Cores: 2, SpeedMHz: 2800, RAMMB: 1024},
			{Name: "win-b", Cores: 1, SpeedMHz: 1400, RAMMB: 512},
			{Name: "win-c", Cores: 4, SpeedMHz: 2000, RAMMB: 2048},
		}
	}
	g, err := NewGrid(GridConfig{
		Nodes:    nodes,
		Accounts: testAccounts,
		UnitTime: 5 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	return g
}

func testClient(t *testing.T, g *Grid) *Client {
	t.Helper()
	c, err := g.NewClient(wssec.Credentials{Username: "scientist", Password: "pw"}, false)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func testCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// TestF3_FullScenario walks the paper's Fig. 3 sequence end to end: a
// three-job pipeline with cross-machine data movement, asynchronous
// staging, process spawning under the submitted account, and event
// broadcast through the broker to both the Scheduler and the client.
func TestF3_FullScenario(t *testing.T) {
	g := testGrid(t)
	c := testClient(t, g)
	ctx := testCtx(t)

	c.AddFile("gen.app", Script(
		"compute 20",
		"write data.txt 7 11 13",
		"exit 0",
	))
	c.AddFile("sum.app", Script(
		"read data.txt",
		"compute 20",
		"transform data.txt total.txt sum",
		"exit 0",
	))
	c.AddFile("fmt.app", Script(
		"read total.txt",
		"transform total.txt report.txt copy",
		"exit 0",
	))

	spec := NewJobSet("pipeline").
		Add("gen", Local("gen.app")).Outputs("data.txt").
		Add("sum", Local("sum.app")).Input("data.txt", Output("gen", "data.txt")).Outputs("total.txt").
		Add("fmt", Local("fmt.app")).Input("total.txt", Output("sum", "total.txt")).Outputs("report.txt").
		Spec()

	sub, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(sub.Topic, "jobset-") {
		t.Errorf("topic = %q", sub.Topic)
	}

	status, err := sub.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if status != scheduler.SetCompleted {
		_, detail := sub.Status()
		t.Fatalf("status = %s (%s)", status, detail)
	}

	// The dependency chain's data really flowed: 7+11+13 = 31.
	out, err := sub.FetchOutput(ctx, "fmt", "report.txt")
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "31" {
		t.Fatalf("pipeline result = %q, want 31", out)
	}

	// The client saw the lifecycle events for each job (step 9/10).
	// One-way delivery is unordered, so straggler events may land a
	// moment after jobset/completed: drain with a deadline.
	want := map[string]bool{
		"gen/directory": true, "gen/started": true, "gen/exited": true,
		"sum/exited": true, "fmt/exited": true, "jobset/completed": true,
	}
	kinds := make(map[string]bool)
	deadline := time.After(5 * time.Second)
	for len(want) > 0 {
		select {
		case n := <-sub.Events():
			segs := strings.Split(n.Topic, "/")
			if len(segs) == 3 {
				key := segs[1] + "/" + segs[2]
				kinds[key] = true
				delete(want, key)
			}
		case <-deadline:
			for missing := range want {
				t.Errorf("client never saw event %q (saw %v)", missing, kinds)
			}
			want = nil
		}
	}

	// The job-set WS-Resource reflects completion and placement — the
	// standardized client view of state.
	rc := wsrf.NewResourceClient(g.Client, sub.JobSet)
	if got, err := rc.GetPropertyText(ctx, scheduler.QStatus); err != nil || got != scheduler.SetCompleted {
		t.Fatalf("job set status property = %q %v", got, err)
	}
	states := placedJobStates(t, ctx, rc)
	if len(states) != 3 {
		t.Fatalf("%d job states", len(states))
	}
	for _, st := range states {
		if st.Attr(xmlutil.Q("", "status")) != scheduler.JobCompleted {
			t.Errorf("job %s status %s", st.Attr(xmlutil.Q("", "name")), st.Attr(xmlutil.Q("", "status")))
		}
		if st.Attr(xmlutil.Q("", "node")) == "" {
			t.Errorf("job %s has no node", st.Attr(xmlutil.Q("", "name")))
		}
	}
}

// placedJobStates reads a finished set's JobState elements. Each names its
// node: that is recorded when the job is placed, before its Run is sent,
// so no event of the job — least of all the exit that decides the set —
// can be journaled ahead of it.
func placedJobStates(t *testing.T, ctx context.Context, rc *wsrf.ResourceClient) []*xmlutil.Element {
	t.Helper()
	states, err := rc.GetProperty(ctx, scheduler.QJobState)
	if err != nil {
		t.Fatal(err)
	}
	return states
}

func TestSingleJobQuickstart(t *testing.T) {
	g := testGrid(t, NodeSpec{Name: "solo", Cores: 1, SpeedMHz: 1000})
	c := testClient(t, g)
	ctx := testCtx(t)
	c.AddFile("hello.app", Script("write hello.txt hello grid", "exit 0"))
	sub, err := c.Submit(ctx, NewJobSet("quick").Add("hello", Local("hello.app")).Outputs("hello.txt").Spec())
	if err != nil {
		t.Fatal(err)
	}
	if status, _ := sub.Wait(ctx); status != scheduler.SetCompleted {
		t.Fatalf("status = %s", status)
	}
	out, err := sub.FetchOutput(ctx, "hello", "hello.txt")
	if err != nil || string(out) != "hello grid" {
		t.Fatalf("output %q %v", out, err)
	}
}

func TestJobFailurePropagates(t *testing.T) {
	g := testGrid(t)
	c := testClient(t, g)
	ctx := testCtx(t)
	c.AddFile("bad.app", Script("exit 3"))
	c.AddFile("never.app", Script("exit 0"))
	spec := NewJobSet("doomed").
		Add("bad", Local("bad.app")).Outputs("out").
		Add("never", Local("never.app")).Input("out", Output("bad", "out")).
		Spec()
	sub, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	status, err := sub.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if status != scheduler.SetFailed {
		t.Fatalf("status = %s", status)
	}
	_, detail := sub.Status()
	if !strings.Contains(detail, "bad") {
		t.Errorf("detail = %q", detail)
	}
	// The dependent job never ran: its state is Cancelled.
	rc := wsrf.NewResourceClient(g.Client, sub.JobSet)
	states, err := rc.GetProperty(ctx, scheduler.QJobState)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range states {
		name := st.Attr(xmlutil.Q("", "name"))
		got := st.Attr(xmlutil.Q("", "status"))
		want := map[string]string{"bad": scheduler.JobFailed, "never": scheduler.JobCancelled}[name]
		if got != want {
			t.Errorf("job %s status = %s, want %s", name, got, want)
		}
	}
}

func TestMissingInputFailsJob(t *testing.T) {
	g := testGrid(t, NodeSpec{Name: "solo"})
	c := testClient(t, g)
	ctx := testCtx(t)
	spec := NewJobSet("broken").Add("j", Local("ghost.app")).Spec()
	sub, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	// The executable does not exist on the client: staging fails, the
	// FSS reports it, the ES marks the job failed, the set fails.
	if status, _ := sub.Wait(ctx); status != scheduler.SetFailed {
		t.Fatalf("status = %s", status)
	}
}

func TestSubmitValidatesSpec(t *testing.T) {
	g := testGrid(t, NodeSpec{Name: "solo"})
	c := testClient(t, g)
	ctx := testCtx(t)
	// Cycle: a needs b, b needs a.
	spec := &JobSet{Name: "cycle", Jobs: []Job{
		{Name: "a", Executable: Local("x"), Inputs: []FileSpec{{LocalName: "i", Source: Output("b", "o")}}, Outputs: []string{"o"}},
		{Name: "b", Executable: Local("x"), Inputs: []FileSpec{{LocalName: "i", Source: Output("a", "o")}}, Outputs: []string{"o"}},
	}}
	if _, err := c.Submit(ctx, spec); err == nil {
		t.Fatal("cyclic job set accepted")
	}
}

func TestSecurityRejectsWrongPassword(t *testing.T) {
	g := testGrid(t, NodeSpec{Name: "solo"})
	bad, err := g.NewClient(wssec.Credentials{Username: "scientist", Password: "wrong"}, false)
	if err != nil {
		t.Fatal(err)
	}
	defer bad.Close()
	bad.AddFile("x.app", Script("exit 0"))
	_, err = bad.Submit(testCtx(t), NewJobSet("nope").Add("j", Local("x.app")).Spec())
	if err == nil {
		t.Fatal("wrong password accepted")
	}
}

func TestSecurityRequiresCredentials(t *testing.T) {
	g := testGrid(t, NodeSpec{Name: "solo"})
	anon, err := g.NewClient(wssec.Credentials{}, false)
	if err != nil {
		t.Fatal(err)
	}
	defer anon.Close()
	anon.AddFile("x.app", Script("exit 0"))
	if _, err := anon.Submit(testCtx(t), NewJobSet("anon").Add("j", Local("x.app")).Spec()); err == nil {
		t.Fatal("anonymous submit accepted on secured grid")
	}
}

func TestGreedyPolicyPicksFastestMostAvailable(t *testing.T) {
	busy := func() float64 { return 0.9 }
	g := testGrid(t,
		NodeSpec{Name: "fast-busy", Cores: 1, SpeedMHz: 4000, Background: busy},
		NodeSpec{Name: "fast-idle", Cores: 1, SpeedMHz: 3000},
		NodeSpec{Name: "slow-idle", Cores: 1, SpeedMHz: 800},
	)
	c := testClient(t, g)
	ctx := testCtx(t)
	c.AddFile("j.app", Script("exit 0"))
	sub, err := c.Submit(ctx, NewJobSet("placement").Add("j", Local("j.app")).Spec())
	if err != nil {
		t.Fatal(err)
	}
	if status, _ := sub.Wait(ctx); status != scheduler.SetCompleted {
		t.Fatalf("status = %s", status)
	}
	states := placedJobStates(t, ctx, wsrf.NewResourceClient(g.Client, sub.JobSet))
	// fast-idle scores 3000; fast-busy scores 4000*0.1=400; slow 800.
	if node := states[0].Attr(xmlutil.Q("", "node")); node != "fast-idle" {
		t.Fatalf("scheduled on %q, want fast-idle", node)
	}
}

// TestPlacementDoesNotNeedReports: two equal machines that do not report
// again while the bag is placed — no sample can cross this threshold, and
// the first renewal is a second away — and a 16-wide bag dispatched eight
// at a time over the cached catalog. The master counts its own
// placements, so the bag lands eight and eight; placed on reports alone,
// all sixteen herd onto the machine that still looks idle.
func TestPlacementDoesNotNeedReports(t *testing.T) {
	g, err := NewGrid(GridConfig{
		Nodes: []NodeSpec{
			{Name: "east", Cores: 8, SpeedMHz: 2000, RAMMB: 1024},
			{Name: "west", Cores: 8, SpeedMHz: 2000, RAMMB: 1024},
		},
		Accounts:             testAccounts,
		UnitTime:             5 * time.Microsecond,
		UtilizationThreshold: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	c := testClient(t, g)
	ctx := testCtx(t)
	c.AddFile("long.app", Script("compute 100000000", "exit 0")) // outlives the test: no slot comes back
	set := NewJobSet("bag")
	for i := 0; i < 16; i++ {
		set.Add(fmt.Sprintf("w%02d", i), Local("long.app"))
	}
	sub, err := c.Submit(ctx, set.Spec())
	if err != nil {
		t.Fatal(err)
	}
	rc := wsrf.NewResourceClient(g.Client, sub.JobSet)
	landed := make(map[string]int)
	for placed := 0; placed < 16; time.Sleep(2 * time.Millisecond) {
		states, err := rc.GetProperty(ctx, scheduler.QJobState)
		if err != nil {
			t.Fatalf("%d of 16 jobs placed: %v", placed, err)
		}
		placed, landed = 0, make(map[string]int)
		for _, st := range states {
			if node := st.Attr(xmlutil.Q("", "node")); node != "" {
				placed++
				landed[node]++
			}
		}
	}
	if landed["east"] != 8 || landed["west"] != 8 {
		t.Errorf("the bag landed %v, want 8 on each machine", landed)
	}
	if err := cancelSet(ctx, sub); err != nil {
		t.Fatal(err)
	}
	if status, _ := sub.Wait(ctx); status != scheduler.SetCancelled {
		t.Fatalf("status = %s", status)
	}
}

// cancelSet aborts sub's whole job set through the Scheduler's Cancel.
func cancelSet(ctx context.Context, sub *Submission) error {
	_, err := sub.client.cfg.Transport.Call(ctx, sub.JobSet, scheduler.ActionCancel, xmlutil.NewElement(xmlutil.Q(scheduler.NS, "Cancel"), ""))
	return err
}

func TestCancelJobSet(t *testing.T) {
	g := testGrid(t, NodeSpec{Name: "solo"})
	c := testClient(t, g)
	ctx := testCtx(t)
	// A job that would run for a very long time.
	c.AddFile("long.app", Script("compute 100000000", "exit 0"))
	sub, err := c.Submit(ctx, NewJobSet("longset").Add("long", Local("long.app")).Spec())
	if err != nil {
		t.Fatal(err)
	}
	// Wait until it is running, then cancel.
	deadline := time.Now().Add(20 * time.Second)
	for {
		if _, ok := sub.JobEPR("long"); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := cancelSet(ctx, sub); err != nil {
		t.Fatal(err)
	}
	if status, _ := sub.Wait(ctx); status != scheduler.SetCancelled {
		t.Fatalf("status = %s", status)
	}
}

// TestShippedVerifierRefusesAReplayedSubmit: the grid's own verifier
// takes a signed Submit once; the same envelope sent again, as one
// captured off the wire would be, is refused.
func TestShippedVerifierRefusesAReplayedSubmit(t *testing.T) {
	g := testGrid(t, NodeSpec{Name: "solo"})
	c := testClient(t, g)
	ctx := testCtx(t)
	c.AddFile("once.app", Script("exit 0"))
	env := soap.New(scheduler.SubmitRequest(NewJobSet("once").Add("once", Local("once.app")).Spec(), c.FilesEPR(), c.ListenerEPR()))
	if err := wssec.AttachUsernameToken(env, wssec.Credentials{Username: "scientist", Password: "pw"}, time.Now()); err != nil {
		t.Fatal(err)
	}
	ss := wsa.NewEPR("inproc://" + masterHost + scheduler.ServicePath)
	if _, err := g.Client.Invoke(ctx, ss, scheduler.ActionSubmit, env.Clone()); err != nil {
		t.Fatalf("first Submit: %v", err)
	}
	_, err := g.Client.Invoke(ctx, ss, scheduler.ActionSubmit, env.Clone())
	if f, ok := soap.AsFault(err); !ok || f.Code != soap.CodeSender || !strings.Contains(f.Reason, "replay") {
		t.Fatalf("replayed Submit: %v, want a Sender fault naming the replay", err)
	}
}

// TestNilAccountsLeaveServicesOpen: a nil account table is no security.
// Given one, the Scheduler takes a Submit, the ES a Run that it stages
// and spawns to exit 0, and ProcSpawn a spawn, none carrying credentials.
func TestNilAccountsLeaveServicesOpen(t *testing.T) {
	var accounts wssec.StaticAccounts
	g := testGrid(t, NodeSpec{Name: "solo"})
	c := testClient(t, g)
	c.AddFile("j.app", Script("exit 0"))
	ctx := testCtx(t)
	serve := func(t *testing.T, host string, mux *soap.Mux) {
		g.Network.Register(host, transport.NewServer(mux))
		t.Cleanup(func() { g.Network.Deregister(host) })
	}
	for _, tc := range []struct {
		name string
		run  func(t *testing.T) error
	}{
		{"scheduler-submit", func(t *testing.T) error {
			m, err := master.Assemble(master.Config{Address: "inproc://open-master", Store: resourcedb.NewStore(), Client: g.Client,
				Scheduler: scheduler.Config{Accounts: accounts}})
			if err != nil {
				return err
			}
			serve(t, "open-master", m.Mux)
			spec := NewJobSet("open").Add("j", Local("j.app")).Spec()
			_, err = g.Client.Call(ctx, m.Scheduler.EPR(), scheduler.ActionSubmit, scheduler.SubmitRequest(spec, c.FilesEPR(), wsa.EndpointReference{}))
			return err
		}},
		{"execution-run", func(t *testing.T) error {
			fs, store := vfs.New(), resourcedb.NewStore()
			fss, err := filesystem.New(filesystem.Config{Address: "inproc://open-node", FS: fs, Client: g.Client,
				Home: wsrf.NewStateHome(store.MustTable("dirs", resourcedb.StructuredCodec{}))})
			if err != nil {
				return err
			}
			spawner, err := procspawn.NewSpawner(procspawn.Config{FS: fs, Cores: 1, SpeedMHz: 1000, Accounts: accounts})
			if err != nil {
				return err
			}
			es, err := execution.New(execution.Config{Address: "inproc://open-node", Client: g.Client, FSS: fss.EPR(), Spawner: spawner, Accounts: accounts,
				Home: wsrf.NewStateHome(store.MustTable("jobs", resourcedb.StructuredCodec{}))})
			if err != nil {
				return err
			}
			mux := soap.NewMux()
			mux.Handle(fss.WSRF().Path(), fss.WSRF().Dispatcher())
			mux.Handle(es.WSRF().Path(), es.WSRF().Dispatcher())
			serve(t, "open-node", mux)
			resp, err := g.Client.Call(ctx, es.EPR(), execution.ActionRun,
				execution.RunRequest("j", "open", "j.app", []filesystem.FileRef{{Source: c.FilesEPR(), RemoteName: "j.app"}}))
			if err != nil {
				return err
			}
			job, err := wsa.ParseEPR(resp.Children[0])
			if err != nil {
				return err
			}
			rc := wsrf.NewResourceClient(g.Client, job)
			for {
				status, err := rc.GetPropertyText(ctx, execution.QStatus)
				if err != nil || status == execution.StatusFailed {
					return fmt.Errorf("job status %q, %v", status, err)
				}
				if status == execution.StatusExited {
					return nil
				}
				time.Sleep(time.Millisecond)
			}
		}},
		{"procspawn-spawn", func(t *testing.T) error {
			fs := vfs.New()
			dir, err := fs.Mkdir("/w")
			if err != nil {
				return err
			}
			if err := fs.Write(dir, "j.app", Script("exit 0")); err != nil {
				return err
			}
			spawner, err := procspawn.NewSpawner(procspawn.Config{FS: fs, Cores: 1, SpeedMHz: 1000, Accounts: accounts})
			if err != nil {
				return err
			}
			_, err = spawner.Spawn(procspawn.SpawnSpec{Executable: "j.app", WorkingDir: dir})
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.run(t); err != nil {
				t.Fatalf("with no credentials: %v", err)
			}
		})
	}
}

func TestLocalFilesOverRealTCP(t *testing.T) {
	g := testGrid(t, NodeSpec{Name: "solo"})
	c, err := g.NewClient(wssec.Credentials{Username: "scientist", Password: "pw"}, true)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if addr := c.FilesEPR().Address; !strings.HasPrefix(addr, "soap.tcp://") {
		t.Fatalf("files address = %q, want soap.tcp://", addr)
	}
	ctx := testCtx(t)
	c.AddFile("t.app", Script("write done.txt ok", "exit 0"))
	sub, err := c.Submit(ctx, NewJobSet("tcp").Add("t", Local("t.app")).Outputs("done.txt").Spec())
	if err != nil {
		t.Fatal(err)
	}
	if status, _ := sub.Wait(ctx); status != scheduler.SetCompleted {
		t.Fatalf("status = %s", status)
	}
	out, err := sub.FetchOutput(ctx, "t", "done.txt")
	if err != nil || string(out) != "ok" {
		t.Fatalf("output %q %v", out, err)
	}
}

func TestParallelFanOutFanIn(t *testing.T) {
	g := testGrid(t)
	c := testClient(t, g)
	ctx := testCtx(t)
	c.AddFile("worker.app", Script("compute 30", `write part.txt 5\n`, "exit 0"))
	b := NewJobSet("fan")
	reducer := Job{Name: "reduce", Executable: Local("reduce.app")}
	reduceScript := []string{}
	for i := 0; i < 6; i++ {
		name := "w" + string(rune('0'+i))
		b.Add(name, Local("worker.app")).Outputs("part.txt")
		local := "part-" + name + ".txt"
		reducer.Inputs = append(reducer.Inputs, FileSpec{LocalName: local, Source: Output(name, "part.txt")})
		reduceScript = append(reduceScript, "append all.txt "+local)
	}
	reduceScript = append(reduceScript, "transform all.txt sum.txt sum", "exit 0")
	c.AddFile("reduce.app", Script(reduceScript...))
	reducer.Outputs = []string{"sum.txt"}
	spec := b.Spec()
	spec.Jobs = append(spec.Jobs, reducer)

	sub, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if status, _ := sub.Wait(ctx); status != scheduler.SetCompleted {
		_, detail := sub.Status()
		t.Fatalf("status %v (%s)", status, detail)
	}
	out, err := sub.FetchOutput(ctx, "reduce", "sum.txt")
	if err != nil || string(out) != "30" {
		t.Fatalf("fan-in sum = %q %v", out, err)
	}
}

func TestTwoSubmissionsInterleave(t *testing.T) {
	g := testGrid(t)
	c := testClient(t, g)
	ctx := testCtx(t)
	c.AddFile("a.app", Script("compute 20", "write a.txt A", "exit 0"))
	c.AddFile("b.app", Script("compute 20", "write b.txt B", "exit 0"))
	subA, err := c.Submit(ctx, NewJobSet("setA").Add("a", Local("a.app")).Outputs("a.txt").Spec())
	if err != nil {
		t.Fatal(err)
	}
	subB, err := c.Submit(ctx, NewJobSet("setB").Add("b", Local("b.app")).Outputs("b.txt").Spec())
	if err != nil {
		t.Fatal(err)
	}
	if s, _ := subA.Wait(ctx); s != scheduler.SetCompleted {
		t.Fatalf("setA = %s", s)
	}
	if s, _ := subB.Wait(ctx); s != scheduler.SetCompleted {
		t.Fatalf("setB = %s", s)
	}
	outA, _ := subA.FetchOutput(ctx, "a", "a.txt")
	outB, _ := subB.FetchOutput(ctx, "b", "b.txt")
	if string(outA) != "A" || string(outB) != "B" {
		t.Fatalf("cross-talk: %q %q", outA, outB)
	}
}

func TestJobResourcePropertiesDuringRun(t *testing.T) {
	g := testGrid(t, NodeSpec{Name: "solo"})
	c := testClient(t, g)
	ctx := testCtx(t)
	c.AddFile("slow.app", Script("compute 100000000", "exit 0"))
	sub, err := c.Submit(ctx, NewJobSet("watch").Add("slow", Local("slow.app")).Spec())
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(20 * time.Second)
	for {
		if epr, ok := sub.JobEPR("slow"); ok {
			// Poll the job resource like the paper's client: status and
			// CPU time are resource properties.
			rc := wsrf.NewResourceClient(g.Client, epr)
			status, err := rc.GetPropertyText(ctx, xmlutil.Q("urn:uvacg:es", "Status"))
			if err != nil {
				t.Fatal(err)
			}
			if status != "Running" && status != "Staging" {
				t.Fatalf("status = %q", status)
			}
			if _, err := rc.GetPropertyText(ctx, xmlutil.Q("urn:uvacg:es", "CPUTime")); err != nil {
				t.Fatal(err)
			}
			if err := sub.KillJob(ctx, "slow"); err != nil {
				t.Fatal(err)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never surfaced")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// A killed job exits nonzero → set fails.
	if status, _ := sub.Wait(ctx); status != scheduler.SetFailed {
		t.Fatalf("status after kill = %s", status)
	}
}

// Keep wsn referenced for the event-channel API assertions above.
var _ = wsn.DialectSimple

// TestVanishedNodeLeavesTheCatalog: a machine that stops — monitor and
// all — renews its catalog entry no more, and the entry's own timer
// destroys it within three renewal periods of the machine's last Report.
// A set submitted after that runs on the machine that is left. While the
// catalog kept every member for ever, Greedy picked the dead fastest
// machine and the set failed.
func TestVanishedNodeLeavesTheCatalog(t *testing.T) {
	g := testGrid(t, NodeSpec{Name: "flaky"}, NodeSpec{Name: "absent", SpeedMHz: 9000})
	c := testClient(t, g)
	ctx := testCtx(t)
	absent := g.Nodes[1]
	if absent.Name != "absent" {
		t.Fatalf("second machine is %q", absent.Name)
	}
	absent.Stop()
	stopped := time.Now()
	for {
		procs, err := g.NIS.Processors()
		if err != nil {
			t.Fatal(err)
		}
		if len(procs) == 1 && procs[0].Host == "flaky" {
			break
		}
		// The last Report left at most one sampling tick before Stop.
		if waited := time.Since(stopped); waited > 3*nodeinfo.RenewEvery+time.Second {
			t.Fatalf("catalog %+v %v after the fastest machine stopped", procs, waited)
		}
		time.Sleep(10 * time.Millisecond)
	}

	c.AddFile("j.app", Script("exit 0"))
	sub, err := c.Submit(ctx, NewJobSet("survivor").Add("j", Local("j.app")).Spec())
	if err != nil {
		t.Fatal(err)
	}
	if status, err := sub.Wait(ctx); err != nil || status != scheduler.SetCompleted {
		_, detail := sub.Status()
		t.Fatalf("status %q (%s), %v", status, detail, err)
	}
	states := placedJobStates(t, ctx, wsrf.NewResourceClient(g.Client, sub.JobSet))
	if node := states[0].Attr(xmlutil.Q("", "node")); node != "flaky" {
		t.Fatalf("j ran on %q", node)
	}
}

// TestExitedSurvivesATransientNotifyError: one transport error on the
// one-way Notify that carries a job's exited event is absorbed by the
// client chain's retry. Unretried, the event was lost and the watchdog
// failed the set, the job having exited 0.
func TestExitedSurvivesATransientNotifyError(t *testing.T) {
	g := testGrid(t, NodeSpec{Name: "solo"})
	// Innermost on the grid's client, so each call here is one wire
	// attempt. One-way only: the scheduler's acked set events to the
	// broker are round trips. Matched by content, since exited rides
	// alone or with directory and started, as the outbox batches them.
	var sends atomic.Int32
	g.Client.Use(func(ctx context.Context, call *soap.CallInfo, next soap.Handler) (*soap.Envelope, error) {
		if call.OneWay && call.Path == master.BrokerPath && carriesExited(call.Request) {
			if sends.Add(1) == 1 {
				return nil, errors.New("connection reset by peer")
			}
		}
		return next(ctx, call)
	})
	c := testClient(t, g)
	ctx := testCtx(t)
	c.AddFile("t.app", Script("exit 0"))
	sub, err := c.Submit(ctx, NewJobSet("resent").Add("t", Local("t.app")).Spec())
	if err != nil {
		t.Fatal(err)
	}
	if status, err := sub.Wait(ctx); err != nil || status != scheduler.SetCompleted {
		_, detail := sub.Status()
		t.Fatalf("status %q (%s), %v", status, detail, err)
	}
	if got := sends.Load(); got != 2 {
		t.Fatalf("the Notify carrying exited crossed to the broker %d time(s), want 2", got)
	}
}

func carriesExited(env *soap.Envelope) bool {
	ns, err := wsn.ParseNotifyBody(env.Body)
	if err != nil {
		return false
	}
	for _, n := range ns {
		if strings.HasSuffix(n.Topic, "/"+execution.EventExited) {
			return true
		}
	}
	return false
}

func TestFetchOutputFallsBackToJobSetResource(t *testing.T) {
	g := testGrid(t, NodeSpec{Name: "solo"})
	c := testClient(t, g)
	ctx := testCtx(t)
	c.AddFile("j.app", Script("write out.txt data", "exit 0"))
	sub, err := c.Submit(ctx, NewJobSet("fb").Add("j", Local("j.app")).Outputs("out.txt").Spec())
	if err != nil {
		t.Fatal(err)
	}
	if status, _ := sub.Wait(ctx); status != scheduler.SetCompleted {
		t.Fatalf("status = %s", status)
	}
	// Simulate the client having missed the directory event entirely:
	// the fallback reads the Scheduler's persisted record.
	sub.mu.Lock()
	sub.dirs = map[string]wsa.EndpointReference{}
	sub.mu.Unlock()
	out, err := sub.FetchOutput(ctx, "j", "out.txt")
	if err != nil || string(out) != "data" {
		t.Fatalf("fallback fetch: %q %v", out, err)
	}
	// And it caches the recovered directory.
	if _, ok := sub.OutputDirectory("j"); !ok {
		t.Fatal("recovered directory not cached")
	}
}
