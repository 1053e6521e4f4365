package scheduler

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"uvacg/internal/node"
	"uvacg/internal/procspawn"
	"uvacg/internal/resourcedb"
	"uvacg/internal/services/execution"
	"uvacg/internal/services/filesystem"
	"uvacg/internal/services/nodeinfo"
	"uvacg/internal/soap"
	"uvacg/internal/transport"
	"uvacg/internal/wsa"
	"uvacg/internal/wsn"
	"uvacg/internal/wsrf"
	"uvacg/internal/wssec"
	"uvacg/internal/xmlutil"
)

// ssHarness assembles a scheduler, broker, NIS and real grid nodes
// without going through internal/core (which depends on this package).
type ssHarness struct {
	network *transport.Network
	client  *transport.Client
	ss      *Service
	broker  *wsn.Broker
	files   *filesystem.FileServer
	events  <-chan wsn.Notification
	nodes   map[string]*node.Node
}

// cancelRequest builds the Cancel body.
func cancelRequest() *xmlutil.Element { return xmlutil.NewElement(xmlutil.Q(NS, "Cancel"), "") }

func newSSHarness(t *testing.T, policy Policy, accounts wssec.StaticAccounts, nodeNames ...string) *ssHarness {
	return newSSHarnessCfg(t, policy, accounts, nil, nodeNames...)
}

// newSSHarnessCfg is newSSHarness with a Config hook, for tests that
// need extra scheduler knobs or a home of their own.
func newSSHarnessCfg(t *testing.T, policy Policy, accounts wssec.StaticAccounts, mutate func(*Config), nodeNames ...string) *ssHarness {
	t.Helper()
	network := transport.NewNetwork()
	client := transport.NewClient().WithNetwork(network)
	store := resourcedb.NewStore()

	broker, err := wsn.NewBroker("/NB", "inproc://master",
		wsrf.NewStateHome(store.MustTable("subs", resourcedb.BlobCodec{})), client)
	if err != nil {
		t.Fatal(err)
	}
	nis, err := nodeinfo.New(nodeinfo.Config{Address: "inproc://master"})
	if err != nil {
		t.Fatal(err)
	}
	ssCfg := Config{
		Address:  "inproc://master",
		Home:     wsrf.NewStateHome(store.MustTable("jobsets", resourcedb.BlobCodec{})),
		Client:   client,
		NIS:      nis.EPR(),
		Broker:   broker.EPR(),
		Policy:   policy,
		Accounts: accounts,
	}
	if mutate != nil {
		mutate(&ssCfg)
	}
	ss, err := New(ssCfg)
	if err != nil {
		t.Fatal(err)
	}
	// As master.Assemble does: the SS's one standing subscription.
	if _, err := broker.Producer().Subscribe(ss.ConsumerEPR(), ss.ConsumerTopics()); err != nil {
		t.Fatal(err)
	}

	masterMux := soap.NewMux()
	masterMux.Handle(broker.Service().Path(), broker.Service().Dispatcher())
	masterMux.Handle(broker.Producer().SubscriptionService().Path(), broker.Producer().SubscriptionService().Dispatcher())
	masterMux.Handle(nis.WSRF().Path(), nis.WSRF().Dispatcher())
	masterMux.Handle(ss.WSRF().Path(), ss.WSRF().Dispatcher())
	ss.Consumer().Mount(masterMux, ss.ConsumerPath())
	network.Register("master", transport.NewServer(masterMux))

	nodes := make(map[string]*node.Node, len(nodeNames))
	for _, name := range nodeNames {
		n, err := node.New(node.Config{
			Name:     name,
			Network:  network,
			Client:   client,
			Cores:    2,
			SpeedMHz: 2000,
			UnitTime: 5 * time.Microsecond,
			Accounts: accounts,
			Broker:   broker.EPR(),
			NIS:      nis.EPR(),
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := n.Register(context.Background()); err != nil {
			t.Fatal(err)
		}
		n.Start()
		t.Cleanup(n.Stop)
		nodes[name] = n
	}

	// The client side: a file server plus a notification listener.
	files := filesystem.NewFileServer("/files")
	consumer := wsn.NewConsumer()
	events := consumer.Channel(wsn.MustTopicExpression(wsn.DialectFull, "*//"), 128)
	clientMux := soap.NewMux()
	files.Mount(clientMux)
	consumer.Mount(clientMux, "/listener")
	network.Register("client", transport.NewServer(clientMux))

	return &ssHarness{network: network, client: client, ss: ss, broker: broker, files: files, events: events, nodes: nodes}
}

// silence takes a machine off the network and stops its renewals: the
// master neither reaches it nor hears from it, and its catalog entry
// lapses. heal puts it back as it was.
func (h *ssHarness) silence(t *testing.T, name string) (heal func()) {
	t.Helper()
	srv, ok := h.network.Lookup(name)
	if !ok {
		t.Fatalf("%s is not on the network", name)
	}
	h.nodes[name].Monitor.Stop()
	h.network.Deregister(name)
	return func() {
		h.network.Register(name, srv)
		h.nodes[name].Monitor.Start()
	}
}

// refuse makes the harness's client fail every call match picks, while
// the returned switch is on (it starts on).
func (h *ssHarness) refuse(match func(call *soap.CallInfo) bool) *atomic.Bool {
	on := new(atomic.Bool)
	on.Store(true)
	h.client.Use(func(ctx context.Context, call *soap.CallInfo, next soap.Handler) (*soap.Envelope, error) {
		if on.Load() && match(call) {
			return nil, fmt.Errorf("refused %s to %s", call.Action, call.Addr)
		}
		return next(ctx, call)
	})
	return on
}

// runsSent counts the Runs the harness's client sends, by "<topic>/<job>"
// as the RunJob body names them. Run is not idempotent: the client sends
// one per dispatch.
type runsSent struct {
	mu    sync.Mutex
	byJob map[string]int
}

func (h *ssHarness) countRuns() *runsSent {
	rs := &runsSent{byJob: make(map[string]int)}
	h.client.Use(func(ctx context.Context, call *soap.CallInfo, next soap.Handler) (*soap.Envelope, error) {
		if call.Action == execution.ActionRun {
			body := call.Request.Body
			rs.mu.Lock()
			rs.byJob[body.ChildText(execution.QTopic)+"/"+body.ChildText(execution.QJobName)]++
			rs.mu.Unlock()
		}
		return next(ctx, call)
	})
	return rs
}

// total is how many Runs were sent.
func (rs *runsSent) total() int {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	n := 0
	for _, runs := range rs.byJob {
		n += runs
	}
	return n
}

func (h *ssHarness) filesEPR() wsa.EndpointReference { return wsa.NewEPR("inproc://client/files") }
func (h *ssHarness) listenerEPR() wsa.EndpointReference {
	return wsa.NewEPR("inproc://client/listener")
}

// submit sends a Submit over the wire, optionally with credentials.
func (h *ssHarness) submit(t *testing.T, spec *JobSetSpec, creds *wssec.Credentials) (wsa.EndpointReference, string, error) {
	t.Helper()
	env := soap.New(SubmitRequest(spec, h.filesEPR(), h.listenerEPR()))
	if creds != nil {
		if err := wssec.AttachUsernameToken(env, *creds, time.Now()); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := h.client.Invoke(context.Background(), h.ss.EPR(), ActionSubmit, env)
	if err != nil {
		return wsa.EndpointReference{}, "", err
	}
	return mustParseSubmitResponse(t, resp.Body)
}

// hasOutputDir reports whether a set's document names the directory a
// job's outputs live in, as a client reads it; false too when the set has
// no document.
func (h *ssHarness) hasOutputDir(t *testing.T, set wsa.EndpointReference, job string) bool {
	t.Helper()
	doc, err := h.ss.WSRF().Home().Load(set.Property(wsrf.QResourceID))
	if errors.Is(err, wsrf.ErrNoSuchResource) {
		return false
	} else if err != nil {
		t.Fatal(err)
	}
	v := ParseJobSetDocument(doc)
	j := v.Job(job)
	return j != nil && !j.Dir.IsZero()
}

func mustParseSubmitResponse(t *testing.T, body *xmlutil.Element) (wsa.EndpointReference, string, error) {
	t.Helper()
	epr, topic, err := ParseSubmitResponse(body)
	if err != nil {
		t.Fatal(err)
	}
	return epr, topic, nil
}

// waitTerminal drains the client's event stream until a job-set event.
func (h *ssHarness) waitTerminal(t *testing.T, topic string) string {
	t.Helper()
	return h.waitVerdict(t, topic).Kind
}

// waitVerdict drains the client's event stream until a job-set event of
// the set and returns it.
func (h *ssHarness) waitVerdict(t *testing.T, topic string) Event {
	t.Helper()
	deadline := time.After(30 * time.Second)
	for {
		select {
		case n := <-h.events:
			if ev, ok := ParseEvent(n); ok && ev.Set == topic && ev.Job == "" {
				return ev
			}
		case <-deadline:
			t.Fatal("no terminal job-set event")
		}
	}
}

// eventually polls until cond holds or the deadline lapses.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func twoJobSpec() *JobSetSpec {
	return &JobSetSpec{Name: "two", Jobs: []JobSpec{
		{Name: "first", Executable: "local://first.app", Outputs: []string{"out.txt"}},
		{Name: "second", Executable: "local://second.app",
			Inputs: []FileSpec{{LocalName: "in.txt", Source: "first://out.txt"}}},
	}}
}

func TestSchedulerRunsDependentJobs(t *testing.T) {
	h := newSSHarness(t, Greedy{}, nil, "node-a", "node-b")
	h.files.Publish("first.app", procspawn.BuildScript("write out.txt hello", "exit 0"))
	h.files.Publish("second.app", procspawn.BuildScript("read in.txt", "exit 0"))

	setEPR, topic, err := h.submit(t, twoJobSpec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := h.waitTerminal(t, topic); got != "completed" {
		t.Fatalf("terminal event %q", got)
	}
	// Resource doc mirrors the result.
	rc := wsrf.NewResourceClient(h.client, setEPR)
	ctx := context.Background()
	if got, err := rc.GetPropertyText(ctx, QStatus); err != nil || got != SetCompleted {
		t.Fatalf("status = %q %v", got, err)
	}
	// The document says where the first job's outputs live.
	if !h.hasOutputDir(t, setEPR, "first") {
		t.Fatal("output directory not recorded")
	}
	if h.hasOutputDir(t, setEPR, "ghost") {
		t.Fatal("phantom job has an output directory")
	}
	if h.hasOutputDir(t, h.ss.WSRF().EPRFor("ghost-set"), "first") {
		t.Fatal("phantom set has an output directory")
	}
}

func TestSchedulerSecuredSubmitForwardsEncryptedCredentials(t *testing.T) {
	accounts := wssec.StaticAccounts{"scientist": "pw"}
	h := newSSHarness(t, Greedy{}, accounts, "node-a")
	h.files.Publish("j.app", procspawn.BuildScript("exit 0"))
	spec := &JobSetSpec{Name: "sec", Jobs: []JobSpec{{Name: "j", Executable: "local://j.app"}}}

	// Without credentials the secured scheduler refuses.
	if _, _, err := h.submit(t, spec, nil); err == nil {
		t.Fatal("anonymous submit accepted")
	}
	// With credentials, the SS forwards them to the node's ES as a
	// digest (the name is older than the digest-only posture) and the
	// job runs as that account end to end.
	creds := wssec.Credentials{Username: "scientist", Password: "pw"}
	_, topic, err := h.submit(t, spec, &creds)
	if err != nil {
		t.Fatal(err)
	}
	if got := h.waitTerminal(t, topic); got != "completed" {
		t.Fatalf("terminal event %q", got)
	}
}

// TestRunWithoutESCertsSendsADigest: the SS has no certificate to
// encrypt to, so its Run carries a UsernameToken digest, never the
// password itself. The ES verifies it against its own account table, so
// the set still completes, its job owned by the account.
func TestRunWithoutESCertsSendsADigest(t *testing.T) {
	accounts := wssec.StaticAccounts{"scientist": "s3cret-pw"}
	h := newSSHarness(t, Greedy{}, accounts, "node-a")
	var wire, job atomic.Value // the last Run as it went on the wire, and its job
	h.client.Use(func(ctx context.Context, call *soap.CallInfo, next soap.Handler) (*soap.Envelope, error) {
		if call.Action != execution.ActionRun {
			return next(ctx, call)
		}
		data, err := call.Request.Marshal()
		if err != nil {
			return nil, err
		}
		wire.Store(string(data))
		resp, err := next(ctx, call)
		if err == nil {
			if epr, _, err := execution.ParseRunResponse(resp.Body); err == nil {
				job.Store(epr)
			}
		}
		return resp, err
	})
	h.files.Publish("j.app", procspawn.BuildScript("exit 0"))
	spec := &JobSetSpec{Name: "digest", Jobs: []JobSpec{{Name: "j", Executable: "local://j.app"}}}
	_, topic, err := h.submit(t, spec, &wssec.Credentials{Username: "scientist", Password: "s3cret-pw"})
	if err != nil {
		t.Fatal(err)
	}
	if got := h.waitTerminal(t, topic); got != "completed" {
		t.Fatalf("terminal event %q", got)
	}
	run, _ := wire.Load().(string)
	if !strings.Contains(run, wssec.PasswordDigest) || strings.Contains(run, "s3cret-pw") || strings.Contains(run, wssec.PasswordText) {
		t.Fatalf("Run's security header is not a digest:\n%s", run)
	}
	jobEPR, _ := job.Load().(wsa.EndpointReference)
	owner, err := wsrf.NewResourceClient(h.client, jobEPR).GetPropertyText(context.Background(), execution.QOwner)
	if err != nil || owner != "scientist" {
		t.Fatalf("the job's owner: %q, %v", owner, err)
	}
}

func TestSchedulerFailsSetOnJobFailure(t *testing.T) {
	h := newSSHarness(t, Greedy{}, nil, "node-a")
	h.files.Publish("first.app", procspawn.BuildScript("exit 9"))
	h.files.Publish("second.app", procspawn.BuildScript("exit 0"))
	setEPR, topic, err := h.submit(t, twoJobSpec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := h.waitTerminal(t, topic); got != "failed" {
		t.Fatalf("terminal event %q", got)
	}
	rc := wsrf.NewResourceClient(h.client, setEPR)
	states, err := rc.GetProperty(context.Background(), QJobState)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]string{}
	for _, st := range states {
		byName[st.Attr(qNameAttr)] = st.Attr(qStatusAttr)
	}
	if byName["first"] != JobFailed || byName["second"] != JobCancelled {
		t.Fatalf("job states %v", byName)
	}
}

func TestSchedulerCancel(t *testing.T) {
	h := newSSHarness(t, Greedy{}, nil, "node-a")
	h.files.Publish("long.app", procspawn.BuildScript("compute 100000000", "exit 0"))
	spec := &JobSetSpec{Name: "longset", Jobs: []JobSpec{{Name: "long", Executable: "local://long.app"}}}
	setEPR, topic, err := h.submit(t, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the started event so there is a live process to kill.
	deadline := time.After(20 * time.Second)
	for started := false; !started; {
		select {
		case n := <-h.events:
			if strings.HasSuffix(n.Topic, "/started") {
				started = true
			}
		case <-deadline:
			t.Fatal("job never started")
		}
	}
	ctx := context.Background()
	if _, err := h.client.Call(ctx, setEPR, ActionCancel, cancelRequest()); err != nil {
		t.Fatal(err)
	}
	if got := h.waitTerminal(t, topic); got != "cancelled" {
		t.Fatalf("terminal event %q", got)
	}
	rc := wsrf.NewResourceClient(h.client, setEPR)
	if got, _ := rc.GetPropertyText(ctx, QStatus); got != SetCancelled {
		t.Fatalf("status = %q", got)
	}
	// Cancelling a job set with no live run faults.
	ghost := h.ss.WSRF().EPRFor("nope")
	if _, err := h.client.Call(ctx, ghost, ActionCancel, cancelRequest()); err == nil {
		t.Fatal("cancel of unknown set accepted")
	}
}

func TestSubmitValidation(t *testing.T) {
	h := newSSHarness(t, Greedy{}, nil, "node-a")
	ctx := context.Background()

	// Invalid spec (cycle) → typed fault.
	bad := &JobSetSpec{Name: "cycle", Jobs: []JobSpec{
		{Name: "a", Executable: "local://x", Inputs: []FileSpec{{LocalName: "i", Source: "b://o"}}, Outputs: []string{"o"}},
		{Name: "b", Executable: "local://x", Inputs: []FileSpec{{LocalName: "i", Source: "a://o"}}, Outputs: []string{"o"}},
	}}
	_, err := h.client.Call(ctx, h.ss.EPR(), ActionSubmit, SubmitRequest(bad, h.filesEPR(), h.listenerEPR()))
	if bf, ok := wsrf.BaseFaultFromError(err); !ok || bf.ErrorCode != "InvalidJobSetFault" {
		t.Fatalf("want InvalidJobSetFault, got %v", err)
	}

	// local:// files but no file server EPR.
	spec := &JobSetSpec{Name: "s", Jobs: []JobSpec{{Name: "j", Executable: "local://x"}}}
	_, err = h.client.Call(ctx, h.ss.EPR(), ActionSubmit, SubmitRequest(spec, wsa.EndpointReference{}, h.listenerEPR()))
	if err == nil {
		t.Fatal("submit without client file server accepted")
	}

	// Empty body.
	_, err = h.client.Call(ctx, h.ss.EPR(), ActionSubmit, &xmlutil.Element{Name: qSubmit})
	if err == nil {
		t.Fatal("empty submit accepted")
	}
}

func TestRoundRobinSpreadsBatch(t *testing.T) {
	h := newSSHarness(t, RoundRobin{}, nil, "node-a", "node-b")
	h.files.Publish("w.app", procspawn.BuildScript("compute 50", "exit 0"))
	spec := &JobSetSpec{Name: "rr"}
	for _, name := range []string{"w1", "w2", "w3", "w4"} {
		spec.Jobs = append(spec.Jobs, JobSpec{Name: name, Executable: "local://w.app"})
	}
	setEPR, topic, err := h.submit(t, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := h.waitTerminal(t, topic); got != "completed" {
		t.Fatalf("terminal event %q", got)
	}
	rc := wsrf.NewResourceClient(h.client, setEPR)
	states, err := rc.GetProperty(context.Background(), QJobState)
	if err != nil {
		t.Fatal(err)
	}
	perNode := map[string]int{}
	for _, st := range states {
		perNode[st.Attr(qNodeAttr)]++
	}
	if perNode["node-a"] != 2 || perNode["node-b"] != 2 {
		t.Fatalf("round-robin placement %v", perNode)
	}
}

func TestNewConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
	if _, err := New(Config{Home: wsrf.NewStateHome(resourcedb.NewTable("x", resourcedb.BlobCodec{})), Client: transport.NewClient()}); err == nil {
		t.Fatal("config without NIS/Broker accepted")
	}
}

// TestJobWatchdogFailsUnreachableMachine: a machine that cannot be reached
// and has stopped renewing loses its lease; the watchdog then fails its
// attempt, and the set's verdict names the machine.
func TestJobWatchdogFailsUnreachableMachine(t *testing.T) {
	h := newSSHarness(t, Greedy{}, nil, "node-a")
	h.ss.jobTimeout = 200 * time.Millisecond
	h.files.Publish("j.app", procspawn.BuildScript("compute 100000000", "exit 0"))
	spec := &JobSetSpec{Name: "wedge", Jobs: []JobSpec{{Name: "j", Executable: "local://j.app"}}}
	_, topic, err := h.submit(t, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	waitStarted(t, h.events)
	h.silence(t, "node-a")

	ev := h.waitVerdict(t, topic)
	if ev.Status != SetFailed || !strings.Contains(ev.Detail, "node-a left the catalog") {
		t.Fatalf("verdict %s (%q), want failed, naming node-a's lapsed lease", ev.Status, ev.Detail)
	}
}

// TestLongAttemptsSendNoStatusReads: 64 attempts, each running for more
// than ten watchdog windows, are watched through their machines' renewals
// alone. No job's Status is read from its ES, the catalog is polled once
// per set taken on and at most once per TTL besides, however many
// watchdogs fire, and every set completes with one dispatch and one start
// per job.
func TestLongAttemptsSendNoStatusReads(t *testing.T) {
	const window, sets, jobs = 25 * time.Millisecond, 4, 16
	h := newSSHarness(t, RoundRobin{}, nil, "node-a", "node-b", "node-c", "node-d", "node-e", "node-f", "node-g", "node-h")
	h.ss.jobTimeout = window
	runs := h.countRuns()
	var statusReads, polls atomic.Int64
	h.client.Use(func(ctx context.Context, call *soap.CallInfo, next soap.Handler) (*soap.Envelope, error) {
		switch {
		case call.Path == "/ExecutionService" && call.Action == wsrf.ActionGetResourceProperty:
			statusReads.Add(1)
		case call.Action == nodeinfo.ActionGetProcessors:
			polls.Add(1)
		}
		return next(ctx, call)
	})
	// 300000 units: 0.75 s on a core of its own, thirty windows; 64 jobs
	// on 16 cores take about four times as long, past the catalog's TTL,
	// so the watchdogs find it stale at least once.
	h.files.Publish("long.app", procspawn.BuildScript("compute 300000", "exit 0"))
	began := time.Now()
	topics := make(map[string]bool, sets)
	for i := 0; i < sets; i++ {
		spec := &JobSetSpec{Name: fmt.Sprintf("long-%d", i)}
		for j := 0; j < jobs; j++ {
			spec.Jobs = append(spec.Jobs, JobSpec{Name: fmt.Sprintf("j%d", j), Executable: "local://long.app", Retry: RetryPolicy{Limit: 1}})
		}
		_, topic, err := h.submit(t, spec, nil)
		if err != nil {
			t.Fatal(err)
		}
		topics[topic] = true
	}
	started, exited := make(map[string]time.Time), make(map[string]time.Duration)
	starts := make(map[string]int)
	verdicts := make(map[string]string)
	deadline := time.After(60 * time.Second)
	for len(verdicts) < sets {
		select {
		case n := <-h.events:
			ev, ok := ParseEvent(n)
			if !ok || !topics[ev.Set] {
				continue
			}
			job := ev.Set + "/" + ev.Job
			switch ev.Kind {
			case execution.EventStarted:
				starts[job]++
				started[job] = time.Now()
			case execution.EventExited:
				exited[job] = time.Since(started[job])
			default:
				if ev.Job == "" {
					verdicts[ev.Set] = ev.Status
				}
			}
		case <-deadline:
			t.Fatalf("%d of %d sets have a verdict", len(verdicts), sets)
		}
	}
	took := time.Since(began)
	for topic, status := range verdicts {
		if status != SetCompleted {
			t.Errorf("set %s %s, want %s", topic, status, SetCompleted)
		}
	}
	runs.mu.Lock()
	defer runs.mu.Unlock()
	if len(runs.byJob) != sets*jobs {
		t.Errorf("%d jobs dispatched, want %d", len(runs.byJob), sets*jobs)
	}
	for job, n := range runs.byJob {
		if n != 1 {
			t.Errorf("%s dispatched %d times, want once", job, n)
		}
	}
	// The listener's buffer may drop an event; it never invents one.
	for job, n := range starts {
		if n != 1 {
			t.Errorf("%s started %d times, want once", job, n)
		}
		if ran, ok := exited[job]; ok && ran < 10*window {
			t.Errorf("%s ran %v, under ten windows", job, ran)
		}
	}
	if n := statusReads.Load(); n != 0 {
		t.Errorf("%d Status reads to an ES, want 0", n)
	}
	// One poll per set taken on, one per TTL since the first, and the one
	// that finds the cache stale at the end.
	if n, most := polls.Load(), int64(sets)+int64(took/catalogTTL)+1; n > most {
		t.Errorf("%d GetProcessors polls in %v, want at most %d", n, took, most)
	}
	t.Logf("%d attempts in %v: %d Status reads, %d polls", len(starts), took.Round(time.Millisecond), statusReads.Load(), polls.Load())
}

// TestRestartedMachineFailsItsOldAttempts: a machine restarted on its
// store renews at once, but its new ES runs none of the old process's
// attempts, so its renewals do not list them: the watchdog fails the
// attempt, naming the renewal.
func TestRestartedMachineFailsItsOldAttempts(t *testing.T) {
	h := newSSHarness(t, Greedy{}, nil)
	h.ss.jobTimeout = 100 * time.Millisecond
	store := resourcedb.NewStore()
	start := func() (n *node.Node, kill func()) {
		var dead atomic.Bool // a killed process sends nothing more
		client := transport.NewClient().WithNetwork(h.network)
		client.Use(func(ctx context.Context, call *soap.CallInfo, next soap.Handler) (*soap.Envelope, error) {
			if dead.Load() {
				return nil, errors.New("the process is gone")
			}
			return next(ctx, call)
		})
		n, err := node.New(node.Config{Name: "node-a", Network: h.network, Client: client, Cores: 2, SpeedMHz: 2000,
			UnitTime: 5 * time.Microsecond, Broker: h.broker.EPR(), NIS: h.ss.nis, Store: store})
		if err != nil {
			t.Fatal(err)
		}
		if err := n.Register(context.Background()); err != nil {
			t.Fatal(err)
		}
		n.Start()
		t.Cleanup(n.Stop)
		return n, func() { n.Stop(); dead.Store(true) }
	}
	_, kill := start()
	h.files.Publish("j.app", procspawn.BuildScript("compute 100000000", "exit 0"))
	spec := &JobSetSpec{Name: "restarted", Jobs: []JobSpec{{Name: "j", Executable: "local://j.app"}}}
	_, topic, err := h.submit(t, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	waitStarted(t, h.events)
	kill()
	start()

	ev := h.waitVerdict(t, topic)
	if ev.Status != SetFailed || !strings.Contains(ev.Detail, "node-a renewed") || !strings.Contains(ev.Detail, "without listing the attempt") {
		t.Fatalf("verdict %s (%q), want failed, naming node-a's renewal", ev.Status, ev.Detail)
	}
}

func TestJobWatchdogDoesNotFireOnHealthyJobs(t *testing.T) {
	h := newSSHarness(t, Greedy{}, nil, "node-a")
	h.files.Publish("j.app", procspawn.BuildScript("exit 0"))
	spec := &JobSetSpec{Name: "fine", Jobs: []JobSpec{{Name: "j", Executable: "local://j.app"}}}
	_, topic, err := h.submit(t, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := h.waitTerminal(t, topic); got != "completed" {
		t.Fatalf("terminal event %q", got)
	}
}

// TestLongJobOutlivesTheWatchdog: a job that runs for ten watchdog windows
// on a renewing machine is long, not lost. Each time the watchdog fires
// the machine's last renewal lists the attempt, or came too soon to, so the
// job completes with one spawn and no retry spent, though its budget would
// allow two.
func TestLongJobOutlivesTheWatchdog(t *testing.T) {
	const window = 50 * time.Millisecond
	h := newSSHarness(t, Greedy{}, nil, "node-a")
	h.ss.jobTimeout = window
	// 200000 units at 2000 MHz and 5 µs a unit: 0.5 s, ten windows.
	h.files.Publish("long.app", procspawn.BuildScript("compute 200000", "exit 0"))
	spec := &JobSetSpec{Name: "long", Jobs: []JobSpec{{
		Name: "long", Executable: "local://long.app", Retry: RetryPolicy{Limit: 2},
	}}}
	began := time.Now()
	setEPR, topic, err := h.submit(t, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	starts, verdict := 0, ""
	deadline := time.After(30 * time.Second)
	for verdict == "" {
		select {
		case n := <-h.events:
			switch n.Topic {
			case topic + "/long/started":
				starts++
			case topic + "/jobset/completed", topic + "/jobset/failed":
				verdict = n.Topic[len(topic+"/jobset/"):]
			}
		case <-deadline:
			t.Fatal("no terminal job-set event")
		}
	}
	if verdict != "completed" || starts != 1 {
		t.Fatalf("set %s after %d start(s), want completed after one", verdict, starts)
	}
	if took := time.Since(began); took < 10*window {
		t.Fatalf("the job took %v, less than ten windows", took)
	}
	doc, err := h.ss.WSRF().Home().Load(setEPR.Property(wsrf.QResourceID))
	if err != nil {
		t.Fatal(err)
	}
	view := ParseJobSetDocument(doc)
	if jv := view.Job("long"); jv == nil || jv.Attempt != 0 {
		t.Fatalf("job view %+v, want no retry spent", jv)
	}
}
