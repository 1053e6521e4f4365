package scheduler

import (
	"context"
	"strings"
	"testing"
	"time"

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
}

func newSSHarness(t *testing.T, policy Policy, accounts wssec.StaticAccounts, nodeNames ...string) *ssHarness {
	return newSSHarnessCfg(t, policy, accounts, nil, nodeNames...)
}

// newSSHarnessCfg is newSSHarness with a Config hook, for tests that
// need extra scheduler knobs (admission control).
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
	nis, err := nodeinfo.New(nodeinfo.Config{
		Address: "inproc://master",
		Home:    wsrf.NewStateHome(store.MustTable("nis", resourcedb.BlobCodec{})),
	})
	if err != nil {
		t.Fatal(err)
	}
	var esCerts map[string]wssec.Certificate
	ssCfg := Config{
		Address: "inproc://master",
		Home:    wsrf.NewStateHome(store.MustTable("jobsets", resourcedb.BlobCodec{})),
		Client:  client,
		NIS:     nis.EPR(),
		Broker:  broker.EPR(),
		Policy:  policy,
	}
	if accounts != nil {
		ssCfg.Security = &wssec.VerifierConfig{Accounts: accounts, Required: true}
		esCerts = make(map[string]wssec.Certificate)
		ssCfg.ESCerts = func(es wsa.EndpointReference) (wssec.Certificate, bool) {
			cert, ok := esCerts[es.Address]
			return cert, ok
		}
	}
	if mutate != nil {
		mutate(&ssCfg)
	}
	ss, err := New(ssCfg)
	if err != nil {
		t.Fatal(err)
	}

	masterMux := soap.NewMux()
	masterMux.Handle(broker.Service().Path(), broker.Service().Dispatcher())
	masterMux.Handle(broker.Producer().SubscriptionService().Path(), broker.Producer().SubscriptionService().Dispatcher())
	masterMux.Handle(nis.WSRF().Path(), nis.WSRF().Dispatcher())
	masterMux.Handle(ss.WSRF().Path(), ss.WSRF().Dispatcher())
	ss.Consumer().Mount(masterMux, ss.ConsumerPath())
	network.Register("master", transport.NewServer(masterMux))

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
		if esCerts != nil {
			esCerts[n.ES.EPR().Address] = n.Certificate()
		}
		t.Cleanup(n.Stop)
	}

	// The client side: a file server plus a notification listener.
	files := filesystem.NewFileServer("/files")
	consumer := wsn.NewConsumer()
	events := consumer.Channel(wsn.MustTopicExpression(wsn.DialectFull, "*//"), 128)
	clientMux := soap.NewMux()
	files.Mount(clientMux)
	consumer.Mount(clientMux, "/listener")
	network.Register("client", transport.NewServer(clientMux))

	return &ssHarness{network: network, client: client, ss: ss, broker: broker, files: files, events: events}
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
		if err := wssec.AttachUsernameToken(env, *creds, false, time.Now()); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := h.client.Invoke(context.Background(), h.ss.EPR(), ActionSubmit, env)
	if err != nil {
		return wsa.EndpointReference{}, "", err
	}
	return mustParseSubmitResponse(t, resp.Body)
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
	// The scheduler knows where the first job's outputs live.
	if _, ok := h.ss.OutputDirectory(topic, "first"); !ok {
		t.Fatal("output directory not recorded")
	}
	if _, ok := h.ss.OutputDirectory(topic, "ghost"); ok {
		t.Fatal("phantom job has an output directory")
	}
	if _, ok := h.ss.OutputDirectory("ghost-topic", "first"); ok {
		t.Fatal("phantom topic has an output directory")
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
	// With credentials, the SS encrypts them to the node's ES identity
	// (ESCerts is wired) and the job runs as that account end to end.
	creds := wssec.Credentials{Username: "scientist", Password: "pw"}
	_, topic, err := h.submit(t, spec, &creds)
	if err != nil {
		t.Fatal(err)
	}
	if got := h.waitTerminal(t, topic); got != "completed" {
		t.Fatalf("terminal event %q", got)
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
	if _, err := h.client.Call(ctx, setEPR, ActionCancel, CancelRequest()); err != nil {
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
	if _, err := h.client.Call(ctx, ghost, ActionCancel, CancelRequest()); err == nil {
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

func TestJobWatchdogFailsUnreachableMachine(t *testing.T) {
	h := newSSHarness(t, Greedy{}, nil, "node-a")
	h.ss.jobTimeout = 200 * time.Millisecond
	h.files.Publish("j.app", procspawn.BuildScript("compute 100000000", "exit 0"))
	spec := &JobSetSpec{Name: "wedge", Jobs: []JobSpec{{Name: "j", Executable: "local://j.app"}}}

	// The machine vanishes right after submission is accepted: the job
	// will be dispatched (the Run call still succeeds because the node
	// leaves after) — so instead, drop the node the moment it starts.
	_, topic, err := h.submit(t, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Partition the machine: no exit event will ever arrive.
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
	h.network.Deregister("node-a")

	if got := h.waitTerminal(t, topic); got != "failed" {
		t.Fatalf("terminal event %q", got)
	}
}

func TestJobWatchdogDoesNotFireOnHealthyJobs(t *testing.T) {
	h := newSSHarness(t, Greedy{}, nil, "node-a")
	h.ss.jobTimeout = 30 * time.Second
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
