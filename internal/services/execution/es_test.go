package execution

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"uvacg/internal/procspawn"
	"uvacg/internal/resourcedb"
	"uvacg/internal/services/filesystem"
	"uvacg/internal/soap"
	"uvacg/internal/transport"
	"uvacg/internal/vfs"
	"uvacg/internal/wsa"
	"uvacg/internal/wsn"
	"uvacg/internal/wsrf"
	"uvacg/internal/wssec"
	"uvacg/internal/xmlutil"
)

// esHarness is one machine (FSS + ES) plus a broker-like consumer that
// records every published event.
type esHarness struct {
	client  *transport.Client
	es      *Service
	spawner *procspawn.Spawner
	fss     *filesystem.Service
	files   *filesystem.FileServer
	events  <-chan wsn.Notification
	seen    map[string]wsn.Notification
	// notifies is the event kinds of each Notify the broker stand-in was
	// sent, one entry per exchange.
	notifies <-chan []string
}

func newESHarness(t *testing.T, accounts wssec.StaticAccounts) *esHarness {
	t.Helper()
	var sec *wssec.VerifierConfig
	if accounts != nil {
		id, err := wssec.NewIdentity("CN=ES/node-a")
		if err != nil {
			t.Fatal(err)
		}
		sec = &wssec.VerifierConfig{Identity: id, Accounts: accounts, Required: true}
	}
	return newESHarnessWithSecurity(t, accounts, sec, nil)
}

// newESHarnessWithSecurity separates the machine accounts ProcSpawn
// enforces from the grid-level security the ES verifies, so the
// account-mapping extension can be exercised.
func newESHarnessWithSecurity(t *testing.T, spawnAccounts wssec.StaticAccounts, sec *wssec.VerifierConfig, mapper wssec.AccountMapper) *esHarness {
	t.Helper()
	network := transport.NewNetwork()
	client := transport.NewClient().WithNetwork(network)
	fs := vfs.New()
	store := resourcedb.NewStore()

	fss, err := filesystem.New(filesystem.Config{
		Address: "inproc://node-a",
		FS:      fs,
		Client:  client,
		Home:    wsrf.NewStateHome(store.MustTable("dirs", resourcedb.StructuredCodec{})),
	})
	if err != nil {
		t.Fatal(err)
	}
	spawnCfg := procspawn.Config{
		FS:       fs,
		Cores:    2,
		SpeedMHz: 2000,
		UnitTime: 5 * time.Microsecond,
	}
	if spawnAccounts != nil {
		spawnCfg.Accounts = spawnAccounts
	}
	spawner, err := procspawn.NewSpawner(spawnCfg)
	if err != nil {
		t.Fatal(err)
	}

	// A bare consumer standing in for the broker: ES publishes Notify
	// to it directly.
	consumer := wsn.NewConsumer()
	events := consumer.Channel(wsn.MustTopicExpression(wsn.DialectFull, "*//"), 64)
	brokerMux := soap.NewMux()
	consumer.Mount(brokerMux, "/NotificationBroker")
	brokerSrv := transport.NewServer(brokerMux)
	notifies := make(chan []string, 64) // as many exchanges as events fits
	brokerSrv.Use(func(ctx context.Context, call *soap.CallInfo, next soap.Handler) (*soap.Envelope, error) {
		if ns, err := wsn.ParseNotifyBody(call.Request.Body); err == nil {
			kinds := make([]string, len(ns))
			for i, n := range ns {
				kinds[i] = n.Topic[strings.LastIndex(n.Topic, "/")+1:]
			}
			notifies <- kinds
		}
		return next(ctx, call)
	})
	network.Register("master", brokerSrv)

	esCfg := Config{
		Address:    "inproc://node-a",
		Home:       wsrf.NewStateHome(store.MustTable("jobs", resourcedb.StructuredCodec{})),
		Client:     client,
		FSS:        fss.EPR(),
		Spawner:    spawner,
		Broker:     wsa.NewEPR("inproc://master/NotificationBroker"),
		Security:   sec,
		MapAccount: mapper,
	}
	es, err := New(esCfg)
	if err != nil {
		t.Fatal(err)
	}

	mux := soap.NewMux()
	mux.Handle(fss.WSRF().Path(), fss.WSRF().Dispatcher())
	mux.Handle(es.WSRF().Path(), es.WSRF().Dispatcher())
	network.Register("node-a", transport.NewServer(mux))

	files := filesystem.NewFileServer("/files")
	clientMux := soap.NewMux()
	files.Mount(clientMux)
	network.Register("client", transport.NewServer(clientMux))

	return &esHarness{client: client, es: es, spawner: spawner, fss: fss, files: files, events: events, seen: make(map[string]wsn.Notification), notifies: notifies}
}

func (h *esHarness) filesEPR() wsa.EndpointReference { return wsa.NewEPR("inproc://client/files") }

// testAttempt is the attempt identity the harness's Run requests carry;
// every lifecycle event of those jobs must echo it.
const testAttempt = "7c9e6a01.3"

func (h *esHarness) runJob(t *testing.T, creds *wssec.Credentials, script []byte) (job, dir wsa.EndpointReference) {
	t.Helper()
	h.files.Publish("job.app", script)
	env := soap.New(WithAttempt(RunRequest("job1", "jobset-t", "job.app", []filesystem.FileRef{
		{Source: h.filesEPR(), RemoteName: "job.app"},
	}), testAttempt))
	if creds != nil {
		if err := wssec.AttachUsernameToken(env, *creds, false, time.Now()); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := h.client.Invoke(context.Background(), h.es.EPR(), ActionRun, env)
	if err != nil {
		t.Fatal(err)
	}
	job, dir, err = ParseRunResponse(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return job, dir
}

// waitEvent returns the first event of the given kind. One-way delivery
// does not guarantee ordering, so events of other kinds seen along the
// way are remembered for later waits.
func (h *esHarness) waitEvent(t *testing.T, kind string) wsn.Notification {
	t.Helper()
	if n, ok := h.seen[kind]; ok {
		delete(h.seen, kind)
		return n
	}
	deadline := time.After(10 * time.Second)
	for {
		select {
		case n := <-h.events:
			ev, err := ParseJobEvent(n.Message)
			if err != nil {
				continue
			}
			if ev.Attempt != testAttempt {
				t.Fatalf("%s event carries attempt %q, the Run request said %q", ev.Kind, ev.Attempt, testAttempt)
			}
			if ev.Kind == kind {
				return n
			}
			h.seen[ev.Kind] = n
		case <-deadline:
			t.Fatalf("event %q never published (seen: %v)", kind, keysOf(h.seen))
		}
	}
}

func keysOf(m map[string]wsn.Notification) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

func TestRunJobLifecycle(t *testing.T) {
	accounts := wssec.StaticAccounts{"u": "p"}
	h := newESHarness(t, accounts)
	creds := wssec.Credentials{Username: "u", Password: "p"}
	job, dir := h.runJob(t, &creds, procspawn.BuildScript("compute 10", "write out.txt done", "exit 0"))
	if job.IsZero() || dir.IsZero() {
		t.Fatal("missing EPRs in response")
	}

	// Events flow in order: directory, started, exited (steps 9-10).
	h.waitEvent(t, EventDirectory)
	h.waitEvent(t, EventStarted)
	exited := h.waitEvent(t, EventExited)
	ev, err := ParseJobEvent(exited.Message)
	if err != nil {
		t.Fatal(err)
	}
	if !ev.HasExit || ev.ExitCode != 0 {
		t.Fatalf("exit event = %+v", ev)
	}

	// The job resource records the outcome.
	rc := wsrf.NewResourceClient(h.client, job)
	ctx := context.Background()
	if got, err := rc.GetPropertyText(ctx, QStatus); err != nil || got != StatusExited {
		t.Fatalf("status = %q %v", got, err)
	}
	if got, err := rc.GetPropertyText(ctx, QExitCode); err != nil || got != "0" {
		t.Fatalf("exit code property = %q %v", got, err)
	}
	if got, err := rc.GetPropertyText(ctx, QOwner); err != nil || got != "u" {
		t.Fatalf("owner = %q %v", got, err)
	}
	// CPUTime is a computed property; it must answer even after exit.
	if _, err := rc.GetPropertyText(ctx, QCPUTime); err != nil {
		t.Fatal(err)
	}
	// The output landed in the working directory.
	out, err := filesystem.FetchFile(ctx, h.client, dir, "out.txt")
	if err != nil || string(out) != "done" {
		t.Fatalf("output %q %v", out, err)
	}
}

func TestRunRequiresCredentialsWhenSecured(t *testing.T) {
	h := newESHarness(t, wssec.StaticAccounts{"u": "p"})
	h.files.Publish("job.app", procspawn.BuildScript("exit 0"))
	env := soap.New(RunRequest("job1", "t", "job.app", []filesystem.FileRef{
		{Source: h.filesEPR(), RemoteName: "job.app"},
	}))
	_, err := h.client.Invoke(context.Background(), h.es.EPR(), ActionRun, env)
	if err == nil {
		t.Fatal("unauthenticated Run accepted")
	}
}

func TestRunSpawnsAsRequestedUserOnly(t *testing.T) {
	// Spawner-level enforcement: valid WS-Security principal flows to
	// ProcSpawn, which runs the job as that user.
	h := newESHarness(t, wssec.StaticAccounts{"u": "p"})
	creds := wssec.Credentials{Username: "u", Password: "p"}
	job, _ := h.runJob(t, &creds, procspawn.BuildScript("exit 0"))
	h.waitEvent(t, EventExited)
	rc := wsrf.NewResourceClient(h.client, job)
	if owner, _ := rc.GetPropertyText(context.Background(), QOwner); owner != "u" {
		t.Fatalf("owner = %q", owner)
	}
}

func TestFailedStagingPublishesFailure(t *testing.T) {
	h := newESHarness(t, nil)
	// Reference a file the client never published.
	env := soap.New(WithAttempt(RunRequest("job1", "jobset-t", "ghost.app", []filesystem.FileRef{
		{Source: h.filesEPR(), RemoteName: "ghost.app"},
	}), testAttempt))
	resp, err := h.client.Invoke(context.Background(), h.es.EPR(), ActionRun, env)
	if err != nil {
		t.Fatal(err)
	}
	job, _, err := ParseRunResponse(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	n := h.waitEvent(t, EventFailed)
	ev, _ := ParseJobEvent(n.Message)
	if ev.Error == "" {
		t.Fatal("failure event has no error detail")
	}
	rc := wsrf.NewResourceClient(h.client, job)
	deadline := time.Now().Add(5 * time.Second)
	for {
		got, err := rc.GetPropertyText(context.Background(), QStatus)
		if err != nil {
			t.Fatal(err)
		}
		if got == StatusFailed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("status = %q", got)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestKillRunningJob(t *testing.T) {
	h := newESHarness(t, nil)
	job, _ := h.runJob(t, nil, procspawn.BuildScript("compute 100000000", "exit 0"))
	h.waitEvent(t, EventStarted)
	ctx := context.Background()
	if _, err := h.client.Call(ctx, job, ActionKill, KillRequest()); err != nil {
		t.Fatal(err)
	}
	n := h.waitEvent(t, EventExited)
	ev, _ := ParseJobEvent(n.Message)
	if ev.ExitCode != procspawn.ExitKilled {
		t.Fatalf("exit = %d", ev.ExitCode)
	}
	rc := wsrf.NewResourceClient(h.client, job)
	if got, _ := rc.GetPropertyText(ctx, QStatus); got != StatusKilled {
		t.Fatalf("status = %q", got)
	}
}

func TestKillWithoutProcessFaults(t *testing.T) {
	h := newESHarness(t, nil)
	job, _ := h.runJob(t, nil, procspawn.BuildScript("exit 0"))
	h.waitEvent(t, EventExited)
	// The process has exited; once the exit event is out, killing may
	// still succeed briefly (handle retained) — destroy the resource and
	// kill THAT.
	ghost := h.es.WSRF().EPRFor("no-such-job")
	_, err := h.client.Call(context.Background(), ghost, ActionKill, KillRequest())
	if _, ok := wsrf.BaseFaultFromError(err); !ok {
		t.Fatalf("want BaseFault, got %v", err)
	}
	_ = job
}

func TestDestroyJobResourceKillsProcess(t *testing.T) {
	h := newESHarness(t, nil)
	job, _ := h.runJob(t, nil, procspawn.BuildScript("compute 100000000", "exit 0"))
	h.waitEvent(t, EventStarted)
	rc := wsrf.NewResourceClient(h.client, job)
	if err := rc.Destroy(context.Background()); err != nil {
		t.Fatal(err)
	}
	// The destroy hook killed the process: the exit event reports it.
	n := h.waitEvent(t, EventExited)
	ev, _ := ParseJobEvent(n.Message)
	if ev.ExitCode != procspawn.ExitKilled {
		t.Fatalf("exit = %d", ev.ExitCode)
	}
}

// TestDestroyReapsProcessRecord: destroying a job resource is what lets
// ProcSpawn forget the job's process — at once if it has exited, when the
// kill lands if it was still running.
func TestDestroyReapsProcessRecord(t *testing.T) {
	t.Run("exited, then destroyed", func(t *testing.T) {
		h := newESHarness(t, nil)
		job, _ := h.runJob(t, nil, procspawn.BuildScript("exit 0"))
		h.waitEvent(t, EventExited)
		if n := len(h.spawner.PIDs()); n != 1 {
			t.Fatalf("%d process records after one job, want 1", n)
		}
		if err := wsrf.NewResourceClient(h.client, job).Destroy(context.Background()); err != nil {
			t.Fatal(err)
		}
		if pids := h.spawner.PIDs(); len(pids) != 0 {
			t.Fatalf("process records %v outlive their destroyed job", pids)
		}
	})
	t.Run("destroyed while running", func(t *testing.T) {
		h := newESHarness(t, nil)
		job, _ := h.runJob(t, nil, procspawn.BuildScript("compute 100000000", "exit 0"))
		h.waitEvent(t, EventStarted)
		if err := wsrf.NewResourceClient(h.client, job).Destroy(context.Background()); err != nil {
			t.Fatal(err)
		}
		// The record goes before the exit is published.
		if ev, _ := ParseJobEvent(h.waitEvent(t, EventExited).Message); ev.ExitCode != procspawn.ExitKilled {
			t.Fatalf("exit = %d, want killed", ev.ExitCode)
		}
		if pids := h.spawner.PIDs(); len(pids) != 0 {
			t.Fatalf("process records %v outlive their destroyed job", pids)
		}
	})
}

func TestJobEventRoundTrip(t *testing.T) {
	job := wsa.NewEPR("inproc://a/ES").WithProperty(wsrf.QResourceID, "j1")
	dir := wsa.NewEPR("inproc://a/FSS").WithProperty(wsrf.QResourceID, "d1")
	payload := xmlutil.NewContainer(qJobEvent,
		xmlutil.NewElement(QJobName, "job1"),
		xmlutil.NewElement(QStatus, EventExited),
		xmlutil.NewElement(QAttempt, testAttempt),
		job.ElementNamed(qJob),
		dir.ElementNamed(QDirectory),
		xmlutil.NewElement(QExitCode, strconv.Itoa(137)),
	)
	data, err := xmlutil.MarshalElement(payload)
	if err != nil {
		t.Fatal(err)
	}
	el, err := xmlutil.UnmarshalElement(data)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := ParseJobEvent(el)
	if err != nil {
		t.Fatal(err)
	}
	if ev.JobName != "job1" || ev.Kind != EventExited || ev.Attempt != testAttempt || !ev.HasExit || ev.ExitCode != 137 {
		t.Fatalf("event = %+v", ev)
	}
	if !ev.Job.Equal(job) || !ev.Directory.Equal(dir) {
		t.Fatalf("EPRs lost: %+v", ev)
	}
}

func TestParseJobEventErrors(t *testing.T) {
	if _, err := ParseJobEvent(nil); err == nil {
		t.Error("nil accepted")
	}
	if _, err := ParseJobEvent(xmlutil.NewElement(xmlutil.Q("urn:x", "y"), "")); err == nil {
		t.Error("foreign element accepted")
	}
	bad := xmlutil.NewContainer(qJobEvent, xmlutil.NewElement(QExitCode, "NaN"))
	if _, err := ParseJobEvent(bad); err == nil {
		t.Error("bad exit code accepted")
	}
}

func TestParseRunResponseErrors(t *testing.T) {
	if _, _, err := ParseRunResponse(nil); err == nil {
		t.Error("nil accepted")
	}
	if _, _, err := ParseRunResponse(&xmlutil.Element{Name: qRunJobResponse}); err == nil {
		t.Error("job-less response accepted")
	}
}

func TestRunValidation(t *testing.T) {
	h := newESHarness(t, nil)
	ctx := context.Background()
	// Missing job name.
	bad := RunRequest("", "t", "app", nil)
	if _, err := h.client.Call(ctx, h.es.EPR(), ActionRun, bad); err == nil {
		t.Error("nameless run accepted")
	}
}

func TestGridAccountMapping(t *testing.T) {
	// Grid identity "wasson@virginia.edu" is not a machine account; the
	// ES maps it to the local "labuser" before spawning — the gridmap
	// pattern the paper's §4.2 anticipates.
	machineAccounts := wssec.StaticAccounts{"labuser": "localpw"}
	gridAccounts := wssec.StaticAccounts{"wasson@virginia.edu": "gridpw"}
	h := newESHarnessWithSecurity(t, machineAccounts, &wssec.VerifierConfig{
		Accounts: gridAccounts,
		Required: true,
	}, wssec.GridMap{
		"wasson@virginia.edu": {Username: "labuser", Password: "localpw"},
	})

	creds := wssec.Credentials{Username: "wasson@virginia.edu", Password: "gridpw"}
	job, _ := h.runJob(t, &creds, procspawn.BuildScript("exit 0"))
	h.waitEvent(t, EventExited)
	rc := wsrf.NewResourceClient(h.client, job)
	owner, err := rc.GetPropertyText(context.Background(), QOwner)
	if err != nil {
		t.Fatal(err)
	}
	if owner != "labuser" {
		t.Fatalf("job ran as %q, want mapped local account", owner)
	}
}

func TestGridAccountMappingRejectsUnmapped(t *testing.T) {
	machineAccounts := wssec.StaticAccounts{"labuser": "localpw"}
	gridAccounts := wssec.StaticAccounts{"stranger@elsewhere.edu": "pw"}
	h := newESHarnessWithSecurity(t, machineAccounts, &wssec.VerifierConfig{
		Accounts: gridAccounts,
		Required: true,
	}, wssec.GridMap{}) // empty map: nobody is mapped

	h.files.Publish("job.app", procspawn.BuildScript("exit 0"))
	env := soap.New(RunRequest("job1", "t", "job.app", []filesystem.FileRef{
		{Source: h.filesEPR(), RemoteName: "job.app"},
	}))
	creds := wssec.Credentials{Username: "stranger@elsewhere.edu", Password: "pw"}
	if err := wssec.AttachUsernameToken(env, creds, false, time.Now()); err != nil {
		t.Fatal(err)
	}
	_, err := h.client.Invoke(context.Background(), h.es.EPR(), ActionRun, env)
	bf, ok := wsrf.BaseFaultFromError(err)
	if !ok || bf.ErrorCode != "NoAccountMappingFault" {
		t.Fatalf("want NoAccountMappingFault, got %v", err)
	}
}

func TestBrokerOutageDoesNotBlockExecution(t *testing.T) {
	// The ES publishes lifecycle events best-effort: with the broker
	// unreachable, the job must still stage, run and record its exit in
	// the job resource (clients can fall back to polling properties).
	h := newESHarness(t, nil)
	// Point the ES at a broker host that does not exist.
	h.es.broker = wsa.NewEPR("inproc://no-such-broker/NB")

	job, _ := h.runJob(t, nil, procspawn.BuildScript("write out.txt ok", "exit 0"))
	rc := wsrf.NewResourceClient(h.client, job)
	ctx := context.Background()
	deadline := time.Now().Add(10 * time.Second)
	for {
		status, err := rc.GetPropertyText(ctx, QStatus)
		if err != nil {
			t.Fatal(err)
		}
		if status == StatusExited {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %q with broker down", status)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if code, _ := rc.GetPropertyText(ctx, QExitCode); code != "0" {
		t.Fatalf("exit code %q", code)
	}
}

// waitNotify returns the event kinds of the next Notify the broker got.
func (h *esHarness) waitNotify(t *testing.T) string {
	t.Helper()
	select {
	case kinds := <-h.notifies:
		return fmt.Sprint(kinds)
	case <-time.After(10 * time.Second):
		t.Fatal("no Notify reached the broker")
		return ""
	}
}

// TestDirectoryRidesWithStarted: Fig. 3 step 9 is one broadcast — the
// directory and job EPRs leave in one Notify, directory first, once the
// process is up; Run itself publishes nothing.
func TestDirectoryRidesWithStarted(t *testing.T) {
	h := newESHarness(t, nil)
	job, _ := h.runJob(t, nil, procspawn.BuildScript("compute 100000000", "exit 0"))
	if got := h.waitNotify(t); got != "[directory started]" {
		t.Fatalf("the job's first Notify carries %s, want [directory started]", got)
	}
	if _, err := h.client.Call(context.Background(), job, ActionKill, KillRequest()); err != nil {
		t.Fatal(err)
	}
	if got := h.waitNotify(t); got != "[exited]" {
		t.Fatalf("the job's second Notify carries %s, want [exited]", got)
	}
	for _, kind := range []string{EventDirectory, EventStarted, EventExited} {
		ev, err := ParseJobEvent(h.waitEvent(t, kind).Message)
		if err != nil || !ev.Job.Equal(job) || ev.Directory.IsZero() {
			t.Fatalf("%s event = %+v, %v: want the job and directory EPRs", kind, ev, err)
		}
	}
}

// TestFailedStagingSendsDirectoryThenFailed: a job that never starts still
// says where its directory is, in the same Notify as the verdict.
func TestFailedStagingSendsDirectoryThenFailed(t *testing.T) {
	h := newESHarness(t, nil)
	env := soap.New(WithAttempt(RunRequest("job1", "jobset-t", "ghost.app", []filesystem.FileRef{
		{Source: h.filesEPR(), RemoteName: "ghost.app"},
	}), testAttempt))
	if _, err := h.client.Invoke(context.Background(), h.es.EPR(), ActionRun, env); err != nil {
		t.Fatal(err)
	}
	if got := h.waitNotify(t); got != "[directory failed]" {
		t.Fatalf("the failed job's Notify carries %s, want [directory failed]", got)
	}
}

// hungTransport is a peer that takes the connection and never answers.
type hungTransport struct{ release chan struct{} }

func (h hungTransport) RoundTrip(ctx context.Context, _ string, _ *transport.Message) (*transport.Message, error) {
	return nil, h.Send(ctx, "", nil)
}

func (h hungTransport) Send(ctx context.Context, _ string, _ *transport.Message) error {
	select {
	case <-h.release:
		return fmt.Errorf("hung peer went away")
	case <-ctx.Done():
		return ctx.Err()
	}
}

// TestRunDoesNotWaitForBroker: with a broker that never answers, Run
// returns, the job stages, runs and records its exit — no lifecycle event
// is on a job's path — and a drain says the events are still queued.
func TestRunDoesNotWaitForBroker(t *testing.T) {
	h := newESHarness(t, nil)
	hung := hungTransport{release: make(chan struct{})}
	t.Cleanup(func() { close(hung.release) })
	h.client.RegisterScheme("hung", hung)
	h.es.broker = wsa.NewEPR("hung://master/NotificationBroker")

	h.files.Publish("job.app", procspawn.BuildScript("write out.txt done", "exit 0"))
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	env := soap.New(WithAttempt(RunRequest("job1", "jobset-t", "job.app", []filesystem.FileRef{
		{Source: h.filesEPR(), RemoteName: "job.app"},
	}), testAttempt))
	resp, err := h.client.Invoke(ctx, h.es.EPR(), ActionRun, env)
	if err != nil {
		t.Fatalf("Run waited for the broker: %v", err)
	}
	job, _, err := ParseRunResponse(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	rc := wsrf.NewResourceClient(h.client, job)
	for status := ""; status != StatusExited; time.Sleep(time.Millisecond) {
		if status, err = rc.GetPropertyText(ctx, QStatus); err != nil {
			t.Fatalf("the job never exited (status %q): %v", status, err)
		}
	}
	short, cancelShort := context.WithTimeout(ctx, 10*time.Millisecond)
	defer cancelShort()
	if err := h.es.DrainEvents(short); err == nil {
		t.Fatal("DrainEvents returned with the broker still holding the first Notify")
	}
}
