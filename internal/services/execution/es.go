// Package execution implements the Execution Service (ES) of paper
// §4.2: the per-machine service "in charge of managing all activities
// related to the execution of jobs on the machine on which it resides".
// Its WS-Resources are jobs. Running a job follows the paper's exact
// choreography: create a working-directory resource via the FSS, direct
// the FSS to upload the job's files (one-way), receive the
// upload-complete notification, launch the process via ProcSpawn as the
// authenticated user, and broadcast lifecycle events through the
// Notification Broker (steps 3-10 of Fig. 3).
package execution

import (
	"context"
	"errors"
	"fmt"
	"log"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"uvacg/internal/procspawn"
	"uvacg/internal/services/filesystem"
	"uvacg/internal/soap"
	"uvacg/internal/transport"
	"uvacg/internal/wsa"
	"uvacg/internal/wsn"
	"uvacg/internal/wsrf"
	"uvacg/internal/wssec"
	"uvacg/internal/xmlutil"
)

// NS is the ES message namespace.
const NS = "urn:uvacg:es"

// Action URIs.
const (
	ActionRun  = NS + "/Run"
	ActionKill = NS + "/Kill"
)

// Job status values (the Status resource property).
const (
	StatusStaging = "Staging"
	StatusRunning = "Running"
	StatusExited  = "Exited"
	StatusKilled  = "Killed"
	StatusFailed  = "Failed"
)

// Resource property and message QNames.
var (
	QJobName   = xmlutil.Q(NS, "JobName")
	QStatus    = xmlutil.Q(NS, "Status")
	QExitCode  = xmlutil.Q(NS, "ExitCode")
	QCPUTime   = xmlutil.Q(NS, "CPUTime")
	QTopic     = xmlutil.Q(NS, "Topic")
	QAttempt   = xmlutil.Q(NS, "Attempt")
	QOwner     = xmlutil.Q(NS, "Owner")
	QDirectory = xmlutil.Q(NS, "Directory")

	qRunJob         = xmlutil.Q(NS, "RunJob")
	qRunJobResponse = xmlutil.Q(NS, "RunJobResponse")
	qExecutable     = xmlutil.Q(NS, "Executable")
	qJob            = xmlutil.Q(NS, "Job")
	qKill           = xmlutil.Q(NS, "Kill")
	qKillResponse   = xmlutil.Q(NS, "KillResponse")
	qJobEvent       = xmlutil.Q(NS, "JobEvent")
	qEventError     = xmlutil.Q(NS, "Error")
)

// Event kinds: the final topic segment of job lifecycle notifications.
const (
	EventDirectory = "directory" // working directory created; payload has its EPR
	EventStarted   = "started"   // process launched; payload has the job EPR
	EventExited    = "exited"    // process finished; payload has the exit code
	EventFailed    = "failed"    // staging or spawn failed; payload has the error
)

// Config assembles an ES.
type Config struct {
	// Address is the machine's base address.
	Address string
	// Home backs the job WS-Resources.
	Home wsrf.ResourceHome
	// Client performs outbound calls (FSS, broker).
	Client *transport.Client
	// FSS is the EPR of this machine's File System Service.
	FSS wsa.EndpointReference
	// Spawner launches processes on this machine.
	Spawner *procspawn.Spawner
	// Broker is the Notification Broker's EPR; lifecycle events are
	// published through it. Zero disables event publication.
	Broker wsa.EndpointReference
	// Security, when non-nil, is installed as dispatcher middleware:
	// Run requests must then carry valid (optionally encrypted)
	// WS-Security credentials.
	Security *wssec.VerifierConfig
	// MapAccount, when set, translates the authenticated grid principal
	// into the local account the process runs as (the gridmap-file
	// pattern §4.2 anticipates). Default: the principal's own
	// credentials are the local account.
	MapAccount wssec.AccountMapper
}

// Service is one machine's ES.
type Service struct {
	svc        *wsrf.Service
	client     *transport.Client
	fss        wsa.EndpointReference
	spawner    *procspawn.Spawner
	broker     wsa.EndpointReference
	mapAccount wssec.AccountMapper
	out        *wsn.Outbox // every lifecycle event leaves through it: in order, off the job's path

	mu sync.Mutex
	// creds holds each staged job's spawn credentials until launch; it
	// is deliberately process-memory only, never persisted.
	creds map[string]wssec.Credentials
	// procs maps job resource ids to live process handles — the "WS-
	// Resource as process" half of the job resource.
	procs map[string]*procspawn.Process
	// reservations holds each staging job's processor-slot release.
	reservations map[string]func()
}

// New builds the ES.
func New(cfg Config) (*Service, error) {
	if cfg.Home == nil || cfg.Client == nil || cfg.Spawner == nil {
		return nil, fmt.Errorf("es: config requires Home, Client and Spawner")
	}
	if cfg.FSS.IsZero() {
		return nil, fmt.Errorf("es: config requires the local FSS EPR")
	}
	svc, err := wsrf.NewService(wsrf.ServiceConfig{Path: "/ExecutionService", Address: cfg.Address, Home: cfg.Home})
	if err != nil {
		return nil, err
	}
	s := &Service{
		svc:          svc,
		client:       cfg.Client,
		fss:          cfg.FSS,
		spawner:      cfg.Spawner,
		broker:       cfg.Broker,
		mapAccount:   cfg.MapAccount,
		creds:        make(map[string]wssec.Credentials),
		procs:        make(map[string]*procspawn.Process),
		reservations: make(map[string]func()),
	}
	s.out = wsn.NewOutbox(func(ctx context.Context, to wsa.EndpointReference, batch []wsn.Notification) error {
		return wsn.PublishViaBroker(ctx, s.client, to, batch...)
	})
	if s.mapAccount == nil {
		s.mapAccount = wssec.IdentityMapper{}
	}
	if cfg.Security != nil {
		// Only Run carries credentials; FSS callbacks and WSRF property
		// reads are unauthenticated, as in the paper's testbed.
		svc.Use(wssec.InterceptorFor(*cfg.Security, ActionRun))
	}
	svc.Enable(wsrf.ResourcePropertiesPortType{})
	svc.Enable(wsrf.LifetimePortType{})
	svc.OnDestroy(s.onJobDestroyed)

	// CPUTime is computed from the live process while running — a
	// [ResourceProperty] getter over the process handle.
	svc.RegisterProperty(QCPUTime, func(ctx context.Context, inv *wsrf.Invocation) ([]*xmlutil.Element, error) {
		s.mu.Lock()
		p := s.procs[inv.ResourceID]
		s.mu.Unlock()
		var cpu time.Duration
		if p != nil {
			cpu = p.CPUTime()
		}
		return []*xmlutil.Element{xmlutil.NewElement(QCPUTime, strconv.FormatInt(cpu.Milliseconds(), 10))}, nil
	})

	svc.RegisterServiceMethod(ActionRun, s.handleRun)
	svc.RegisterMethod(ActionKill, s.handleKill)
	svc.RegisterMethod(filesystem.ActionUploadComplete, s.handleUploadComplete)
	return s, nil
}

// WSRF returns the underlying service for mounting.
func (s *Service) WSRF() *wsrf.Service { return s.svc }

// EPR returns the service endpoint.
func (s *Service) EPR() wsa.EndpointReference { return s.svc.EPR() }

// DrainEvents waits until every lifecycle event queued for the broker was
// sent (or refused), or ctx ends: a machine going down says what it has to.
func (s *Service) DrainEvents(ctx context.Context) error { return s.out.Drain(ctx) }

// onJobDestroyed kills any live process when a job resource is
// destroyed, drops retained credentials and forgets the process: its
// record is reaped here if it has left Running, otherwise by
// onProcessExit when the kill lands and finds the resource gone.
func (s *Service) onJobDestroyed(id string) {
	s.mu.Lock()
	p := s.procs[id]
	delete(s.procs, id)
	delete(s.creds, id)
	release := s.reservations[id]
	delete(s.reservations, id)
	s.mu.Unlock()
	if release != nil {
		release()
	}
	if p != nil {
		p.Kill()
		s.spawner.Reap(p.PID)
	}
}

// RunRequest builds the RunJob body: job name, notification topic,
// executable name (one of the staged files), and the files to stage.
func RunRequest(jobName, topic, executable string, files []filesystem.FileRef) *xmlutil.Element {
	req := xmlutil.NewContainer(qRunJob,
		xmlutil.NewElement(QJobName, jobName),
		xmlutil.NewElement(QTopic, topic),
		xmlutil.NewElement(qExecutable, executable),
	)
	req.Append(filesystem.FileRefElements(files)...)
	return req
}

// WithAttempt stamps a RunJob body with the scheduler's attempt identity.
// The ES stores it on the job resource and echoes it in every lifecycle
// event of that job, so the scheduler can tell which of a job's attempts
// an event is about without comparing EPRs.
func WithAttempt(req *xmlutil.Element, attempt string) *xmlutil.Element {
	return req.Append(xmlutil.NewElement(QAttempt, attempt))
}

// ParseRunResponse extracts the job and directory EPRs from a RunJob
// reply.
func ParseRunResponse(body *xmlutil.Element) (job, dir wsa.EndpointReference, err error) {
	if body == nil || body.Name != qRunJobResponse {
		return job, dir, fmt.Errorf("es: body is not a RunJobResponse")
	}
	if j := body.Child(qJob); j != nil {
		if job, err = wsa.ParseEPR(j); err != nil {
			return job, dir, err
		}
	}
	if d := body.Child(QDirectory); d != nil {
		if dir, err = wsa.ParseEPR(d); err != nil {
			return job, dir, err
		}
	}
	if job.IsZero() {
		return job, dir, fmt.Errorf("es: RunJobResponse has no job EPR")
	}
	return job, dir, nil
}

// handleRun is steps 3-4 of Fig. 3: provision the working directory,
// create the job resource and direct the FSS to stage the files (one-way).
// It publishes nothing: the response carries both EPRs to the Scheduler,
// and the broadcast of step 9 waits for the process.
func (s *Service) handleRun(ctx context.Context, inv *wsrf.Invocation, body *xmlutil.Element) (*xmlutil.Element, error) {
	if body == nil {
		return nil, soap.SenderFault("es: Run requires a body")
	}
	jobName := body.ChildText(QJobName)
	topic := body.ChildText(QTopic)
	attempt := body.ChildText(QAttempt)
	executable := body.ChildText(qExecutable)
	if jobName == "" || executable == "" {
		return nil, soap.SenderFault("es: Run requires JobName and Executable")
	}
	files, err := filesystem.ParseFileRefElements(body)
	if err != nil {
		return nil, soap.SenderFault("%v", err)
	}

	// The working directory: "the ES creates a new WS-Resource via the
	// FSS. This causes a new directory to be created."
	dirEPR, err := filesystem.CreateDirectoryVia(ctx, s.client, s.fss, jobName)
	if err != nil {
		return nil, wsrf.NewBaseFault("JobStartFault", "create working directory: %v", err).SOAPFault(soap.CodeReceiver)
	}

	principal, _ := wssec.PrincipalFrom(ctx)
	local, mapped := s.mapAccount.Map(principal)
	if !mapped {
		return nil, wsrf.NewBaseFault("NoAccountMappingFault", "grid identity %q has no local account on this machine", principal.Username).SOAPFault(soap.CodeSender)
	}
	doc := xmlutil.NewContainer(xmlutil.Q(NS, "JobState"),
		xmlutil.NewElement(QJobName, jobName),
		xmlutil.NewElement(QStatus, StatusStaging),
		xmlutil.NewElement(QTopic, topic),
		xmlutil.NewElement(QAttempt, attempt),
		xmlutil.NewElement(QOwner, local.Username),
		dirEPR.Element().Clone(),
	)
	// Rename the embedded EPR element to the Directory property name.
	doc.Children[len(doc.Children)-1].Name = QDirectory

	jobEPR, err := s.svc.CreateResource("", doc)
	if err != nil {
		return nil, soap.ReceiverFault("es: create job resource: %v", err)
	}
	jobID := jobEPR.Property(wsrf.QResourceID)
	s.mu.Lock()
	s.creds[jobID] = local
	// Hold a processor slot while the job stages, so the machine's next
	// utilization sample counts it before the process exists.
	s.reservations[jobID] = s.spawner.Reserve()
	s.mu.Unlock()

	// Step 4: one-way upload request; the FSS notifies the job resource
	// when staging finishes (step 7). The upload token carries the
	// executable's name so the completion handler knows what to launch
	// without another database read.
	upload := filesystem.UploadRequest(jobEPR, executable, files)
	if err := s.client.Notify(ctx, dirEPR, filesystem.ActionUpload, upload); err != nil {
		return nil, soap.ReceiverFault("es: dispatch upload: %v", err)
	}

	resp := xmlutil.NewContainer(qRunJobResponse,
		jobEPR.ElementNamed(qJob),
		dirEPR.ElementNamed(QDirectory),
	)
	return resp, nil
}

// handleUploadComplete is step 7→8 of Fig. 3: inputs staged, launch the
// process via ProcSpawn as the requesting user.
func (s *Service) handleUploadComplete(ctx context.Context, inv *wsrf.Invocation, body *xmlutil.Element) (*xmlutil.Element, error) {
	dirEPR, executable, success, errMsg, err := filesystem.ParseUploadComplete(body)
	if err != nil {
		return nil, soap.SenderFault("%v", err)
	}
	jobID := inv.ResourceID
	ref := &jobRef{topic: inv.Property(QTopic), name: inv.Property(QJobName), attempt: inv.Property(QAttempt), job: inv.EPR(), dir: dirEPR}

	s.mu.Lock()
	creds := s.creds[jobID]
	delete(s.creds, jobID)
	release := s.reservations[jobID]
	delete(s.reservations, jobID)
	s.mu.Unlock()
	if release != nil {
		// Released in every branch below: the slot is either replaced
		// by the real running process or freed on failure.
		defer release()
	}
	fail := func(reason string) (*xmlutil.Element, error) {
		inv.SetProperty(QStatus, StatusFailed)
		s.publishEvents(ctx, ref, ref.event(EventDirectory, "", ""), ref.event(EventFailed, "", reason))
		return nil, nil
	}

	if !success {
		return fail(errMsg)
	}

	// Resolve the working directory path from the directory resource.
	rc := wsrf.NewResourceClient(s.client, dirEPR)
	workDir, err := rc.GetPropertyText(ctx, filesystem.QPath)
	if err != nil {
		return fail("resolve working directory: " + err.Error())
	}

	proc, err := s.spawner.Spawn(procspawn.SpawnSpec{
		Executable: executable,
		WorkingDir: workDir,
		Username:   creds.Username,
		Password:   creds.Password,
		OnExit: func(p *procspawn.Process) {
			// Detach from the Run request's cancellation but keep its
			// values, so the exit event publishes under the same
			// request ID as the rest of the job's lifecycle.
			s.onProcessExit(context.WithoutCancel(ctx), jobID, ref, p)
		},
	})
	if err != nil {
		return fail("spawn: " + err.Error())
	}
	s.mu.Lock()
	s.procs[jobID] = proc
	s.mu.Unlock()
	inv.SetProperty(QStatus, StatusRunning)
	// Step 9, one broadcast: the directory EPR, for the client to watch, and
	// the job EPR, so Scheduler and client "can poll the job for its status".
	// Queued back to back, after the spawn: one Notify, directory first.
	s.publishEvents(ctx, ref, ref.event(EventDirectory, "", ""), ref.event(EventStarted, "", ""))
	return nil, nil
}

// onProcessExit is step 10: record the exit and broadcast it.
func (s *Service) onProcessExit(ctx context.Context, jobID string, ref *jobRef, p *procspawn.Process) {
	code, _ := p.ExitCode()
	status := StatusExited
	if p.State() == procspawn.StateKilled {
		status = StatusKilled
	}
	err := s.svc.UpdateResource(jobID, func(doc *xmlutil.Element) error {
		setChildText(doc, QStatus, status)
		setChildText(doc, QExitCode, strconv.Itoa(code))
		return nil
	})
	switch {
	case errors.Is(err, wsrf.ErrNoSuchResource):
		// Destroyed while it ran: nobody can ask for this process again.
		s.spawner.Reap(p.PID)
	case err != nil:
		// Not destroyed: the resource says Running for ever. Still publish.
		log.Printf("es: job %s (%s): recording exit: %v", jobID, ref.name, err)
	}
	s.publishEvents(ctx, ref, ref.event(EventExited, strconv.Itoa(code), ""))
}

func setChildText(doc *xmlutil.Element, name xmlutil.QName, text string) {
	if c := doc.Child(name); c != nil {
		c.Text = text
		return
	}
	doc.Append(xmlutil.NewElement(name, text))
}

// handleKill terminates the job's process — the client-facing method
// the paper gives job resources ("kill the job").
func (s *Service) handleKill(ctx context.Context, inv *wsrf.Invocation, body *xmlutil.Element) (*xmlutil.Element, error) {
	s.mu.Lock()
	p := s.procs[inv.ResourceID]
	s.mu.Unlock()
	if p == nil {
		return nil, wsrf.NewBaseFault("NoSuchProcessFault", "job %q has no live process", inv.ResourceID).SOAPFault(soap.CodeSender)
	}
	p.Kill()
	return &xmlutil.Element{Name: qKillResponse}, nil
}

// KillRequest builds the Kill body.
func KillRequest() *xmlutil.Element { return &xmlutil.Element{Name: qKill} }

// jobRef is what every lifecycle event of one job carries: where to
// publish it, which job and which of the scheduler's attempts it is
// about, and the job and working-directory resources.
type jobRef struct {
	topic, name, attempt string
	job, dir             wsa.EndpointReference
	sendFailed           atomic.Bool // a refused event is logged once per job
}

// event builds a lifecycle notification on "<topic>/<jobName>/<kind>".
func (ref *jobRef) event(kind, exitCode, errMsg string) wsn.Notification {
	payload := xmlutil.NewContainer(qJobEvent,
		xmlutil.NewElement(QJobName, ref.name),
		xmlutil.NewElement(QStatus, kind),
	)
	if ref.attempt != "" {
		payload.Append(xmlutil.NewElement(QAttempt, ref.attempt))
	}
	if !ref.job.IsZero() {
		payload.Append(ref.job.ElementNamed(qJob))
	}
	if !ref.dir.IsZero() {
		payload.Append(ref.dir.ElementNamed(QDirectory))
	}
	if exitCode != "" {
		payload.Append(xmlutil.NewElement(QExitCode, exitCode))
	}
	if errMsg != "" {
		payload.Append(xmlutil.NewElement(qEventError, errMsg))
	}
	return wsn.Notification{
		Topic:    ref.topic + "/" + ref.name + "/" + kind,
		Producer: ref.job,
		Message:  payload,
	}
}

// publishEvents queues lifecycle events of one job for the broker and
// returns: they leave in order, those of one call in one Notify. Best
// effort — a broker outage must not take jobs down — but not silent.
func (s *Service) publishEvents(ctx context.Context, ref *jobRef, events ...wsn.Notification) {
	if s.broker.IsZero() || ref.topic == "" {
		return
	}
	sent := func(err error) {
		if err != nil && !ref.sendFailed.Swap(true) {
			log.Printf("es: job %s: publishing lifecycle events: %v", ref.name, err)
		}
	}
	deliveries := make([]wsn.Delivery, len(events))
	for i, n := range events {
		deliveries[i] = wsn.Delivery{To: s.broker, N: n, Done: sent}
	}
	s.out.Enqueue(ctx, deliveries...)
}

// JobEvent is a decoded lifecycle notification payload.
type JobEvent struct {
	JobName string
	Kind    string
	// Attempt echoes the identity the Run request carried; empty when the
	// requester sent none.
	Attempt   string
	Job       wsa.EndpointReference
	Directory wsa.EndpointReference
	ExitCode  int
	HasExit   bool
	Error     string
}

// ParseJobEvent decodes a JobEvent payload from a notification message.
func ParseJobEvent(msg *xmlutil.Element) (JobEvent, error) {
	if msg == nil || msg.Name != qJobEvent {
		return JobEvent{}, fmt.Errorf("es: message is not a JobEvent")
	}
	ev := JobEvent{
		JobName: msg.ChildText(QJobName),
		Kind:    msg.ChildText(QStatus),
		Attempt: msg.ChildText(QAttempt),
		Error:   msg.ChildText(qEventError),
	}
	if j := msg.Child(qJob); j != nil {
		epr, err := wsa.ParseEPR(j)
		if err != nil {
			return ev, err
		}
		ev.Job = epr
	}
	if d := msg.Child(QDirectory); d != nil {
		epr, err := wsa.ParseEPR(d)
		if err != nil {
			return ev, err
		}
		ev.Directory = epr
	}
	if ec := msg.ChildText(QExitCode); ec != "" {
		code, err := strconv.Atoi(ec)
		if err != nil {
			return ev, fmt.Errorf("es: bad exit code %q", ec)
		}
		ev.ExitCode = code
		ev.HasExit = true
	}
	return ev, nil
}
