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
	"sort"
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
	EventStarted   = "started"   // process launched; its producer is the job EPR, as every event's is
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
	// Accounts, when non-nil, secures Run: a Run request must then carry
	// a valid UsernameToken for one of its accounts, and the job runs as
	// that account.
	Accounts wssec.StaticAccounts
}

// Service is one machine's ES.
type Service struct {
	svc     *wsrf.Service
	client  *transport.Client
	fss     wsa.EndpointReference
	spawner *procspawn.Spawner
	broker  wsa.EndpointReference
	out     *wsn.Outbox // every lifecycle event leaves through it: in order, off the job's path
	// verifier checks Run's token; FSS callbacks and WSRF property reads
	// are unauthenticated, as in the paper's testbed.
	verifier *wssec.Verifier

	mu sync.Mutex
	// jobs holds the record of each live job, from its Run to its journaled
	// verdict or its destroy. It lives in process memory only: a job whose
	// record another process held reads Failed.
	jobs map[string]*liveJob
}

// liveJob is one job while it lives — the "WS-Resource as process" half of
// the job resource that no journal holds. Its mutable fields are guarded
// by the Service's mu.
type liveJob struct {
	creds   wssec.Credentials // the account it runs as, until the spawn
	release func()            // the processor slot it holds while it stages
	proc    *procspawn.Process
	// running lists it in the machine's renewals (RunningAttempts): set
	// once it has staged, before the spawn, so the exit finds it set.
	running bool

	// What every lifecycle event of the job carries: where to publish it,
	// which job and which of the scheduler's attempts it is about, and the
	// job and working-directory resources.
	topic, name, attempt string
	job, dir             wsa.EndpointReference
	sendFailed           atomic.Bool // a refused event is logged once per job
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
		svc:      svc,
		client:   cfg.Client,
		fss:      cfg.FSS,
		spawner:  cfg.Spawner,
		broker:   cfg.Broker,
		verifier: wssec.NewVerifier(cfg.Accounts),
		jobs:     make(map[string]*liveJob),
	}
	s.out = wsn.NewOutbox(func(ctx context.Context, to wsa.EndpointReference, batch []wsn.Notification) error {
		return wsn.PublishViaBroker(ctx, s.client, to, batch...)
	})
	svc.Enable(wsrf.ResourcePropertiesPortType{})
	svc.OnDestroy(s.drop)
	svc.Enable(wsrf.LifetimePortType{})

	// Status and CPUTime are computed — [ResourceProperty] getters.
	s.computed(QStatus, StatusFailed, func(j *liveJob) string {
		if j.running {
			return StatusRunning
		}
		return StatusStaging
	})
	s.computed(QCPUTime, "0", func(j *liveJob) string {
		if j.proc == nil {
			return "0"
		}
		return milliseconds(j.proc.CPUTime())
	})

	svc.RegisterServiceMethod(ActionRun, s.handleRun)
	svc.RegisterMethod(ActionKill, s.handleKill)
	// Addressed to a job, but it reads the job's record, not its document.
	svc.RegisterServiceMethod(filesystem.ActionUploadComplete, s.handleUploadComplete)
	return s, nil
}

// computed registers a property that reads the job's live record while
// there is one, then the verdict its exit journaled — with its ExitCode,
// so a Status without one is an earlier ES's, not a verdict — and none
// with neither: the job failed to stage or spawn, or was another
// process's. The record goes after the verdict is journaled, so a
// document loaded before that is read again.
func (s *Service) computed(name xmlutil.QName, none string, live func(*liveJob) string) {
	s.svc.RegisterProperty(name, func(ctx context.Context, inv *wsrf.Invocation) ([]*xmlutil.Element, error) {
		v := none
		s.mu.Lock()
		j := s.jobs[inv.ResourceID]
		if j != nil {
			v = live(j)
		}
		s.mu.Unlock()
		if j == nil {
			doc := inv.Doc
			if doc.Child(QExitCode) == nil {
				doc, _ = s.svc.LoadResource(inv.ResourceID) // nil if destroyed meanwhile
			}
			if doc != nil && doc.Child(QExitCode) != nil && doc.ChildText(name) != "" {
				v = doc.ChildText(name)
			}
		}
		return []*xmlutil.Element{xmlutil.NewElement(name, v)}, nil
	})
}

func milliseconds(d time.Duration) string { return strconv.FormatInt(d.Milliseconds(), 10) }

// WSRF returns the underlying service for mounting.
func (s *Service) WSRF() *wsrf.Service { return s.svc }

// EPR returns the service endpoint.
func (s *Service) EPR() wsa.EndpointReference { return s.svc.EPR() }

// RunningAttempts lists, sorted, the scheduler's attempts whose process
// this ES runs: what the machine's next renewal tells the master is alive.
func (s *Service) RunningAttempts() []string {
	s.mu.Lock()
	var out []string
	for _, j := range s.jobs {
		if j.running && j.attempt != "" {
			out = append(out, j.attempt)
		}
	}
	s.mu.Unlock()
	sort.Strings(out)
	return out
}

// DrainEvents waits until every lifecycle event queued for the broker was
// sent (or refused), or ctx ends: a machine going down says what it has to.
func (s *Service) DrainEvents(ctx context.Context) error { return s.out.Drain(ctx) }

// drop forgets a job's record — when its resource is destroyed, or its
// Run or staging fails — giving back its processor slot and killing its
// process, whose exit then reaps it.
func (s *Service) drop(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j := s.jobs[id]; j != nil {
		delete(s.jobs, id)
		if j.release != nil {
			j.release()
		}
		if j.proc != nil {
			j.proc.Kill()
		}
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
	// The job runs as the authenticated account: the Run request carries
	// the local account itself.
	local, err := s.verifier.Verify(inv.Req)
	if err != nil {
		return nil, err
	}
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

	// The record comes first, so the resource reads Staging from the
	// moment it exists. It holds a processor slot while the job stages, so
	// the machine's next utilization sample counts it before the process
	// exists.
	id := wsa.NewMessageID()[len("urn:uuid:"):]
	j := &liveJob{creds: local, release: s.spawner.Reserve(), topic: topic, name: jobName, attempt: attempt, job: s.svc.EPRFor(id), dir: dirEPR}
	s.mu.Lock()
	s.jobs[id] = j
	s.mu.Unlock()

	// The document journals the job's creation; its exit adds the verdict.
	doc := xmlutil.NewContainer(xmlutil.Q(NS, "JobState"),
		xmlutil.NewElement(QJobName, jobName),
		xmlutil.NewElement(QTopic, topic),
		xmlutil.NewElement(QAttempt, attempt),
		xmlutil.NewElement(QOwner, local.Username),
		dirEPR.ElementNamed(QDirectory),
	)
	if _, err := s.svc.CreateResource(id, doc); err != nil {
		s.drop(id)
		return nil, soap.ReceiverFault("es: create job resource: %v", err)
	}

	// Step 4: one-way upload request; the FSS notifies the job resource
	// when staging finishes (step 7). The upload token carries the
	// executable's name so the completion handler knows what to launch
	// without another database read.
	upload := filesystem.UploadRequest(j.job, executable, files)
	if err := s.client.Notify(ctx, dirEPR, filesystem.ActionUpload, upload); err != nil {
		s.drop(id)
		return nil, soap.ReceiverFault("es: dispatch upload: %v", err)
	}

	return xmlutil.NewContainer(qRunJobResponse, j.job.ElementNamed(qJob), dirEPR.ElementNamed(QDirectory)), nil
}

// handleUploadComplete is step 7→8 of Fig. 3: inputs staged, launch the
// process via ProcSpawn as the requesting user, in the working directory
// the notification names.
func (s *Service) handleUploadComplete(ctx context.Context, inv *wsrf.Invocation, body *xmlutil.Element) (*xmlutil.Element, error) {
	done, err := filesystem.ParseUploadComplete(body)
	if err != nil {
		return nil, soap.SenderFault("%v", err)
	}
	id := inv.ResourceID
	staged := done.Success && done.Path != ""
	s.mu.Lock()
	j := s.jobs[id]
	var creds wssec.Credentials
	var release func()
	if j != nil && j.release != nil {
		creds, release = j.creds, j.release
		j.creds, j.release, j.running = wssec.Credentials{}, nil, staged
	}
	s.mu.Unlock()
	if release == nil {
		return nil, nil // destroyed while it staged, staged already, or another process's
	}
	// Released in every branch below: the slot is either replaced by the
	// real running process or freed on failure.
	defer release()
	fail := func(reason string) (*xmlutil.Element, error) {
		s.drop(id)
		s.publishEvents(ctx, j, j.event(EventDirectory, "", ""), j.event(EventFailed, "", reason))
		return nil, nil
	}

	if !done.Success {
		return fail(done.Error)
	}
	if done.Path == "" {
		return fail("upload completion names no working directory")
	}
	proc, err := s.spawner.Spawn(procspawn.SpawnSpec{
		// The upload token is the executable's name (handleRun).
		Executable: done.Token,
		WorkingDir: done.Path,
		Username:   creds.Username,
		Password:   creds.Password,
		OnExit: func(p *procspawn.Process) {
			// Detach from the Run request's cancellation but keep its
			// values, so the exit event publishes under the same
			// request ID as the rest of the job's lifecycle.
			s.onProcessExit(context.WithoutCancel(ctx), id, j, p)
		},
	})
	if err != nil {
		return fail("spawn: " + err.Error())
	}
	s.mu.Lock()
	j.proc = proc
	_, live := s.jobs[id]
	s.mu.Unlock()
	if !live {
		proc.Kill() // destroyed while it spawned; a no-op if it has exited
	}
	// Step 9, one broadcast: the directory EPR, for the client to watch, and
	// the job EPR, so Scheduler and client "can poll the job for its status".
	// Queued back to back, after the spawn: one Notify, directory first.
	s.publishEvents(ctx, j, j.event(EventDirectory, "", ""), j.event(EventStarted, "", ""))
	return nil, nil
}

// onProcessExit is step 10: journal the verdict, forget the job and its
// process, and broadcast the exit.
func (s *Service) onProcessExit(ctx context.Context, id string, j *liveJob, p *procspawn.Process) {
	code, _ := p.ExitCode()
	status := StatusExited
	if p.State() == procspawn.StateKilled {
		status = StatusKilled
	}
	// The one write after the job's creation: the document holds none of
	// the three before.
	err := s.svc.UpdateResource(id, func(doc *xmlutil.Element) error {
		doc.Append(xmlutil.NewElement(QStatus, status), xmlutil.NewElement(QExitCode, strconv.Itoa(code)),
			xmlutil.NewElement(QCPUTime, milliseconds(p.CPUTime())))
		return nil
	})
	if err != nil && !errors.Is(err, wsrf.ErrNoSuchResource) {
		// Not destroyed: with neither verdict nor record it reads Failed.
		log.Printf("es: job %s (%s): recording exit: %v", id, j.name, err)
	}
	s.mu.Lock()
	delete(s.jobs, id)
	s.mu.Unlock()
	s.spawner.Reap(p.PID)
	s.publishEvents(ctx, j, j.event(EventExited, strconv.Itoa(code), ""))
}

// handleKill terminates the job's process — the client-facing method
// the paper gives job resources ("kill the job").
func (s *Service) handleKill(ctx context.Context, inv *wsrf.Invocation, body *xmlutil.Element) (*xmlutil.Element, error) {
	var p *procspawn.Process
	s.mu.Lock()
	if j := s.jobs[inv.ResourceID]; j != nil {
		p = j.proc
	}
	s.mu.Unlock()
	if p == nil {
		return nil, wsrf.NewBaseFault("NoSuchProcessFault", "job %q has no live process", inv.ResourceID).SOAPFault(soap.CodeSender)
	}
	p.Kill()
	return &xmlutil.Element{Name: qKillResponse}, nil
}

// KillRequest builds the Kill body.
func KillRequest() *xmlutil.Element { return &xmlutil.Element{Name: qKill} }

// event builds a lifecycle notification on "<topic>/<jobName>/<kind>".
// The job EPR is the notification's producer, so the payload does not
// name it again; the directory rides on every event, since events may
// arrive in any order.
func (j *liveJob) event(kind, exitCode, errMsg string) wsn.Notification {
	payload := xmlutil.NewContainer(qJobEvent,
		xmlutil.NewElement(QJobName, j.name),
		xmlutil.NewElement(QStatus, kind),
	)
	if j.attempt != "" {
		payload.Append(xmlutil.NewElement(QAttempt, j.attempt))
	}
	if !j.dir.IsZero() {
		payload.Append(j.dir.ElementNamed(QDirectory))
	}
	if exitCode != "" {
		payload.Append(xmlutil.NewElement(QExitCode, exitCode))
	}
	if errMsg != "" {
		payload.Append(xmlutil.NewElement(qEventError, errMsg))
	}
	return wsn.Notification{
		Topic:    j.topic + "/" + j.name + "/" + kind,
		Producer: j.job,
		Message:  payload,
	}
}

// publishEvents queues lifecycle events of one job for the broker and
// returns: they leave in order, those of one call in one Notify. Best
// effort — a broker outage must not take jobs down — but not silent.
func (s *Service) publishEvents(ctx context.Context, j *liveJob, events ...wsn.Notification) {
	if s.broker.IsZero() || j.topic == "" {
		return
	}
	sent := func(err error) {
		if err != nil && !j.sendFailed.Swap(true) {
			log.Printf("es: job %s: publishing lifecycle events: %v", j.name, err)
		}
	}
	deliveries := make([]wsn.Delivery, len(events))
	for i, n := range events {
		deliveries[i] = wsn.Delivery{To: s.broker, N: n, Done: sent}
	}
	s.out.Enqueue(ctx, deliveries...)
}

// JobEvent is a decoded lifecycle notification payload. The job
// resource it is about is the notification's producer, which the
// payload does not repeat.
type JobEvent struct {
	JobName string
	Kind    string
	// Attempt echoes the identity the Run request carried; empty when the
	// requester sent none.
	Attempt   string
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
