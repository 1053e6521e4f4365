package scheduler

import (
	"context"
	"errors"
	"fmt"
	"log"
	"maps"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"uvacg/internal/admission"
	"uvacg/internal/pipeline"
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

// Action URIs.
const (
	ActionSubmit = NS + "/Submit"
	ActionCancel = NS + "/Cancel"
)

// Job set status values. Queued exists only on masters running
// admission control: the set is journaled and acked but not yet handed
// to the dispatch engine.
const (
	SetQueued    = "Queued"
	SetRunning   = "Running"
	SetCompleted = "Completed"
	SetFailed    = "Failed"
	SetCancelled = "Cancelled"
)

// Per-job states inside a job set.
const (
	JobPending    = "Pending"
	JobDispatched = "Dispatched"
	JobRunning    = "Running"
	JobCompleted  = "Completed"
	JobFailed     = "Failed"
	JobCancelled  = "Cancelled"
)

// Resource property QNames.
var (
	QName     = xmlutil.Q(NS, "Name")
	QStatus   = xmlutil.Q(NS, "Status")
	QTopic    = xmlutil.Q(NS, "Topic")
	QJobState = xmlutil.Q(NS, "JobState")

	qStatusAttr = xmlutil.Q("", "status")
	qNodeAttr   = xmlutil.Q("", "node")
	qExitAttr   = xmlutil.Q("", "exitCode")
	qDirAttr    = xmlutil.Q("", "dir")
	qSecured    = xmlutil.Q("", "secured")
	// qAttemptAttr counts a job's retry attempts so a recovered run
	// resumes with the same budget instead of a fresh one.
	qAttemptAttr = xmlutil.Q("", "attempt")
	// qNotifiedAttr marks that the terminal set event was handed to the
	// broker. Terminal docs without it are republished by Recover: the
	// status write and the publish are not atomic, so a crash between
	// them would otherwise lose the client's completion signal forever.
	qNotifiedAttr = xmlutil.Q("", "notified")
	qCancel       = xmlutil.Q(NS, "Cancel")
	qCancelResp   = xmlutil.Q(NS, "CancelResponse")

	// qSpecSnapshot holds the submitted description inside the job-set
	// resource so a restarted scheduler can rebuild the DAG.
	qSpecSnapshot = xmlutil.Q(NS, "Spec")
)

// Config assembles a Scheduler Service.
type Config struct {
	// Address is the master host's base address.
	Address string
	// Home backs the job-set WS-Resources.
	Home wsrf.ResourceHome
	// Client performs outbound calls.
	Client *transport.Client
	// NIS is the Node Info Service endpoint to poll.
	NIS wsa.EndpointReference
	// Broker is the Notification Broker endpoint.
	Broker wsa.EndpointReference
	// Policy picks nodes; defaults to Greedy{}.
	Policy Policy
	// Security, when non-nil, protects Submit with WS-Security.
	Security *wssec.VerifierConfig
	// ESCerts, when set, resolves an Execution Service's certificate so
	// forwarded credentials are encrypted to it (paper §4.2).
	ESCerts func(es wsa.EndpointReference) (wssec.Certificate, bool)
	// JobTimeout, when positive, bounds each dispatched job: if no
	// terminal event arrives in time (machine crashed, network
	// partitioned), the job — and with it the set — fails instead of
	// hanging forever. Zero disables the watchdog.
	JobTimeout time.Duration
	// Admission, when non-nil, puts the multi-tenant admission queue in
	// front of the dispatch engine: Submit journals the set as Queued
	// and acks, and the StartAdmission pump activates sets in weighted
	// fair-share order (see admission.go).
	Admission *admission.Queue
	// OnDispatch, when set, observes every committed job dispatch — the
	// simulator's dispatch ledger.
	OnDispatch func(rec DispatchRecord)
	// DefaultRetry applies to jobs whose spec carries no retry policy of
	// its own. Zero keeps the historical fail-on-first-error behaviour.
	DefaultRetry RetryPolicy
	// Preempt lets an interactive-class arrival that finds its tenant's
	// running quota exhausted kill-and-requeue that tenant's youngest
	// running scavenger set. Requires Admission.
	Preempt bool
}

// ServicePath is where a master mounts the SS, and consumerPath where it
// mounts the SS's notification consumer.
const (
	ServicePath  = "/SchedulerService"
	consumerPath = "/SchedulerConsumer"
)

// Dispatch-path constants: how many jobs may be mid-dispatch (node
// selection plus the Run round trip) at once across all job sets, and how
// long a GetProcessors reply is trusted before a dispatch polls again.
const (
	maxInflightDispatch = 8
	catalogTTL          = 2 * time.Second
)

// Service is the Scheduler Service.
type Service struct {
	svc          *wsrf.Service
	home         *jobSetHome // svc's home: how a job set is laid out in cfg.Home
	client       *transport.Client
	nis          wsa.EndpointReference
	broker       wsa.EndpointReference
	policy       Policy
	consumer     *wsn.Consumer
	esCerts      func(wsa.EndpointReference) (wssec.Certificate, bool)
	jobTimeout   time.Duration
	dispatchSem  chan struct{} // bounds concurrent dispatches
	onDispatch   func(rec DispatchRecord)
	adm          *admission.Queue
	defaultRetry RetryPolicy
	preempt      bool

	// sets is every job set this master remembers, parked or live; takeOn
	// and letGo are the way in and the way out.
	sets registry

	// mu guards the replica cache; dispatch takes the read side.
	mu sync.RWMutex

	trackReplicas bool
	rep           replicaCache // guarded by mu

	cat    catalogCache
	placed placements
}

// placements is this master's own account of how busy it has made each
// machine: per host, the attempts it has placed there and not yet seen end.
// A placement is charged in the critical section that picked the host, so
// concurrent dispatches see each other whatever the catalog's age, and
// freed by the transition that ends the attempt. A restarted master starts
// from zero and runs what was unfinished again.
type placements struct {
	mu     sync.Mutex
	byHost map[string]int
}

// view is the catalog as a policy should see it. Each machine's Utilization
// becomes what the machine would report were its report instantaneous: the
// load this grid did not cause — what it reported less the share of that
// its own GridLoad accounts for — plus the attempts charged here, clamped
// at 1 as the machine's monitor clamps it (unclamped, oversubscription
// scores negative and penalises the fastest machine most).
func (p *placements) view(procs []nodeinfo.Processor) []nodeinfo.Processor {
	out := make([]nodeinfo.Processor, len(procs))
	for i, proc := range procs {
		if cores := float64(proc.Cores); cores > 0 {
			foreign := max(0, proc.Utilization-float64(proc.GridLoad)/cores)
			proc.Utilization = min(1, foreign+float64(p.byHost[proc.Host])/cores)
		}
		out[i] = proc
	}
	return out
}

// free gives back the placements of attempts that ended.
func (p *placements) free(hosts []string) {
	if len(hosts) == 0 {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, host := range hosts {
		if p.byHost[host]--; p.byHost[host] == 0 {
			delete(p.byHost, host)
		}
	}
}

// catalogCache is the last GetProcessors reply, kept for catalogTTL.
type catalogCache struct {
	mu      sync.RWMutex
	procs   []nodeinfo.Processor
	updated time.Time
	polls   int64 // GetProcessors RPCs attempted
}

// run is one live job set on this master: what it was submitted with
// (fixed once built) and, under mu, its state and the watchdogs of the
// attempts in flight. Only jobset.go's step changes st.
type run struct {
	id, topic                   string
	spec                        *JobSetSpec
	clientFiles, clientListener wsa.EndpointReference
	creds                       wssec.Credentials
	// cannotRun, when set, is why restoreRun found this set impossible to
	// run; takeOn fails it with that reason.
	cannotRun string
	// flow is the request ID the set was taken on under (its Submit's): what
	// its events cause is done under it, whichever envelope brought them.
	flow string
	// tenant is the admission bucket whose running slot this run holds;
	// empty for runs that never went through the queue. entry is the
	// admission-queue coordinate it was activated under (hasEntry marks
	// it valid); preemption requeues through it.
	tenant   string
	entry    admission.Entry
	hasEntry bool

	mu        sync.Mutex
	st        *setState
	watchdogs map[watchKey]*time.Timer

	released      atomic.Bool // the running slot went back (see releaseAdmission)
	journalFailed atomic.Bool // a failed journal write is logged once per run
}

// newRun is the one place a run is built, and where its attempt nonce is
// minted: no two runs of a set — across Recover and re-activation after
// preemption — share an attempt identity.
func (s *Service) newRun(id string, spec *JobSetSpec, clientFiles, clientListener wsa.EndpointReference, creds wssec.Credentials, status string) *run {
	nonce := wsa.NewMessageID()[len("urn:uuid:"):][:8]
	return &run{
		id:             id,
		topic:          topicPrefix + id,
		spec:           spec,
		clientFiles:    clientFiles,
		clientListener: clientListener,
		creds:          creds,
		st:             newSetState(spec, status, nonce, s.defaultRetry),
		watchdogs:      make(map[watchKey]*time.Timer),
	}
}

var (
	// errNoSpec: a document's spec snapshot is missing, unreadable or empty.
	errNoSpec = errors.New("no recoverable spec")
	// errRunParked stops a journal write for a run that was evicted: the
	// set is its next activation's, built from the document.
	errRunParked = errors.New("scheduler: run parked")
	// errNotPlaced stops a dispatch whose attempt ended — cancelled, evicted,
	// destroyed — between its reservation and its placement.
	errNotPlaced = errors.New("scheduler: attempt ended before it was placed")
)

// DispatchRecord describes one job dispatch as the scheduler commits to it.
type DispatchRecord struct {
	Topic string
	Job   string
	Node  string
}

// credentialsLost is the one verdict on a secured set whose credentials
// died with the process that accepted it (they are never journaled).
const credentialsLost = "scheduler restarted; credentials are not persisted, resubmit the job set"

// restoreRun is the one document → run reader (activation, recovery):
// spec snapshot, client endpoints, admission coordinates, and per-job
// progress — completed jobs with their output directories, retries
// consumed. A set that cannot be run is marked (cannotRun) for takeOn to
// fail as a set, whichever way it came: its snapshot cannot be read
// (errNoSpec) or fails validation (any other error) — the run is then
// built over the document's own job list, good only for failing or
// cancelling the set — or it was secured, has work left and no
// credentials: nothing of it, failure handlers included, can be
// dispatched without them. A secured set with nothing left to dispatch
// needs none; the reservation that finds nothing to do closes it out.
func (s *Service) restoreRun(id string, doc *xmlutil.Element, creds wssec.Credentials) (*run, error) {
	view := ParseJobSetDocument(doc)
	var spec *JobSetSpec
	err := errNoSpec
	if snap := doc.Child(qSpecSnapshot); snap != nil {
		if spec, err = parseSpec(snap); err != nil || len(spec.Jobs) == 0 {
			err = errNoSpec
		} else if err = spec.Validate(); err != nil {
			// A cyclic DAG or a missing reference — possible via corruption
			// or an old writer — would hang for ever: no job becomes ready.
			err = fmt.Errorf("invalid recovered spec: %w", err)
		}
	}
	if err != nil {
		spec = &JobSetSpec{Name: view.Name}
		for _, jv := range view.Jobs {
			spec.Jobs = append(spec.Jobs, JobSpec{Name: jv.Name})
		}
	}
	// An endpoint that no longer parses is dropped, as ParseJobSetDocument
	// drops any unparseable fragment.
	clientFiles, _ := wsa.ParseEPR(doc.Child(qClientFiles))
	clientListener, _ := wsa.ParseEPR(doc.Child(qClientListener))
	r := s.newRun(id, spec, clientFiles, clientListener, creds, SetRunning)
	if s.adm != nil {
		// A restored set holds a running slot of its tenant's, and its
		// journaled admission coordinates keep it preemptible.
		if r.tenant = doc.Attr(qTenantAttr); r.tenant == "" {
			r.tenant = s.adm.TenantOf("")
		}
		r.entry, r.hasEntry = queuedEntry(id, doc)
	}
	r.st.restore(view)
	if err != nil {
		r.cannotRun = err.Error()
	} else if doc.Attr(qSecured) == "true" && creds.Username == "" && r.st.firstUnfinished() != "" {
		r.cannotRun = credentialsLost
	}
	return r, err
}

// step runs the core on one event under r.mu, and stops and arms the
// watchdogs it asks for before the lock drops: no stop overtakes its arm.
// Placements are freed after it drops — place holds the ledger, then r.mu,
// and the two are never taken the other way round — which is still after
// their charge: place charges before it lets the ledger go.
func (s *Service) step(r *run, ev event) effects {
	r.mu.Lock()
	fx := r.st.step(ev, time.Now())
	for _, k := range fx.stop {
		if t := r.watchdogs[k]; t != nil {
			t.Stop()
			delete(r.watchdogs, k)
		}
	}
	for _, k := range fx.arm {
		if s.jobTimeout > 0 {
			r.watchdogs[k] = time.AfterFunc(s.jobTimeout, func() { s.watchdogFired(r, k) })
		}
	}
	r.mu.Unlock()
	s.placed.free(fx.free)
	return fx
}

// place is step 2's decision: pick the attempt's machine from the catalog
// as this master's own placements colour it, and charge it. One critical
// section, so of two dispatches racing for an idle machine the second sees
// the first. The core has the last word: an attempt that ended since its
// reservation is not placed, charges nothing and must not be sent.
func (s *Service) place(r *run, res reservation, procs []nodeinfo.Processor, loc Locality) (nodeinfo.Processor, error) {
	s.placed.mu.Lock()
	defer s.placed.mu.Unlock()
	node, err := s.policy.Pick(s.placed.view(procs), loc, res.seq)
	if err != nil {
		return node, err
	}
	r.mu.Lock()
	fx := r.st.step(event{kind: evPlaced, job: r.spec.Jobs[res.job].Name, attempt: res.attempt, node: node.Host}, time.Now())
	r.mu.Unlock()
	if fx.charge == "" {
		return node, errNotPlaced
	}
	s.placed.byHost[fx.charge]++
	return node, nil
}

// Placed reports, per host, the attempts this master has placed and not
// yet seen end — the simulator's and the tests' view of the ledger.
func (s *Service) Placed() map[string]int {
	s.placed.mu.Lock()
	defer s.placed.mu.Unlock()
	return maps.Clone(s.placed.byHost)
}

// watchdogFired reports that an attempt produced no terminal event in
// time — the machine died or the network partitioned mid-job. Keyed by
// attempt, a timer that fires late names an attempt the core has dropped.
func (s *Service) watchdogFired(r *run, k watchKey) {
	r.mu.Lock()
	delete(r.watchdogs, k)
	r.mu.Unlock()
	s.fire(context.Background(), r, event{
		kind:    evTimeout,
		job:     r.spec.Jobs[k.job].Name,
		attempt: k.attempt,
		reason:  fmt.Sprintf("no completion within %v (machine unreachable?)", s.jobTimeout),
	})
}

// apply is the shell around the core: one event in, its effects done.
func (s *Service) apply(ctx context.Context, r *run, ev event) (effects, error) {
	fx := s.step(r, ev)
	return fx, s.perform(ctx, r, fx, nil)
}

// fire is apply for callers with nobody to return an error to: timers,
// the notification fan-in, dispatch goroutines.
func (s *Service) fire(ctx context.Context, r *run, ev event) {
	_, _ = s.apply(ctx, r, ev) // perform logged the failure with the set id
}

// perform carries out a transition's effects in one fixed order: kill,
// persist, requeue, release slot, publish, stamp notified, retry timer,
// schedule. Kills come first so a retried job's old process is gone
// before the document admits a new attempt. inHand is the set's document
// when the caller already holds the resource (a WSRF method), else nil.
//
// A journal write refused because the resource is gone or the run parked
// is expected. Any other failure is logged (once per run) and returned,
// and requeue and publish are withheld: Recover acts on the document.
func (s *Service) perform(ctx context.Context, r *run, fx effects, inHand *xmlutil.Element) error {
	s.kill(ctx, fx.kill)
	var err error
	journaled := true
	if fx.persist {
		if err = s.persist(r, fx, inHand); err != nil {
			journaled = false
			if errors.Is(err, wsrf.ErrNoSuchResource) || errors.Is(err, errRunParked) {
				err = nil
			}
		}
	}
	if fx.requeue && journaled {
		// Evicted: the run leaves, its entry heads its class again. The
		// credentials stay with it in memory, so a secured victim resumes
		// without a resubmit.
		s.letGo(r.id)
		s.park(r.entry, r.creds)
	}
	if fx.release {
		s.releaseAdmission(r)
	}
	if fx.publish != "" && journaled {
		// Only a publish the broker took earns the marker: without it
		// Recover republishes (invariant I4, at-least-once delivery).
		if s.publishSetEvent(ctx, r.id, r.topic, fx.publish, fx.detail) == nil && TerminalSetStatus(fx.publish) {
			if nerr := s.stampNotified(r.id, inHand); nerr != nil && !errors.Is(nerr, wsrf.ErrNoSuchResource) {
				err = nerr
			}
		}
	}
	if err != nil && !r.journalFailed.Swap(true) {
		log.Printf("scheduler: job set %s: journal write failed, document and memory diverge until restart: %v", r.id, err)
	}
	if fx.retry {
		time.AfterFunc(fx.backoff, func() { s.scheduleReady(context.Background(), r) })
	}
	if fx.schedule {
		s.scheduleReady(ctx, r)
	}
	return err
}

// callsOut reports whether perform will wait on another process for fx:
// a Kill, the acked set event, the Run round trips of scheduleReady.
func (fx effects) callsOut() bool { return len(fx.kill) > 0 || fx.publish != "" || fx.schedule }

// persist is the one writer of lifecycle state into a job set's storage: a
// job-level transition writes the touched jobs' rows, one that changes the
// set status (or has the document in hand) the document. Either renders
// from the state as it is when the write holds the resource (resource
// lock, then r.mu — a WSRF method's order), never from a snapshot taken
// before: that could wait behind a later transition's write and land on
// top of it. A parked run writes nothing — its set is its next
// activation's — except the eviction write that parks it.
func (s *Service) persist(r *run, fx effects, inHand *xmlutil.Element) error {
	var rows []*xmlutil.Element
	render := func(doc *xmlutil.Element) error {
		r.mu.Lock()
		defer r.mu.Unlock()
		if r.st.parked && !fx.requeue {
			return errRunParked
		}
		rows = r.st.render(doc, fx.touched)
		return nil
	}
	if fx.status || inHand != nil {
		return s.write(r.id, inHand, render)
	}
	defer s.svc.LockResource(r.id)()
	if !s.home.Exists(r.id) {
		return noSuchSet(r.id) // destroyed: leave no row behind
	}
	if err := render(nil); err != nil {
		return err
	}
	return s.home.saveJobs(r.id, rows)
}

// write applies fn to a job-set document: the one in hand, or the stored
// one under its resource lock.
func (s *Service) write(id string, inHand *xmlutil.Element, fn func(doc *xmlutil.Element) error) error {
	if inHand != nil {
		return fn(inHand)
	}
	return s.svc.UpdateResource(id, fn)
}

// stampNotified records that the broker took the terminal set event —
// a second write because that is only known after the status write.
func (s *Service) stampNotified(id string, inHand *xmlutil.Element) error {
	return s.write(id, inHand, func(doc *xmlutil.Element) error {
		doc.SetAttr(qNotifiedAttr, "true")
		return nil
	})
}

// kill reaps job processes.
func (s *Service) kill(ctx context.Context, eprs []wsa.EndpointReference) {
	for _, epr := range eprs {
		// Best effort: the process may have exited already (the ES faults)
		// or its machine be unreachable, and no caller could act on either;
		// a survivor reports under an attempt nobody matches any more.
		_, _ = s.client.Call(ctx, epr, execution.ActionKill, execution.KillRequest())
	}
}

// New builds the SS.
func New(cfg Config) (*Service, error) {
	if cfg.Home == nil || cfg.Client == nil {
		return nil, fmt.Errorf("scheduler: config requires Home and Client")
	}
	if cfg.NIS.IsZero() || cfg.Broker.IsZero() {
		return nil, fmt.Errorf("scheduler: config requires NIS and Broker EPRs")
	}
	if cfg.Policy == nil {
		cfg.Policy = Greedy{}
	}
	home := &jobSetHome{cfg.Home}
	svc, err := wsrf.NewService(wsrf.ServiceConfig{Path: ServicePath, Address: cfg.Address, Home: home})
	if err != nil {
		return nil, err
	}
	s := &Service{
		svc:          svc,
		home:         home,
		client:       cfg.Client,
		nis:          cfg.NIS,
		broker:       cfg.Broker,
		policy:       cfg.Policy,
		consumer:     wsn.NewConsumer(),
		esCerts:      cfg.ESCerts,
		jobTimeout:   cfg.JobTimeout,
		dispatchSem:  make(chan struct{}, maxInflightDispatch),
		onDispatch:   cfg.OnDispatch,
		adm:          cfg.Admission,
		sets:         registry{sets: make(map[string]held)},
		placed:       placements{byHost: make(map[string]int)},
		defaultRetry: cfg.DefaultRetry,
		preempt:      cfg.Preempt && cfg.Admission != nil,
	}
	_, s.trackReplicas = cfg.Policy.(DataAware)
	svc.OnDestroy(s.onSetDestroyed)
	// "*//" is the Full-dialect catch-all; onNotification routes by topic root.
	s.consumer.Handle(wsn.MustTopicExpression(wsn.DialectFull, "*//"), s.onNotification)
	if cfg.Security != nil {
		// Submit carries the account credentials; status reads and
		// cancellation stay open like the rest of the WSRF surface.
		svc.Use(wssec.InterceptorFor(*cfg.Security, ActionSubmit))
	}
	svc.Enable(wsrf.ResourcePropertiesPortType{})
	svc.Enable(wsrf.LifetimePortType{})
	svc.RegisterServiceMethod(ActionSubmit, s.handleSubmit)
	svc.RegisterMethod(ActionCancel, s.handleCancel)
	return s, nil
}

// WSRF returns the underlying service for mounting.
func (s *Service) WSRF() *wsrf.Service { return s.svc }

// EPR returns the service endpoint.
func (s *Service) EPR() wsa.EndpointReference { return s.svc.EPR() }

// Consumer returns the SS's notification consumer; the wiring must
// mount it at ConsumerPath on the same mux.
func (s *Service) Consumer() *wsn.Consumer { return s.consumer }

// ConsumerPath returns the consumer's mount path.
func (s *Service) ConsumerPath() string { return consumerPath }

// ConsumerEPR returns the consumer's endpoint.
func (s *Service) ConsumerEPR() wsa.EndpointReference {
	return wsa.NewEPR(s.svc.Address() + consumerPath)
}

// SubmitRequest builds a Submit body: the job set description plus the
// client's file server and notification listener EPRs.
func SubmitRequest(spec *JobSetSpec, clientFiles, clientListener wsa.EndpointReference) *xmlutil.Element {
	body := &xmlutil.Element{Name: qSubmit}
	body.Append(specElement(spec)...)
	if !clientFiles.IsZero() {
		body.Append(clientFiles.ElementNamed(qClientFiles))
	}
	if !clientListener.IsZero() {
		body.Append(clientListener.ElementNamed(qClientListener))
	}
	return body
}

// ParseSubmitResponse extracts the job-set resource EPR and topic.
func ParseSubmitResponse(body *xmlutil.Element) (jobSet wsa.EndpointReference, topic string, err error) {
	if body == nil || body.Name != qSubmitResp {
		return jobSet, "", fmt.Errorf("scheduler: body is not a SubmitJobSetResponse")
	}
	el := body.Child(qJobSetEPR)
	if el == nil {
		return jobSet, "", fmt.Errorf("scheduler: response has no job set EPR")
	}
	jobSet, err = wsa.ParseEPR(el)
	if err != nil {
		return jobSet, "", err
	}
	return jobSet, body.ChildText(qTopicOut), nil
}

// handleSubmit is step 1 of Fig. 3.
func (s *Service) handleSubmit(ctx context.Context, inv *wsrf.Invocation, body *xmlutil.Element) (*xmlutil.Element, error) {
	if body == nil {
		return nil, soap.SenderFault("scheduler: Submit requires a body")
	}
	spec, err := parseSpec(body)
	if err != nil {
		return nil, soap.SenderFault("%v", err)
	}
	if err := spec.Validate(); err != nil {
		return nil, wsrf.NewBaseFault("InvalidJobSetFault", "%v", err).SOAPFault(soap.CodeSender)
	}
	var clientFiles, clientListener wsa.EndpointReference
	if el := body.Child(qClientFiles); el != nil {
		if clientFiles, err = wsa.ParseEPR(el); err != nil {
			return nil, soap.SenderFault("scheduler: bad client files EPR: %v", err)
		}
	}
	if el := body.Child(qClientListener); el != nil {
		if clientListener, err = wsa.ParseEPR(el); err != nil {
			return nil, soap.SenderFault("scheduler: bad client listener EPR: %v", err)
		}
	}
	if needsClientFiles(spec) && clientFiles.IsZero() {
		return nil, soap.SenderFault("scheduler: job set references local:// files but no client file server EPR was given")
	}

	principal, _ := wssec.PrincipalFrom(ctx)
	creds := wssec.Credentials{Username: principal.Username, Password: principal.Password}
	// Minted here, so the topic is in the document's first and only write.
	id := wsa.NewMessageID()[len("urn:uuid:"):]

	if s.adm != nil {
		// Admission control is on: journal the set as Queued and ack; the
		// fair-share pump activates it later.
		return s.admitSubmit(ctx, s.newRun(id, spec, clientFiles, clientListener, creds, SetQueued))
	}

	r := s.newRun(id, spec, clientFiles, clientListener, creds, SetRunning)
	setEPR, err := s.svc.CreateResource(id, jobSetDocument(r))
	if err != nil {
		return nil, soap.ReceiverFault("scheduler: create job set resource: %v", err)
	}
	if _, err := s.takeOn(ctx, r, submitted); err != nil {
		// Undo: a half-born set — one the client was never acked, will never
		// poll and can never destroy — would leak forever and shadow its topic.
		if derr := s.svc.DestroyResource(id); derr != nil {
			return nil, soap.ReceiverFault("scheduler: %v; and the half-created job set %s could not be removed: %v", err, id, derr)
		}
		return nil, soap.ReceiverFault("scheduler: %v", err)
	}
	return xmlutil.NewContainer(qSubmitResp,
		setEPR.ElementNamed(qJobSetEPR),
		xmlutil.NewElement(qTopicOut, r.topic),
	), nil
}

// subscribeRun subscribes the SS's consumer, then the client's listener,
// to a run's topic. The client's subscription is best-effort unless
// strict: only Submit can still tell the client it failed.
func (s *Service) subscribeRun(ctx context.Context, r *run, strict bool) error {
	if _, err := wsn.SubscribeVia(ctx, s.client, s.broker, s.ConsumerEPR(), wsn.Simple(r.topic)); err != nil {
		return fmt.Errorf("broker subscription: %w", err)
	}
	if !r.clientListener.IsZero() {
		if _, err := wsn.SubscribeVia(ctx, s.client, s.broker, r.clientListener, wsn.Simple(r.topic)); err != nil && strict {
			return fmt.Errorf("client subscription: %w", err)
		}
	}
	return nil
}

func needsClientFiles(spec *JobSetSpec) bool {
	uses := func(source string) bool {
		scheme, _, err := sourceParts(source)
		return err == nil && scheme == SourceLocal
	}
	for _, j := range spec.Jobs {
		if uses(j.Executable) {
			return true
		}
		for _, in := range j.Inputs {
			if uses(in.Source) {
				return true
			}
		}
	}
	return false
}

// scheduleReady dispatches every job whose dependencies are satisfied.
// Ready jobs are still reserved one at a time under the run lock —
// keeping sequence numbers, and with them round-robin placement,
// deterministic — but the dispatches themselves run concurrently,
// bounded by the service-wide inflight cap, so a wide DAG's independent
// branches no longer queue behind each other's Run round trips. Returns
// once every dispatch it started has finished.
func (s *Service) scheduleReady(ctx context.Context, r *run) {
	var wg sync.WaitGroup
	for {
		fx, err := s.apply(ctx, r, event{kind: evReserve})
		if err != nil || fx.reserved == nil {
			break
		}
		s.dispatchSem <- struct{}{}
		wg.Add(1)
		go func(res reservation) {
			defer wg.Done()
			defer func() { <-s.dispatchSem }()
			s.dispatch(ctx, r, res)
		}(*fx.reserved)
	}
	wg.Wait()
}

// dispatch sends one reserved attempt to a node and reports the outcome
// to the core under that attempt's identity.
func (s *Service) dispatch(ctx context.Context, r *run, res reservation) {
	ev, err := s.runJob(ctx, r, res)
	if err != nil {
		ev.kind, ev.reason = evDispatchFailed, "dispatch: "+err.Error()
	}
	s.fire(ctx, r, ev)
}

// runJob is steps 2-3 of Fig. 3: consult the processor catalog, pick a
// node, send Run. Step 2 is served from the last poll while it is fresh;
// only a stale cache costs a NIS poll. It returns the attempt's
// runAcked event, complete when err is nil.
func (s *Service) runJob(ctx context.Context, r *run, res reservation) (event, error) {
	spec := &r.spec.Jobs[res.job]
	ack := event{kind: evRunAcked, job: spec.Name, attempt: res.attempt}
	procs, err := s.processors(ctx)
	if err != nil {
		return ack, err
	}
	files, executable, err := s.resolveFiles(r, spec)
	if err != nil {
		return ack, err
	}
	// Annotate the refs with content hashes and replica EPRs (so the
	// staging FSS can pull from the nearest holder) and weigh where the
	// bytes already live into the placement decision.
	loc := s.annotateReplicas(files, procs)
	node, err := s.place(r, res, procs, loc)
	if err != nil {
		return ack, err
	}
	req := soap.New(execution.WithAttempt(execution.RunRequest(spec.Name, r.topic, executable, files), res.attempt))
	if r.creds.Username != "" {
		if err := wssec.AttachUsernameToken(req, r.creds, false, time.Now()); err != nil {
			return ack, err
		}
		if s.esCerts != nil {
			if cert, ok := s.esCerts(node.ES); ok {
				if err := wssec.EncryptSecurityHeader(req, cert); err != nil {
					return ack, err
				}
			}
		}
	}
	if s.onDispatch != nil {
		s.onDispatch(DispatchRecord{Topic: r.topic, Job: spec.Name, Node: node.Host})
	}
	resp, err := s.client.Invoke(ctx, node.ES, execution.ActionRun, req)
	if err != nil {
		return ack, fmt.Errorf("run on %s: %w", node.Host, err)
	}
	ack.jobEPR, ack.dirEPR, err = execution.ParseRunResponse(resp.Body)
	return ack, err
}

// processors returns the catalog a dispatch decision should see: the last
// GetProcessors reply while it is younger than catalogTTL, otherwise a
// fresh poll.
func (s *Service) processors(ctx context.Context) ([]nodeinfo.Processor, error) {
	s.cat.mu.RLock()
	procs, updated := s.cat.procs, s.cat.updated
	s.cat.mu.RUnlock()
	if len(procs) > 0 && time.Since(updated) < catalogTTL {
		return procs, nil
	}
	return s.pollCatalog(ctx)
}

// pollCatalog asks the NIS, whatever the cache holds, and keeps the reply.
// When the poll fails the stale copy is served, if there is one —
// dispatching on old load data beats failing the job outright.
func (s *Service) pollCatalog(ctx context.Context) ([]nodeinfo.Processor, error) {
	s.cat.mu.Lock()
	s.cat.polls++
	s.cat.mu.Unlock()
	polled, err := nodeinfo.GetProcessorsVia(ctx, s.client, s.nis)
	s.cat.mu.Lock()
	defer s.cat.mu.Unlock()
	if err != nil {
		if len(s.cat.procs) > 0 {
			return s.cat.procs, nil
		}
		return nil, fmt.Errorf("poll NIS: %w", err)
	}
	s.cat.procs, s.cat.updated = polled, time.Now()
	return polled, nil
}

// CatalogStats reports how many GetProcessors polls the dispatch path has
// attempted.
func (s *Service) CatalogStats() (polls int64) {
	s.cat.mu.RLock()
	defer s.cat.mu.RUnlock()
	return s.cat.polls
}

// resolveFiles turns spec sources into FSS file references — the
// "filling in" of output locations the paper assigns to the Scheduler
// (§4.5).
func (s *Service) resolveFiles(r *run, spec *JobSpec) ([]filesystem.FileRef, string, error) {
	resolve := func(localName, source string) (filesystem.FileRef, error) {
		scheme, name, err := sourceParts(source)
		if err != nil {
			return filesystem.FileRef{}, err
		}
		if scheme == SourceLocal {
			return filesystem.FileRef{Source: r.clientFiles, RemoteName: name, LocalName: localName}, nil
		}
		r.mu.Lock()
		dir := r.st.jobs[r.st.index[scheme]].dirEPR
		r.mu.Unlock()
		if dir.IsZero() {
			return filesystem.FileRef{}, fmt.Errorf("scheduler: output directory of %q is not yet known", scheme)
		}
		return filesystem.FileRef{Source: dir, RemoteName: name, LocalName: localName}, nil
	}

	_, exeName, err := sourceParts(spec.Executable)
	if err != nil {
		return nil, "", err
	}
	exeRef, err := resolve(exeName, spec.Executable)
	if err != nil {
		return nil, "", err
	}
	files := []filesystem.FileRef{exeRef}
	for _, in := range spec.Inputs {
		ref, err := resolve(in.LocalName, in.Source)
		if err != nil {
			return nil, "", err
		}
		files = append(files, ref)
	}
	return files, exeName, nil
}

// jobEventKinds maps the ES's lifecycle event kinds onto core events.
var jobEventKinds = map[string]eventKind{
	execution.EventDirectory: evDirectory,
	execution.EventStarted:   evStarted,
	execution.EventExited:    evExited,
	execution.EventFailed:    evFailed,
}

// onNotification reacts to broker events: "When the Scheduler gets the
// message that a job has completed, it schedules the next job that no
// longer has any uncompleted dependencies."
func (s *Service) onNotification(ctx context.Context, n wsn.Notification) {
	if root, _, _ := strings.Cut(n.Topic, "/"); root == filesystem.ReplicaTopic {
		if rc, err := filesystem.ParseReplicaChanged(n.Message); err == nil {
			s.storeReplica(rc)
		}
		return
	}
	parsed, _ := ParseEvent(n)
	r := s.sets.live(parsed.Set)
	ev := parsed.JobEvent
	kind, known := jobEventKinds[ev.Kind]
	if r == nil || !known || ev.JobName == "" { // only the shell speaks for a whole set
		return
	}
	// One set's transitions are applied, and journaled, in the order its
	// events arrived. What one then waits for in another process — kills,
	// the acked set event, Run round trips — is handed on: it must not hold
	// up the rest of the Notify, and must outlive it (the delivery's values,
	// the request ID, are kept; its cancellation is not).
	fx := s.step(r, event{
		kind:     kind,
		job:      ev.JobName,
		attempt:  ev.Attempt,
		jobEPR:   ev.Job,
		dirEPR:   ev.Directory,
		exitCode: ev.ExitCode,
		hasExit:  ev.HasExit,
		reason:   ev.Error,
	})
	ctx = context.WithoutCancel(ctx)
	if r.flow != "" { // a Notify carries several sets' events under one ID
		ctx = pipeline.WithRequestID(ctx, r.flow)
	}
	if !fx.callsOut() {
		_ = s.perform(ctx, r, fx, nil) // perform logged the failure with the set id
		return
	}
	go func() { _ = s.perform(ctx, r, fx, nil) }()
}

// handleCancel aborts a job set on client request. A set that is already
// terminal keeps its verdict: the core answers with no effects. The
// wrapper pipeline holds this resource's lock — UpdateResource would
// self-deadlock — so the transition is journaled onto the invocation's
// own document.
func (s *Service) handleCancel(ctx context.Context, inv *wsrf.Invocation, body *xmlutil.Element) (*xmlutil.Element, error) {
	r := s.sets.get(inv.ResourceID).run
	if r == nil {
		// Still parked in the admission queue, or activation just won the
		// race for it and the run has registered by now.
		if r = s.unparkForCancel(inv); r == nil {
			r = s.sets.get(inv.ResourceID).run
		}
	}
	if r == nil {
		return nil, wsrf.NewBaseFault("NoSuchJobSetFault", "job set %q has no active run", inv.ResourceID).SOAPFault(soap.CodeSender)
	}
	fx := s.step(r, event{kind: evCancel, reason: "cancelled by client"})
	if err := s.perform(ctx, r, fx, inv.Doc); err != nil {
		return nil, soap.ReceiverFault("scheduler: cancel: %v", err)
	}
	return &xmlutil.Element{Name: qCancelResp}, nil
}

// CancelRequest builds the Cancel body.
func CancelRequest() *xmlutil.Element { return &xmlutil.Element{Name: qCancel} }

// Event is one notification on a job set's topic tree, which has two
// publishers: an ES on "<set topic>/<job>/<kind>" and publishSetEvent on
// "<set topic>/jobset/<status, lower case>".
type Event struct {
	Set, Job, Kind string // Job is empty on a set-level event
	// Status and Detail are a set-level event's payload: SetCompleted,
	// SetFailed, SetCancelled or SetPreempted, and why.
	Status, Detail string
	// JobEvent is a job-level event's payload; zero when it did not parse.
	JobEvent execution.JobEvent
}

// ParseEvent is the one reader of the topic grammar; ok is false for a
// notification neither publisher could have sent.
func ParseEvent(n wsn.Notification) (ev Event, ok bool) {
	segs := strings.Split(n.Topic, "/")
	if len(segs) != 3 {
		return ev, false
	}
	ev.Set, ev.Kind = segs[0], segs[2]
	if segs[1] != "jobset" {
		ev.Job = segs[1]
		if je, err := execution.ParseJobEvent(n.Message); err == nil {
			ev.JobEvent = je
		}
		return ev, true
	}
	if n.Message != nil {
		ev.Status, ev.Detail = n.Message.ChildText(QStatus), n.Message.ChildText(qDetail)
	}
	return ev, ev.Status != "" && strings.ToLower(ev.Status) == ev.Kind
}

var qDetail = xmlutil.Q(NS, "Detail")

// publishSetEvent broadcasts a set-level event on "<topic>/jobset/<kind>".
// It takes an id and a topic, not a run: Recover republishes terminal
// events for crashed runs straight from the persisted document. The
// error matters: callers use it to decide whether the notified marker
// may be stamped.
func (s *Service) publishSetEvent(ctx context.Context, id, topic, status, detail string) error {
	payload := xmlutil.NewContainer(xmlutil.Q(NS, "JobSetEvent"),
		xmlutil.NewElement(QStatus, status),
	)
	if detail != "" {
		payload.Append(xmlutil.NewElement(qDetail, detail))
	}
	n := wsn.Notification{
		Topic:    topic + "/jobset/" + strings.ToLower(status),
		Producer: s.svc.EPRFor(id),
		Message:  payload,
	}
	// Set events are the at-least-once promise behind the notified
	// marker, so they must be broker-acked: a fire-and-forget Notify
	// cannot distinguish delivered from dropped, and stamping the marker
	// on a silent drop makes Recover skip the replay forever.
	return wsn.PublishAckedViaBroker(ctx, s.client, s.broker, n)
}

// onSetDestroyed lets a set go when its job-set resource is destroyed —
// by the client's Destroy or by lifetime expiry; until then a terminal run
// stays, serving OutputDirectory. A set destroyed while still running is
// treated as a cancel. The transition is taken at once; its effects
// (kills: round trips to other machines) run off this goroutine, because
// the lifetime port calls this hook holding the resource lock.
func (s *Service) onSetDestroyed(id string) {
	r := s.letGo(id)
	if r == nil {
		return
	}
	fx := s.step(r, event{kind: evDestroy})
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.perform(ctx, r, fx, nil) // destroy journals nothing: no error
	}()
}

// OutputDirectory reports where a job's outputs live, once known —
// clients use it to retrieve result files.
func (s *Service) OutputDirectory(topic, jobName string) (wsa.EndpointReference, bool) {
	r := s.sets.live(topic)
	if r == nil {
		return wsa.EndpointReference{}, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	i, ok := r.st.index[jobName]
	if !ok || r.st.jobs[i].dirEPR.IsZero() {
		return wsa.EndpointReference{}, false
	}
	return r.st.jobs[i].dirEPR, true
}

// InFlightJob is one unfinished job of a live running set here, with what
// is obliged to move it on: Watchdog, a timer armed for its attempt;
// Waiting, Pending behind an unmet gate or a backoff (whose timer fires).
type InFlightJob struct {
	Topic, Job, State, Node string
	Watchdog, Waiting       bool
}

// InFlight snapshots the unfinished jobs of every live running set — the
// input of a stuck-work check: a job neither waiting nor watched, with no
// dispatch in flight and no live process, will never move again.
func (s *Service) InFlight() (out []InFlightJob) {
	now := time.Now()
	for _, h := range s.sets.all() {
		r := h.run
		if r == nil {
			continue
		}
		r.mu.Lock()
		for i := range r.st.jobs {
			j := &r.st.jobs[i]
			if r.st.status != SetRunning || r.st.parked || jobTerminal(j.state) {
				continue
			}
			_, watched := r.watchdogs[watchKey{i, j.attempt}]
			out = append(out, InFlightJob{r.topic, j.spec.Name, j.state, j.node, watched,
				j.state == JobPending && (now.Before(j.retryAt) || !r.st.ready(i))})
		}
		r.mu.Unlock()
	}
	return out
}
