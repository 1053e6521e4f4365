package scheduler

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"uvacg/internal/admission"
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
	// MaxInflightDispatch bounds how many jobs may be mid-dispatch
	// (node selection plus the Run round trip) at once across all job
	// sets. Zero means DefaultMaxInflightDispatch; 1 restores the old
	// strictly serial dispatch loop.
	MaxInflightDispatch int
	// CatalogTTL bounds how long a pushed or polled processor catalog
	// is trusted before dispatch polls the NIS again. Zero means
	// DefaultCatalogTTL; negative disables the cache entirely, so every
	// dispatch polls GetProcessors (the paper's literal Fig. 3 step 2).
	CatalogTTL time.Duration
	// Sharding, when non-nil, opts the master into the multi-master
	// lease protocol: it only accepts and schedules job sets whose
	// shard it holds, redirecting the rest (see shard.go).
	Sharding *Sharding
	// Admission, when non-nil, puts the multi-tenant admission queue in
	// front of the dispatch engine: Submit journals the set as Queued
	// and acks, and the StartAdmission pump activates sets in weighted
	// fair-share order (see admission.go).
	Admission *admission.Queue
	// OnDispatch, when set, observes every committed job dispatch —
	// the simulator's single-writer ledger.
	OnDispatch func(rec DispatchRecord)
	// DefaultRetry applies to jobs whose spec carries no retry policy of
	// its own. Zero keeps the historical fail-on-first-error behaviour.
	DefaultRetry RetryPolicy
	// Preempt lets an interactive-class arrival that finds its tenant's
	// running quota exhausted kill-and-requeue that tenant's youngest
	// running scavenger set. Requires Admission.
	Preempt bool
}

// ServicePath is where a master mounts the SS — lease owner identities
// and shard→peer maps embed it, so a lease record doubles as a redirect
// target — and consumerPath where it mounts the SS's notification
// consumer.
const (
	ServicePath  = "/SchedulerService"
	consumerPath = "/SchedulerConsumer"
)

// Dispatch-path defaults.
const (
	DefaultMaxInflightDispatch = 8
	DefaultCatalogTTL          = 2 * time.Second
)

// Service is the Scheduler Service.
type Service struct {
	svc          *wsrf.Service
	client       *transport.Client
	nis          wsa.EndpointReference
	broker       wsa.EndpointReference
	policy       Policy
	consumer     *wsn.Consumer
	esCerts      func(wsa.EndpointReference) (wssec.Certificate, bool)
	jobTimeout   time.Duration
	catalogTTL   time.Duration
	dispatchSem  chan struct{} // bounds concurrent dispatches
	sharding     *Sharding
	onDispatch   func(rec DispatchRecord)
	adm          *admission.Queue
	defaultRetry RetryPolicy
	preempt      bool

	// mu guards the maps below. Reader-heavy paths — the notification
	// fan-in's run lookups, cancel/output queries, shard-owner routing —
	// take the read side so they no longer serialize against each other
	// behind Submit's writes.
	mu            sync.RWMutex
	runs          map[string]*run       // topic → run
	queued        map[string]*queuedSet // topic → parked submission
	runIDs        map[string]string     // resource id → topic (for destroy eviction)
	wired         bool                  // consumer handler installed (at most once)
	catSubscribed bool                  // catalog-changed subscription established
	repSubscribed bool                  // replica-topic subscription established
	shardOwners   map[int]string        // pushed shard-map routing view
	shardEpochs   map[int]uint64        // highest epoch seen per shard

	trackReplicas bool
	rep           replicaCache // guarded by mu

	cat catalogCache
}

// catalogCache is the scheduler's pushed view of the NIS processor
// catalog, refreshed by catalog-changed notifications and by the polls
// the TTL forces when pushes stop arriving.
type catalogCache struct {
	mu      sync.RWMutex
	procs   []nodeinfo.Processor
	updated time.Time
	polls   int64 // GetProcessors RPCs attempted
	pushes  int64 // catalog-changed notifications applied
}

// wireConsumerLocked installs the notification handler exactly once.
// "*//" is the Full-dialect catch-all; onNotification routes by topic
// root. Callers hold s.mu.
func (s *Service) wireConsumerLocked() {
	if s.wired {
		return
	}
	s.wired = true
	s.consumer.Handle(wsn.MustTopicExpression(wsn.DialectFull, "*//"), s.onNotification)
}

type run struct {
	mu          sync.Mutex
	id          string
	topic       string
	spec        *JobSetSpec
	clientFiles wsa.EndpointReference
	creds       wssec.Credentials
	jobs        map[string]*jobRun
	seq         int
	status      string
	// lost marks a run parked by a shard lease loss: another master
	// owns the set now, and every write path drops the run on sight.
	lost bool
	// tenant is the admission bucket whose running slot this run holds;
	// empty for runs that never went through the queue. released guards
	// the slot's one-time return (see releaseAdmission).
	tenant   string
	released bool
	// entry is the admission-queue coordinate the run was activated
	// under; hasEntry marks it valid. Preemption requeues through it.
	entry    admission.Entry
	hasEntry bool
}

type jobRun struct {
	spec     *JobSpec
	state    string
	node     string
	jobEPR   wsa.EndpointReference
	dirEPR   wsa.EndpointReference
	exitCode int
	watchdog *time.Timer
	// attempts counts failures already retried; retryAt holds the job
	// out of nextReady until its backoff elapses.
	attempts int
	retryAt  time.Time
}

// jobTerminal reports whether a job state is final.
func jobTerminal(state string) bool {
	switch state {
	case JobCompleted, JobFailed, JobCancelled:
		return true
	}
	return false
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
	if cfg.MaxInflightDispatch == 0 {
		cfg.MaxInflightDispatch = DefaultMaxInflightDispatch
	}
	if cfg.MaxInflightDispatch < 1 {
		cfg.MaxInflightDispatch = 1
	}
	if cfg.CatalogTTL == 0 {
		cfg.CatalogTTL = DefaultCatalogTTL
	}
	svc, err := wsrf.NewService(wsrf.ServiceConfig{Path: ServicePath, Address: cfg.Address, Home: cfg.Home})
	if err != nil {
		return nil, err
	}
	s := &Service{
		svc:          svc,
		client:       cfg.Client,
		nis:          cfg.NIS,
		broker:       cfg.Broker,
		policy:       cfg.Policy,
		consumer:     wsn.NewConsumer(),
		esCerts:      cfg.ESCerts,
		jobTimeout:   cfg.JobTimeout,
		catalogTTL:   cfg.CatalogTTL,
		dispatchSem:  make(chan struct{}, cfg.MaxInflightDispatch),
		sharding:     cfg.Sharding,
		onDispatch:   cfg.OnDispatch,
		adm:          cfg.Admission,
		runs:         make(map[string]*run),
		queued:       make(map[string]*queuedSet),
		runIDs:       make(map[string]string),
		shardOwners:  make(map[int]string),
		shardEpochs:  make(map[int]uint64),
		defaultRetry: cfg.DefaultRetry,
		preempt:      cfg.Preempt && cfg.Admission != nil,
	}
	_, s.trackReplicas = cfg.Policy.(DataAware)
	if cfg.Sharding != nil && cfg.Sharding.Manager == nil {
		return nil, fmt.Errorf("scheduler: Sharding requires a lease Manager")
	}
	svc.OnDestroy(s.onSetDestroyed)
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
	if !s.ownsSet(spec.Name) {
		// Typed redirect, not a generic fault: the Originator names the
		// owning master so the client can resubmit there directly.
		return nil, s.wrongShardFault(spec.Name, s.shardOf(spec.Name))
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

	if s.adm != nil {
		// Admission control is on: journal the set as Queued and ack; the
		// fair-share pump activates it later.
		return s.admitSubmit(ctx, spec, clientFiles, clientListener, principal)
	}

	doc := jobSetDocument(spec, clientFiles, clientListener, principal, SetRunning)
	setEPR, err := s.svc.CreateResource("", doc)
	if err != nil {
		return nil, soap.ReceiverFault("scheduler: create job set resource: %v", err)
	}
	id := setEPR.Property(wsrf.QResourceID)
	// "The Scheduler service then generates a unique topic name for
	// events related to this job set."
	topic := "jobset-" + id
	if err := s.svc.UpdateResource(id, func(doc *xmlutil.Element) error {
		doc.Append(xmlutil.NewElement(QTopic, topic))
		return nil
	}); err != nil {
		return nil, soap.ReceiverFault("scheduler: %v", err)
	}

	r := &run{
		id:          id,
		topic:       topic,
		spec:        spec,
		clientFiles: clientFiles,
		creds:       wssec.Credentials{Username: principal.Username, Password: principal.Password},
		jobs:        make(map[string]*jobRun, len(spec.Jobs)),
		status:      SetRunning,
	}
	for i := range spec.Jobs {
		j := &spec.Jobs[i]
		r.jobs[j.Name] = &jobRun{spec: j, state: JobPending}
	}
	s.mu.Lock()
	s.wireConsumerLocked()
	s.runs[topic] = r
	s.runIDs[id] = topic
	s.mu.Unlock()

	// On a subscription fault, undo the registration: leaving the run in
	// s.runs and the resource in the home would let a half-born set — one
	// the client was never acked, will never poll and can never destroy —
	// leak forever and shadow its topic.
	abort := func() {
		s.mu.Lock()
		delete(s.runs, topic)
		delete(s.runIDs, id)
		s.mu.Unlock()
		_ = s.svc.DestroyResource(id)
	}

	// "subscribe both itself and the client's notification listener".
	bg := context.WithoutCancel(ctx)
	if _, err := wsn.SubscribeVia(bg, s.client, s.broker, s.ConsumerEPR(), wsn.Simple(topic)); err != nil {
		abort()
		return nil, soap.ReceiverFault("scheduler: broker subscription: %v", err)
	}
	if !clientListener.IsZero() {
		if _, err := wsn.SubscribeVia(bg, s.client, s.broker, clientListener, wsn.Simple(topic)); err != nil {
			abort()
			return nil, soap.ReceiverFault("scheduler: client subscription: %v", err)
		}
	}
	s.ensureCatalogSubscription(bg)
	s.ensureReplicaSubscription(bg)
	s.publishReplicaWant(bg, spec.Replicas)

	// Kick scheduling off the request path.
	go s.scheduleReady(bg, r)

	return xmlutil.NewContainer(qSubmitResp,
		setEPR.ElementNamed(qJobSetEPR),
		xmlutil.NewElement(qTopicOut, topic),
	), nil
}

// jobSetDocument builds the job-set WS-Resource. Everything a restarted
// scheduler needs to resume the run is persisted here: the spec, the
// client's endpoints and per-job progress (credentials excepted — they
// stay in memory, so secured runs cannot survive a restart).
func jobSetDocument(spec *JobSetSpec, clientFiles, clientListener wsa.EndpointReference, principal wssec.Principal, status string) *xmlutil.Element {
	doc := xmlutil.NewContainer(xmlutil.Q(NS, "JobSetState"),
		xmlutil.NewElement(QName, spec.Name),
		xmlutil.NewElement(QStatus, status),
	)
	if principal.Username != "" {
		doc.SetAttr(qSecured, "true")
	}
	snapshot := &xmlutil.Element{Name: qSpecSnapshot}
	snapshot.Append(specElement(spec)...)
	doc.Append(snapshot)
	if !clientFiles.IsZero() {
		doc.Append(clientFiles.ElementNamed(qClientFiles))
	}
	if !clientListener.IsZero() {
		doc.Append(clientListener.ElementNamed(qClientListener))
	}
	for _, j := range spec.Jobs {
		st := xmlutil.NewElement(QJobState, "")
		st.SetAttr(qNameAttr, j.Name)
		st.SetAttr(qStatusAttr, JobPending)
		doc.Append(st)
	}
	return doc
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
		job, seq := s.nextReady(r)
		if job == nil {
			break
		}
		s.dispatchSem <- struct{}{}
		wg.Add(1)
		go func(j *jobRun, seq int) {
			defer wg.Done()
			defer func() { <-s.dispatchSem }()
			if err := s.dispatch(ctx, r, j, seq); err != nil {
				if errors.Is(err, errShardLost) {
					// The shard moved to another master mid-dispatch;
					// the run is (or is about to be) parked. Not a job
					// failure — the new owner re-dispatches.
					return
				}
				s.failJob(ctx, r, j.spec.Name, "dispatch: "+err.Error())
			}
		}(job, seq)
	}
	wg.Wait()
}

// nextReady reserves one ready job (marks it Dispatched) and returns it
// with its dispatch sequence number. The sequence is captured here,
// under the lock, because concurrent scheduleReady goroutines (spawned
// by completion notifications) would otherwise read each other's
// increments and break round-robin rotation.
func (s *Service) nextReady(r *run) (*jobRun, int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.status != SetRunning || r.lost {
		return nil, 0
	}
	for _, name := range jobOrder(r.spec) {
		j := r.jobs[name]
		if j.state != JobPending {
			continue
		}
		if !j.retryAt.IsZero() && time.Now().Before(j.retryAt) {
			continue // backoff not yet elapsed
		}
		if readyLocked(r, j) {
			j.state = JobDispatched
			j.retryAt = time.Time{}
			r.seq++
			return j, r.seq
		}
	}
	return nil, 0
}

// readyLocked evaluates a pending job's run-on gate against its
// dependencies' states. Callers hold r.mu.
func readyLocked(r *run, j *jobRun) bool {
	anyFailed := false
	for _, dep := range j.spec.Dependencies() {
		d := r.jobs[dep]
		switch j.spec.EffectiveRunOn() {
		case RunOnSuccess:
			if d.state != JobCompleted {
				return false
			}
		default: // RunOnFailure, RunOnAlways: deps must merely be settled
			if !jobTerminal(d.state) {
				return false
			}
			if d.state == JobFailed {
				anyFailed = true
			}
		}
	}
	if j.spec.EffectiveRunOn() == RunOnFailure {
		return anyFailed
	}
	return true
}

// impossibleLocked reports whether a pending job's run-on gate can no
// longer ever be met, whatever happens to the jobs still in flight.
// Callers hold r.mu.
func impossibleLocked(r *run, j *jobRun) bool {
	switch j.spec.EffectiveRunOn() {
	case RunOnFailure:
		// Doomed only once every dependency settled without a failure.
		for _, dep := range j.spec.Dependencies() {
			d := r.jobs[dep]
			if !jobTerminal(d.state) || d.state == JobFailed {
				return false
			}
		}
		return true
	case RunOnAlways:
		return false // dependencies always settle eventually
	default: // RunOnSuccess
		for _, dep := range j.spec.Dependencies() {
			if st := r.jobs[dep].state; jobTerminal(st) && st != JobCompleted {
				return true
			}
		}
		return false
	}
}

// cancelImpossibleLocked cancels, to fixpoint, every pending job whose
// run-on gate is unsatisfiable. Callers hold r.mu; the returned names
// need their documents refreshed once the lock is released.
func cancelImpossibleLocked(r *run) []string {
	var changed []string
	for again := true; again; {
		again = false
		for _, name := range jobOrder(r.spec) {
			j := r.jobs[name]
			if j.state != JobPending || !impossibleLocked(r, j) {
				continue
			}
			stopWatchdog(j)
			j.state = JobCancelled
			j.retryAt = time.Time{}
			changed = append(changed, name)
			again = true
		}
	}
	return changed
}

// jobOrder returns job names in declaration order, keeping dispatch
// deterministic.
func jobOrder(spec *JobSetSpec) []string {
	out := make([]string, len(spec.Jobs))
	for i := range spec.Jobs {
		out[i] = spec.Jobs[i].Name
	}
	return out
}

// dispatch is steps 2-3 of Fig. 3: consult the processor catalog, pick
// a node, send Run. Step 2 is served from the notification-fed cache
// when fresh; only a stale cache costs a NIS poll.
func (s *Service) dispatch(ctx context.Context, r *run, j *jobRun, seq int) error {
	if err := s.dispatchFence(r); err != nil {
		return err
	}
	procs, err := s.processors(ctx)
	if err != nil {
		return err
	}
	files, executable, err := s.resolveFiles(r, j.spec)
	if err != nil {
		return err
	}
	// Annotate the refs with content hashes and replica EPRs (so the
	// staging FSS can pull from the nearest holder) and weigh where the
	// bytes already live into the placement decision.
	loc := s.annotateReplicas(files, procs)
	node, err := s.policy.Pick(procs, loc, seq)
	if err != nil {
		return err
	}
	req := soap.New(execution.RunRequest(j.spec.Name, r.topic, executable, files))
	r.mu.Lock()
	creds := r.creds
	r.mu.Unlock()
	if creds.Username != "" {
		if err := wssec.AttachUsernameToken(req, creds, false, time.Now()); err != nil {
			return err
		}
		if s.esCerts != nil {
			if cert, ok := s.esCerts(node.ES); ok {
				if err := wssec.EncryptSecurityHeader(req, cert); err != nil {
					return err
				}
			}
		}
	}
	// Re-check the fence at the last possible moment: the lease may
	// have lapsed while credentials and files were being prepared. The
	// grace window peers wait out before claiming an expired shard is
	// what makes this check-then-send safe against a concurrent owner.
	if err := s.dispatchFence(r); err != nil {
		return err
	}
	s.recordDispatch(r, j.spec.Name, node.Host)
	resp, err := s.client.Invoke(ctx, node.ES, execution.ActionRun, req)
	if err != nil {
		return fmt.Errorf("run on %s: %w", node.Host, err)
	}
	jobEPR, dirEPR, err := execution.ParseRunResponse(resp.Body)
	if err != nil {
		return err
	}
	r.mu.Lock()
	// The broker can deliver this attempt's started/exited events before
	// the Run response lands, so Running/Completed with a matching (or
	// not-yet-adopted) job EPR is still the same attempt. Anything else —
	// set no longer Running, job failed/cancelled/queued for retry, or a
	// different EPR — means this fresh process was overtaken and is an
	// orphan this path must reap.
	sameAttempt := j.state == JobDispatched ||
		((j.state == JobRunning || j.state == JobCompleted) &&
			(j.jobEPR.IsZero() || j.jobEPR.String() == jobEPR.String()))
	if r.status != SetRunning || !sameAttempt {
		// Only an attempt that was still Dispatched is marked cancelled;
		// an overtaken job keeps the state its retry or terminal
		// transition already chose.
		if j.state == JobDispatched {
			j.state = JobCancelled
		}
		r.mu.Unlock()
		_, _ = s.client.Call(ctx, jobEPR, execution.ActionKill, execution.KillRequest())
		s.updateJobDoc(r, j.spec.Name)
		return nil
	}
	j.node = node.Host
	j.jobEPR = jobEPR
	if !dirEPR.IsZero() {
		j.dirEPR = dirEPR
	}
	if s.jobTimeout > 0 && !jobTerminal(j.state) {
		name := j.spec.Name
		j.watchdog = time.AfterFunc(s.jobTimeout, func() {
			s.jobTimedOut(r, name)
		})
	}
	r.mu.Unlock()
	s.updateJobDoc(r, j.spec.Name)
	return nil
}

// jobTimedOut fires when a dispatched job produced no terminal event in
// time — the machine died or the network partitioned mid-job.
func (s *Service) jobTimedOut(r *run, jobName string) {
	r.mu.Lock()
	j := r.jobs[jobName]
	stillLive := j != nil && (j.state == JobDispatched || j.state == JobRunning)
	r.mu.Unlock()
	if !stillLive {
		return
	}
	s.failJob(context.Background(), r, jobName, fmt.Sprintf("no completion within %v (machine unreachable?)", s.jobTimeout))
}

// stopWatchdog cancels a job's timer on any terminal transition. Callers
// hold r.mu.
func stopWatchdog(j *jobRun) {
	if j.watchdog != nil {
		j.watchdog.Stop()
		j.watchdog = nil
	}
}

// processors returns the catalog a dispatch decision should see: the
// push-fed cache while fresh, otherwise a direct NIS poll whose result
// re-primes the cache. When the poll itself fails but a stale catalog
// exists, the stale view is served — dispatching on old load data beats
// failing the job outright while the broker outage that starved the
// cache is also breaking the poll path.
func (s *Service) processors(ctx context.Context) ([]nodeinfo.Processor, error) {
	if s.catalogTTL > 0 {
		s.cat.mu.RLock()
		procs, updated := s.cat.procs, s.cat.updated
		s.cat.mu.RUnlock()
		if len(procs) > 0 && time.Since(updated) < s.catalogTTL {
			return procs, nil
		}
	}
	s.cat.mu.Lock()
	s.cat.polls++
	s.cat.mu.Unlock()
	polled, err := nodeinfo.GetProcessorsVia(ctx, s.client, s.nis)
	if err != nil {
		if s.catalogTTL > 0 {
			s.cat.mu.RLock()
			procs := s.cat.procs
			s.cat.mu.RUnlock()
			if len(procs) > 0 {
				return procs, nil
			}
		}
		return nil, fmt.Errorf("poll NIS: %w", err)
	}
	if s.catalogTTL > 0 {
		s.cat.mu.Lock()
		s.cat.procs, s.cat.updated = polled, time.Now()
		s.cat.mu.Unlock()
	}
	return polled, nil
}

// storeCatalog applies a pushed catalog-changed payload to the cache.
func (s *Service) storeCatalog(procs []nodeinfo.Processor) {
	if s.catalogTTL <= 0 {
		return
	}
	s.cat.mu.Lock()
	s.cat.pushes++
	s.cat.procs, s.cat.updated = procs, time.Now()
	s.cat.mu.Unlock()
}

// CatalogStats reports how the dispatch path has been fed: NIS
// GetProcessors polls attempted vs catalog-changed pushes applied.
func (s *Service) CatalogStats() (polls, pushes int64) {
	s.cat.mu.RLock()
	defer s.cat.mu.RUnlock()
	return s.cat.polls, s.cat.pushes
}

// ensureCatalogSubscription subscribes the SS consumer to the NIS
// catalog-changed topic, once, and primes the cache from the broker's
// current message so the first dispatch may need no poll at all. Both
// steps are best-effort: with the broker unreachable the cache simply
// stays cold and dispatch falls back to polling the NIS directly.
func (s *Service) ensureCatalogSubscription(ctx context.Context) {
	if s.catalogTTL <= 0 {
		return
	}
	// Claim the flag before subscribing: a check-then-act window here
	// would let concurrent submits race past each other and register
	// duplicate subscriptions, double-delivering every catalog push.
	s.mu.Lock()
	if s.catSubscribed {
		s.mu.Unlock()
		return
	}
	s.catSubscribed = true
	s.mu.Unlock()
	if _, err := wsn.SubscribeVia(ctx, s.client, s.broker, s.ConsumerEPR(), wsn.Simple(nodeinfo.CatalogTopic)); err != nil {
		// Release the claim so the next submission retries.
		s.mu.Lock()
		s.catSubscribed = false
		s.mu.Unlock()
		return
	}
	if n, err := wsn.GetCurrentMessageVia(ctx, s.client, s.broker, wsn.Simple(nodeinfo.CatalogTopic)); err == nil {
		if procs, perr := nodeinfo.ParseCatalogChanged(n.Message); perr == nil && len(procs) > 0 {
			s.storeCatalog(procs)
		}
	}
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
		producer := r.jobs[scheme]
		dir := producer.dirEPR
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

// onNotification reacts to broker events: "When the Scheduler gets the
// message that a job has completed, it schedules the next job that no
// longer has any uncompleted dependencies."
func (s *Service) onNotification(ctx context.Context, n wsn.Notification) {
	if root, _, _ := strings.Cut(n.Topic, "/"); root == nodeinfo.CatalogTopic {
		if procs, err := nodeinfo.ParseCatalogChanged(n.Message); err == nil {
			s.storeCatalog(procs)
		}
		return
	} else if root == ShardMapTopic {
		if shard, epoch, owner, err := parseShardOwner(n.Message); err == nil {
			s.noteShardOwner(shard, epoch, owner)
		}
		return
	} else if root == filesystem.ReplicaTopic {
		if rc, err := filesystem.ParseReplicaChanged(n.Message); err == nil {
			s.storeReplica(rc)
		}
		return
	}
	segs := strings.Split(n.Topic, "/")
	if len(segs) < 3 {
		return
	}
	topic := segs[0]
	s.mu.RLock()
	r := s.runs[topic]
	s.mu.RUnlock()
	if r == nil {
		return
	}
	ev, err := execution.ParseJobEvent(n.Message)
	if err != nil {
		return
	}
	// Keep the delivery's values (request ID) but not its cancellation:
	// scheduling the next job must outlive the notify exchange.
	ctx = context.WithoutCancel(ctx)
	r.mu.Lock()
	j := r.jobs[ev.JobName]
	if j == nil {
		r.mu.Unlock()
		return
	}
	// Stale-attempt guards: after a retry re-dispatch, the previous
	// attempt's events may still arrive. A job that is terminal or
	// parked between attempts (Pending) has no live attempt to report
	// on, and an event naming a different job EPR than the current
	// attempt is history.
	if jobTerminal(j.state) || j.state == JobPending {
		r.mu.Unlock()
		return
	}
	if !ev.Job.IsZero() && !j.jobEPR.IsZero() && ev.Job.String() != j.jobEPR.String() {
		r.mu.Unlock()
		return
	}
	if !ev.Directory.IsZero() {
		j.dirEPR = ev.Directory
	}
	if !ev.Job.IsZero() {
		j.jobEPR = ev.Job
	}
	switch ev.Kind {
	case execution.EventStarted:
		if j.state == JobDispatched {
			j.state = JobRunning
		}
		r.mu.Unlock()
		s.updateJobDoc(r, ev.JobName)
	case execution.EventExited:
		stopWatchdog(j)
		if ev.HasExit && ev.ExitCode == 0 {
			j.state = JobCompleted
			j.exitCode = 0
			r.mu.Unlock()
			s.updateJobDoc(r, ev.JobName)
			s.maybeComplete(ctx, r)
			s.scheduleReady(ctx, r)
			return
		}
		j.exitCode = ev.ExitCode
		r.mu.Unlock()
		s.failJob(ctx, r, ev.JobName, fmt.Sprintf("exit code %d", ev.ExitCode))
	case execution.EventFailed:
		stopWatchdog(j)
		r.mu.Unlock()
		s.failJob(ctx, r, ev.JobName, ev.Error)
	default:
		r.mu.Unlock()
	}
}

// maybeComplete finishes the job set once no job can still run: after
// cancelling pending jobs whose run-on gate became unsatisfiable, a set
// with every job terminal goes Completed when nothing failed and Failed
// otherwise (a failed sibling whose cleanup jobs have since finished).
func (s *Service) maybeComplete(ctx context.Context, r *run) {
	r.mu.Lock()
	if r.status != SetRunning || r.lost {
		r.mu.Unlock()
		return
	}
	changed := cancelImpossibleLocked(r)
	status, failedJob := SetCompleted, ""
	for _, name := range jobOrder(r.spec) {
		switch j := r.jobs[name]; j.state {
		case JobFailed:
			status = SetFailed
			if failedJob == "" {
				failedJob = name
			}
		case JobCompleted, JobCancelled:
		default:
			// Still pending (possibly waiting out a retry backoff),
			// dispatched or running: not done yet.
			r.mu.Unlock()
			for _, n := range changed {
				s.updateJobDoc(r, n)
			}
			return
		}
	}
	r.status = status
	r.mu.Unlock()
	s.releaseAdmission(r)
	for _, n := range changed {
		s.updateJobDoc(r, n)
	}
	s.setStatus(r, status)
	detail := ""
	if status == SetFailed {
		detail = fmt.Sprintf("job %q failed", failedJob)
	}
	// Stamp notified only when the broker actually took the event: a
	// failed publish must leave the marker off so Recover republishes
	// after a restart (invariant I4, at-least-once terminal delivery).
	if s.publishSetEvent(ctx, r, status, detail) == nil {
		s.markNotified(r.id)
	}
}

// retryPolicy resolves the policy for one job: its own, or the
// service-wide default when the spec carries none.
func (s *Service) retryPolicy(spec *JobSpec) RetryPolicy {
	if spec.Retry.Limit > 0 {
		return spec.Retry
	}
	return s.defaultRetry
}

// failJob handles one job's failure — nonzero exit, watchdog timeout or
// dispatch error. While retry budget remains the job is re-queued with
// backoff (a re-dispatch arms a fresh watchdog); once exhausted it goes
// Failed, sibling work that can no longer matter is cancelled and
// killed, run-on-failure cleanup jobs are launched, and the set goes
// terminal when nothing is left.
func (s *Service) failJob(ctx context.Context, r *run, jobName, reason string) {
	s.failJobOpt(ctx, r, jobName, reason, true)
}

// failJobFinal is failJob without the retry path — for failures no
// re-dispatch can cure (unrecoverable credentials).
func (s *Service) failJobFinal(ctx context.Context, r *run, jobName, reason string) {
	s.failJobOpt(ctx, r, jobName, reason, false)
}

func (s *Service) failJobOpt(ctx context.Context, r *run, jobName, reason string, allowRetry bool) {
	r.mu.Lock()
	if r.lost {
		r.mu.Unlock()
		return
	}
	j := r.jobs[jobName]
	if j == nil || jobTerminal(j.state) {
		// A late duplicate verdict (watchdog racing the exit event, a
		// stale attempt's event): the first one stood.
		r.mu.Unlock()
		return
	}
	if policy := s.retryPolicy(j.spec); allowRetry && r.status == SetRunning && j.attempts < policy.Limit {
		j.attempts++
		oldEPR := j.jobEPR
		stopWatchdog(j)
		j.state = JobPending
		j.node = ""
		j.jobEPR = wsa.EndpointReference{}
		j.dirEPR = wsa.EndpointReference{}
		j.exitCode = 0
		j.retryAt = time.Now().Add(policy.Backoff)
		r.mu.Unlock()
		if !oldEPR.IsZero() {
			// The failed attempt may still be alive (watchdog timeout on a
			// partitioned node): reap it so two attempts never overlap.
			_, _ = s.client.Call(ctx, oldEPR, execution.ActionKill, execution.KillRequest())
		}
		s.updateJobDoc(r, jobName)
		time.AfterFunc(policy.Backoff, func() {
			s.scheduleReady(context.Background(), r)
		})
		return
	}

	// Permanent failure. Collect the failed job's own process first —
	// it may well still be running (watchdog timeout) and must die too.
	var toKill []wsa.EndpointReference
	if !j.jobEPR.IsZero() {
		toKill = append(toKill, j.jobEPR)
	}
	stopWatchdog(j)
	j.state = JobFailed
	j.retryAt = time.Time{}
	if r.status != SetRunning {
		// The set already went terminal (cancel racing the watchdog);
		// the verdict stands, but the straggler process still dies.
		r.mu.Unlock()
		for _, epr := range toKill {
			_, _ = s.client.Call(ctx, epr, execution.ActionKill, execution.KillRequest())
		}
		s.updateJobDoc(r, jobName)
		return
	}
	// Fail-fast doom model: ordinary (run-on-success) work is cancelled
	// — and killed, so no process outlives its set's verdict — while
	// run-on-failure/always handlers survive to observe the failure.
	for _, other := range r.jobs {
		if other == j || other.spec.EffectiveRunOn() != RunOnSuccess {
			continue
		}
		switch other.state {
		case JobPending:
			stopWatchdog(other)
			other.state = JobCancelled
			other.retryAt = time.Time{}
		case JobRunning, JobDispatched:
			stopWatchdog(other)
			if !other.jobEPR.IsZero() {
				toKill = append(toKill, other.jobEPR)
			}
			other.state = JobCancelled
			other.retryAt = time.Time{}
		}
	}
	cancelImpossibleLocked(r)
	done := true
	for _, other := range r.jobs {
		if !jobTerminal(other.state) {
			done = false
			break
		}
	}
	if done {
		r.status = SetFailed
	}
	r.mu.Unlock()
	for _, epr := range toKill {
		_, _ = s.client.Call(ctx, epr, execution.ActionKill, execution.KillRequest())
	}
	if !done {
		// Cleanup handlers remain: persist the cancellations, launch the
		// now-ready handlers and let their completions finish the set.
		s.updateAllJobDocs(r)
		s.scheduleReady(ctx, r)
		s.maybeComplete(ctx, r)
		return
	}
	s.releaseAdmission(r)
	s.updateAllJobDocs(r)
	s.setStatus(r, SetFailed)
	// As in maybeComplete: only a successful publish earns the marker.
	if s.publishSetEvent(ctx, r, SetFailed, fmt.Sprintf("job %q failed: %s", jobName, reason)) == nil {
		s.markNotified(r.id)
	}
}

// handleCancel aborts a job set on client request.
func (s *Service) handleCancel(ctx context.Context, inv *wsrf.Invocation, body *xmlutil.Element) (*xmlutil.Element, error) {
	topic := inv.Property(QTopic)
	s.mu.RLock()
	r := s.runs[topic]
	parked := r == nil && s.queued[topic] != nil
	s.mu.RUnlock()
	if parked {
		if resp, ok := s.cancelQueued(ctx, inv, topic); ok {
			return resp, nil
		}
		// Lost the race with activation: the run registers shortly;
		// the client can cancel again.
		s.mu.RLock()
		r = s.runs[topic]
		s.mu.RUnlock()
	}
	if r == nil {
		return nil, wsrf.NewBaseFault("NoSuchJobSetFault", "job set %q has no active run", inv.ResourceID).SOAPFault(soap.CodeSender)
	}
	r.mu.Lock()
	if r.status != SetRunning || r.lost {
		// Already terminal (or parked for another master): the first
		// verdict stands. Overwriting it here would clobber a
		// Completed/Failed status and publish a second, contradictory
		// terminal event.
		r.mu.Unlock()
		return &xmlutil.Element{Name: qCancelResp}, nil
	}
	r.status = SetCancelled
	var toKill []wsa.EndpointReference
	for _, j := range r.jobs {
		stopWatchdog(j)
		switch j.state {
		case JobPending:
			j.state = JobCancelled
			j.retryAt = time.Time{}
		case JobRunning, JobDispatched:
			if !j.jobEPR.IsZero() {
				toKill = append(toKill, j.jobEPR)
			}
			// The kill is in flight: record the verdict so the document
			// never shows a live job inside a terminal set.
			j.state = JobCancelled
		}
	}
	states := make(map[string]string, len(r.jobs))
	for name, j := range r.jobs {
		states[name] = j.state
	}
	r.mu.Unlock()
	s.releaseAdmission(r)
	for _, epr := range toKill {
		_, _ = s.client.Call(ctx, epr, execution.ActionKill, execution.KillRequest())
	}
	// Mutate the invocation's own document: the wrapper pipeline holds
	// this resource's lock, so UpdateResource would self-deadlock here.
	inv.SetProperty(QStatus, SetCancelled)
	for _, st := range inv.Doc.ChildrenNamed(QJobState) {
		if state, ok := states[st.Attr(qNameAttr)]; ok {
			st.SetAttr(qStatusAttr, state)
		}
	}
	if s.publishSetEvent(ctx, r, SetCancelled, "cancelled by client") == nil {
		// The invocation pipeline holds this resource's lock (see above),
		// so mark the invocation's own document rather than via
		// UpdateResource. A failed publish leaves the marker off for
		// Recover to republish.
		inv.Doc.SetAttr(qNotifiedAttr, "true")
	}
	return &xmlutil.Element{Name: qCancelResp}, nil
}

// CancelRequest builds the Cancel body.
func CancelRequest() *xmlutil.Element { return &xmlutil.Element{Name: qCancel} }

// setStatus persists the set-level status into the resource document.
func (s *Service) setStatus(r *run, status string) {
	if r.fenced() {
		return
	}
	_ = s.svc.UpdateResource(r.id, func(doc *xmlutil.Element) error {
		if c := doc.Child(QStatus); c != nil {
			c.Text = status
		}
		return nil
	})
}

// updateAllJobDocs mirrors every job's runtime state in one write.
func (s *Service) updateAllJobDocs(r *run) { s.updateJobDoc(r, "") }

// updateJobDoc mirrors runtime job state into the resource document:
// the job named, or every job when jobName is empty. The state is read
// inside the UpdateResource callback (per-resource lock, then r.mu — the
// order handleCancel uses), never before it: a snapshot taken outside
// could be overtaken by a later transition's write while waiting for the
// resource, and then land on top of it — a terminal set persisting a
// Running job.
func (s *Service) updateJobDoc(r *run, jobName string) {
	_ = s.svc.UpdateResource(r.id, func(doc *xmlutil.Element) error {
		r.mu.Lock()
		defer r.mu.Unlock()
		if r.lost {
			return errors.New("scheduler: run lost to another master") // aborts the write
		}
		for _, st := range doc.ChildrenNamed(QJobState) {
			name := st.Attr(qNameAttr)
			j := r.jobs[name]
			if j == nil || (jobName != "" && name != jobName) {
				continue
			}
			st.SetAttr(qStatusAttr, j.state)
			if j.node != "" {
				st.SetAttr(qNodeAttr, j.node)
			}
			if !j.dirEPR.IsZero() {
				st.SetAttr(qDirAttr, j.dirEPR.String())
			}
			if j.attempts > 0 {
				st.SetAttr(qAttemptAttr, strconv.Itoa(j.attempts))
			}
			if j.state == JobCompleted || j.state == JobFailed {
				st.SetAttr(qExitAttr, strconv.Itoa(j.exitCode))
			}
		}
		return nil
	})
}

// publishSetEvent broadcasts a set-level event on "<topic>/jobset/<kind>".
func (s *Service) publishSetEvent(ctx context.Context, r *run, status, detail string) error {
	return s.publishSetEventRaw(ctx, r.id, r.topic, status, detail)
}

// publishSetEventRaw is publishSetEvent without a live run — Recover
// republishes terminal events for crashed runs straight from the
// persisted document. The error matters: callers use it to decide
// whether the notified marker may be stamped.
func (s *Service) publishSetEventRaw(ctx context.Context, id, topic, status, detail string) error {
	payload := xmlutil.NewContainer(xmlutil.Q(NS, "JobSetEvent"),
		xmlutil.NewElement(QStatus, status),
	)
	if detail != "" {
		payload.Append(xmlutil.NewElement(xmlutil.Q(NS, "Detail"), detail))
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

// markNotified records that the terminal set event reached the broker.
func (s *Service) markNotified(id string) {
	_ = s.svc.UpdateResource(id, func(doc *xmlutil.Element) error {
		doc.SetAttr(qNotifiedAttr, "true")
		return nil
	})
}

// onSetDestroyed evicts the in-memory run when its job-set resource is
// destroyed — by the client's Destroy or by lifetime expiry. Without
// this, terminal runs accumulate in s.runs for the master's whole
// lifetime. A set destroyed while still running is treated as a cancel:
// watchdogs stop, live jobs are killed best-effort. No document writes
// happen here — the resource is gone, and the lifetime port's destroy
// path runs this hook while holding the resource lock.
func (s *Service) onSetDestroyed(id string) {
	s.mu.Lock()
	topic, ok := s.runIDs[id]
	if !ok {
		s.mu.Unlock()
		return
	}
	delete(s.runIDs, id)
	r := s.runs[topic]
	delete(s.runs, topic)
	qs := s.queued[topic]
	delete(s.queued, topic)
	s.mu.Unlock()
	if qs != nil && s.adm != nil && qs.entry.Topic != "" {
		// Destroyed while parked: unpark, no running slot to release.
		s.adm.Remove(qs.entry.Tenant, qs.entry.Seq)
	}
	if r == nil {
		return
	}
	s.releaseAdmission(r)
	r.mu.Lock()
	wasRunning := r.status == SetRunning
	if wasRunning {
		r.status = SetCancelled
	}
	var toKill []wsa.EndpointReference
	for _, j := range r.jobs {
		stopWatchdog(j)
		if wasRunning && (j.state == JobRunning || j.state == JobDispatched) && !j.jobEPR.IsZero() {
			toKill = append(toKill, j.jobEPR)
		}
	}
	r.mu.Unlock()
	if len(toKill) > 0 {
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			for _, epr := range toKill {
				_, _ = s.client.Call(ctx, epr, execution.ActionKill, execution.KillRequest())
			}
		}()
	}
}

// OutputDirectory reports where a job's outputs live, once known —
// clients use it to retrieve result files.
func (s *Service) OutputDirectory(topic, jobName string) (wsa.EndpointReference, bool) {
	s.mu.RLock()
	r := s.runs[topic]
	s.mu.RUnlock()
	if r == nil {
		return wsa.EndpointReference{}, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	j := r.jobs[jobName]
	if j == nil || j.dirEPR.IsZero() {
		return wsa.EndpointReference{}, false
	}
	return j.dirEPR, true
}
