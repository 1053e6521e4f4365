package core

import (
	"context"
	"fmt"
	"math/rand"
	"net/url"
	"sort"
	"sync"
	"time"

	"uvacg/internal/admission"
	"uvacg/internal/resourcedb"
	"uvacg/internal/services/execution"
	"uvacg/internal/services/filesystem"
	"uvacg/internal/services/scheduler"
	"uvacg/internal/soap"
	"uvacg/internal/transport"
	"uvacg/internal/wsa"
	"uvacg/internal/wsn"
	"uvacg/internal/wsrf"
	"uvacg/internal/wssec"
	"uvacg/internal/xmlutil"
)

// ClientConfig is what a client needs of its surroundings. gridsub fills
// it from its flags, Grid.NewClient from the in-process grid, simgrid's
// Observer from its cluster.
type ClientConfig struct {
	// Transport carries every outbound call.
	Transport *transport.Client
	// Master is the base address of the master the client submits to; the
	// Scheduler and the Notification Broker are reached under it.
	Master string
	// Expose puts the client's server — the notification listener at
	// /listener and, unless TCPFiles, the file server at /files — on the
	// caller's fabric and returns its base address and how to take it off.
	Expose func(*transport.Server) (base string, stop func(), err error)
	// TCPFiles serves local files from a soap.tcp listener of their own
	// (the paper's WSE TCP server thread).
	TCPFiles bool
	// Credentials, when set, ride every Submit: encrypted to
	// SchedulerCertificate when there is one, as a password digest when
	// not. Password text never crosses unencrypted.
	Credentials          wssec.Credentials
	SchedulerCertificate *wssec.Certificate
	// MaxRetryAfter caps the Retry-After hint honored between Submit
	// attempts a full admission queue shed (default 30s).
	MaxRetryAfter time.Duration
	// Journal, when set, holds one row per submitted job set so that a
	// restarted process can Resume instead of resubmitting.
	Journal *resourcedb.Table
	// Logf, when set, receives the progress lines a CLI shows its user.
	Logf func(format string, args ...any)
	// Tap, when set, sees every notification the listener receives,
	// before it is routed.
	Tap func(wsn.Notification)
}

// maxShedRetries bounds the attempts the submit loop makes against a full
// admission queue.
const maxShedRetries = 10

// Client plays the scientist's GUI tool (paper §4.6): it serves local
// input files to the grid, runs a light-weight notification receiver,
// submits job sets to the Scheduler, follows them, and retrieves outputs
// from wherever jobs ended up executing.
type Client struct {
	// Files is the server behind Local(name) sources.
	Files *filesystem.FileServer

	cfg      ClientConfig
	base     string
	stop     func()
	filesEPR wsa.EndpointReference

	mu          sync.Mutex
	submissions map[string]*Submission // topic → submission
	pending     []heard                // events that raced ahead of Submit's reply
}

// heard is one notification with its topic already read.
type heard struct {
	n  wsn.Notification
	ev scheduler.Event
}

// NewClient starts the client's file server and notification listener.
func NewClient(cfg ClientConfig) (*Client, error) {
	if cfg.MaxRetryAfter <= 0 {
		cfg.MaxRetryAfter = 30 * time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	c := &Client{
		Files:       filesystem.NewFileServer("/files"),
		cfg:         cfg,
		submissions: make(map[string]*Submission),
	}
	consumer := wsn.NewConsumer()
	consumer.Handle(wsn.MustTopicExpression(wsn.DialectFull, "*//"), c.route)
	mux := soap.NewMux()
	consumer.Mount(mux, "/listener")
	var err error
	if cfg.TCPFiles {
		if c.filesEPR, err = c.Files.ListenTCP("127.0.0.1:0"); err != nil {
			return nil, err
		}
	} else {
		c.Files.Mount(mux)
	}
	if c.base, c.stop, err = cfg.Expose(transport.NewServer(mux)); err != nil {
		_ = c.Files.Close()
		return nil, err
	}
	if !cfg.TCPFiles {
		c.filesEPR = wsa.NewEPR(c.base + c.Files.Path())
	}
	return c, nil
}

// NewClient attaches a client to the grid. creds must name an account
// from the grid's account table when security is on. useTCP serves
// local files over a real soap.tcp listener; otherwise they ride the
// inproc fabric.
func (g *Grid) NewClient(creds wssec.Credentials, useTCP bool) (*Client, error) {
	return NewClient(g.clientConfig(creds, useTCP))
}

// clientConfig places a client on the grid's inproc network as the next
// "client-<n>" host.
func (g *Grid) clientConfig(creds wssec.Credentials, useTCP bool) ClientConfig {
	g.clientSeq++
	host := fmt.Sprintf("client-%d", g.clientSeq)
	cfg := ClientConfig{
		Transport:   g.Client,
		Master:      "inproc://" + masterHost,
		TCPFiles:    useTCP,
		Credentials: creds,
		Expose: func(srv *transport.Server) (string, func(), error) {
			srv.Use(ServerInterceptors()...)
			g.Network.Register(host, srv)
			return "inproc://" + host, func() { g.Network.Deregister(host) }, nil
		},
	}
	if cert, ok := g.SchedulerCertificate(); ok {
		cfg.SchedulerCertificate = &cert
	}
	return cfg
}

// Close releases the client's endpoints.
func (c *Client) Close() {
	c.stop()
	_ = c.Files.Close()
}

// ListenerEPR is the client's notification endpoint (the Scheduler
// subscribes it to the job set's topic).
func (c *Client) ListenerEPR() wsa.EndpointReference { return wsa.NewEPR(c.base + "/listener") }

// FilesEPR is the client's file server endpoint.
func (c *Client) FilesEPR() wsa.EndpointReference { return c.filesEPR }

// AddFile publishes a local file referenced by Local(name) sources.
func (c *Client) AddFile(name string, content []byte) { c.Files.Publish(name, content) }

// Submission tracks one submitted job set.
type Submission struct {
	Topic  string
	JobSet wsa.EndpointReference

	client *Client
	name   string // the set's name: its journal key
	mu     sync.Mutex
	dirs   map[string]wsa.EndpointReference // job name → output directory
	jobs   map[string]wsa.EndpointReference // job name → job resource
	status string
	detail string
	done   chan struct{}
	events chan wsn.Notification
}

// Submit validates and submits a job set (Fig. 3 step 1) and returns the
// handle that follows it. A Submit has two outcomes besides an error to
// report: accepted, and QueueFullFault, whose Retry-After hint is
// honored — capped, and jittered so a shed burst of clients does not
// come back in lockstep — for a bounded number of attempts.
func (c *Client) Submit(ctx context.Context, spec *JobSet) (*Submission, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	target := wsa.NewEPR(c.cfg.Master + scheduler.ServicePath)
	for sheds := 1; ; sheds++ {
		sub, err := c.SubmitTo(ctx, target, c.cfg.Credentials, spec)
		if err == nil || !admission.IsQueueFull(err) {
			return sub, err
		}
		if sheds > maxShedRetries {
			return nil, fmt.Errorf("admission queue still full after %d attempts: %w", maxShedRetries, err)
		}
		hint, ok := admission.RetryAfterHint(err)
		if !ok || hint <= 0 || hint > c.cfg.MaxRetryAfter {
			hint = c.cfg.MaxRetryAfter
		}
		wait := hint/2 + time.Duration(rand.Int63n(int64(hint)+1))
		c.cfg.Logf("admission queue full; retrying in %v (attempt %d of %d)", wait.Round(time.Millisecond), sheds, maxShedRetries)
		select {
		case <-time.After(wait):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// SubmitTo makes one Submit attempt at the scheduler at target, as
// creds: every failure — a full queue included — is the caller's to
// judge. simgrid's chaos-retry policy sits on it.
func (c *Client) SubmitTo(ctx context.Context, target wsa.EndpointReference, creds wssec.Credentials, spec *JobSet) (*Submission, error) {
	env := soap.New(scheduler.SubmitRequest(spec, c.filesEPR, c.ListenerEPR()))
	if creds.Username != "" {
		cert := c.cfg.SchedulerCertificate
		if err := wssec.AttachUsernameToken(env, creds, cert == nil, time.Now()); err != nil {
			return nil, err
		}
		if cert != nil {
			if err := wssec.EncryptSecurityHeader(env, *cert); err != nil {
				return nil, err
			}
		}
	}
	resp, err := c.cfg.Transport.Invoke(ctx, target, scheduler.ActionSubmit, env)
	if err != nil {
		return nil, err
	}
	setEPR, topic, err := scheduler.ParseSubmitResponse(resp.Body)
	if err != nil {
		return nil, err
	}
	c.cfg.Logf("submitted %q as %s (topic %s)", spec.Name, setEPR, topic)
	if pos, ok := scheduler.ParseQueuePosition(resp.Body); ok {
		c.cfg.Logf("admitted at queue position %d", pos)
	}
	return c.follow(spec.Name, setEPR, topic, nil), nil
}

// follow registers a submission for routing, journals it, and hands it
// the events that arrived before the Submit reply was processed (the
// broker races the response).
func (c *Client) follow(name string, set wsa.EndpointReference, topic string, dirs map[string]wsa.EndpointReference) *Submission {
	if dirs == nil {
		dirs = make(map[string]wsa.EndpointReference)
	}
	sub := &Submission{
		Topic:  topic,
		JobSet: set,
		client: c,
		name:   name,
		dirs:   dirs,
		jobs:   make(map[string]wsa.EndpointReference),
		done:   make(chan struct{}),
		events: make(chan wsn.Notification, 256),
	}
	sub.save()
	c.mu.Lock()
	c.submissions[topic] = sub
	var replay []heard
	kept := c.pending[:0]
	for _, h := range c.pending {
		if h.ev.Set == topic {
			replay = append(replay, h)
		} else {
			kept = append(kept, h)
		}
	}
	c.pending = kept
	c.mu.Unlock()
	for _, h := range replay {
		sub.observe(h)
	}
	return sub
}

// route delivers incoming notifications to their submission.
func (c *Client) route(_ context.Context, n wsn.Notification) {
	if c.cfg.Tap != nil {
		c.cfg.Tap(n)
	}
	ev, ok := scheduler.ParseEvent(n)
	if !ok {
		return
	}
	h := heard{n, ev}
	c.mu.Lock()
	sub := c.submissions[ev.Set]
	if sub == nil && len(c.pending) < 1024 { // a bounded raced-event buffer
		c.pending = append(c.pending, h)
	}
	c.mu.Unlock()
	if sub != nil {
		sub.observe(h)
	}
}

// observe updates submission state from one event and tees it to the
// Events channel. "preempted" is not terminal: the set is back in the
// admission queue and resumes once the higher-priority burst drains, so
// Wait keeps blocking and the file server and listener stay up for the
// re-dispatch.
func (s *Submission) observe(h heard) {
	s.mu.Lock()
	defer s.mu.Unlock()
	je := h.ev.JobEvent // zero on a set-level event
	if !je.Job.IsZero() {
		s.jobs[je.JobName] = je.Job
	}
	if !je.Directory.IsZero() && !je.Directory.Equal(s.dirs[je.JobName]) { // every event of a job repeats it
		s.dirs[je.JobName] = je.Directory
		s.save()
	}
	select {
	case s.events <- h.n:
	default:
	}
	if h.ev.Job == "" && scheduler.TerminalSetStatus(h.ev.Status) {
		s.finish(h.ev.Status, h.ev.Detail)
	}
}

// finish records the first terminal status and releases Wait; every
// event up to it is already in the Events channel. The caller holds s.mu.
func (s *Submission) finish(status, detail string) {
	if s.status != "" {
		return
	}
	s.status, s.detail = status, detail
	s.save()
	close(s.done)
}

// Events exposes the raw notification stream (what the paper's client
// application displays "to keep the user informed of the job set's
// progress"); scheduler.ParseEvent reads one.
func (s *Submission) Events() <-chan wsn.Notification { return s.events }

// Wait blocks until the job set reaches a terminal status.
func (s *Submission) Wait(ctx context.Context) (status string, err error) {
	select {
	case <-s.done:
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.status, nil
	case <-ctx.Done():
		return "", ctx.Err()
	}
}

// Status returns the terminal status and failure detail, if reached.
func (s *Submission) Status() (status, detail string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.status, s.detail
}

// OutputDirectory reports where a job's outputs live, once known from
// its directory event.
func (s *Submission) OutputDirectory(jobName string) (wsa.EndpointReference, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	epr, ok := s.dirs[jobName]
	return epr, ok
}

// JobEPR reports a job's WS-Resource EPR, once known.
func (s *Submission) JobEPR(jobName string) (wsa.EndpointReference, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	epr, ok := s.jobs[jobName]
	return epr, ok
}

// FetchOutput retrieves a file a job produced, from wherever the job
// ran ("The client can use this EPR to retrieve files generated by the
// job", paper §4.6). If the directory event raced past the client
// (one-way delivery is unordered: jobset/completed can overtake it), the
// directory is recovered from the job-set WS-Resource's JobState
// property, where the Scheduler persists it.
func (s *Submission) FetchOutput(ctx context.Context, jobName, fileName string) ([]byte, error) {
	dir, ok := s.OutputDirectory(jobName)
	if !ok {
		states, err := wsrf.NewResourceClient(s.client.cfg.Transport, s.JobSet).GetProperty(ctx, scheduler.QJobState)
		if err != nil {
			return nil, fmt.Errorf("core: output directory of %q: %w", jobName, err)
		}
		view := scheduler.ParseJobSetDocument(&xmlutil.Element{Children: states})
		j := view.Job(jobName)
		if j == nil || j.Dir.IsZero() {
			return nil, fmt.Errorf("core: output directory of %q is not yet known", jobName)
		}
		dir = j.Dir
		s.mu.Lock()
		s.dirs[jobName] = dir
		s.save()
		s.mu.Unlock()
	}
	return filesystem.FetchFile(ctx, s.client.cfg.Transport, dir, fileName)
}

// KillJob kills one running job via its job resource.
func (s *Submission) KillJob(ctx context.Context, jobName string) error {
	epr, ok := s.JobEPR(jobName)
	if !ok {
		return fmt.Errorf("core: job %q has no known EPR yet", jobName)
	}
	_, err := s.client.cfg.Transport.Call(ctx, epr, execution.ActionKill, execution.KillRequest())
	return err
}

// Cancel aborts the whole job set.
func (s *Submission) Cancel(ctx context.Context) error {
	_, err := s.client.cfg.Transport.Call(ctx, s.JobSet, scheduler.ActionCancel, scheduler.CancelRequest())
	return err
}

// The submission journal: one structured row per job set name, holding
// the set EPR, the topic, the file server address the Scheduler stages
// local:// sources from, the terminal status once reached, and the
// per-job output directories collected so far.

const nsSub = "urn:uvacg:gridsub"

var (
	qSubmission = xmlutil.Q(nsSub, "Submission")
	qSubSet     = xmlutil.Q(nsSub, "SetEPR")
	qSubTopic   = xmlutil.Q(nsSub, "Topic")
	qSubStatus  = xmlutil.Q(nsSub, "Status")
	qSubFiles   = xmlutil.Q(nsSub, "Files")
	qSubJob     = xmlutil.Q(nsSub, "Job")
	qSubName    = xmlutil.Q("", "name")
	qSubDir     = xmlutil.Q("", "dir")
)

// save writes the submission's journal row. The caller holds s.mu (or
// nobody else can see s yet), which also keeps rows in event order.
func (s *Submission) save() {
	journal := s.client.cfg.Journal
	if journal == nil {
		return
	}
	doc := xmlutil.NewContainer(qSubmission,
		xmlutil.NewElement(qSubSet, s.JobSet.String()),
		xmlutil.NewElement(qSubTopic, s.Topic),
		xmlutil.NewElement(qSubStatus, s.status),
		xmlutil.NewElement(qSubFiles, s.client.filesEPR.Address),
	)
	jobs := make([]string, 0, len(s.dirs))
	for j := range s.dirs {
		jobs = append(jobs, j)
	}
	sort.Strings(jobs)
	for _, j := range jobs {
		el := xmlutil.NewElement(qSubJob, "")
		el.SetAttr(qSubName, j)
		el.SetAttr(qSubDir, s.dirs[j].String())
		doc.Children = append(doc.Children, el)
	}
	if err := journal.Put(s.name, doc); err != nil {
		s.client.cfg.Logf("journal submission %q: %v", s.name, err)
	}
}

// Resume re-attaches to the job set an earlier process submitted under
// name and journaled; it returns nil, nil when the journal holds no
// unfinished submission of that name. It serves local files from the
// journaled address again — the Scheduler resolves local:// sources
// against the file server EPR it was given at Submit, so jobs dispatched
// after the restart stage from there — subscribes this process's
// listener to the set's topic, and catches up from the set's document
// on what was missed while down. Progress of jobs whose events fell in
// that gap is recovered (directories, the verdict); their Events and job
// EPRs are not.
func (c *Client) Resume(ctx context.Context, name string) (*Submission, error) {
	if c.cfg.Journal == nil {
		return nil, nil
	}
	row, ok, err := c.cfg.Journal.Get(name)
	if err != nil || !ok || row.ChildText(qSubStatus) != "" {
		return nil, err
	}
	set, err := wsa.ParseEPRString(row.ChildText(qSubSet))
	topic := row.ChildText(qSubTopic)
	if err != nil || topic == "" {
		return nil, fmt.Errorf("core: unreadable journal row for job set %q", name)
	}
	c.cfg.Logf("resuming job set %q from %s (topic %s)", name, set, topic)
	if files := row.ChildText(qSubFiles); files != "" && files != c.filesEPR.Address {
		if err := c.rebindFiles(files); err != nil {
			return nil, fmt.Errorf("core: job set %q stages its local files from %s, which cannot be served again: %w", name, files, err)
		}
	}
	dirs := make(map[string]wsa.EndpointReference)
	for _, j := range row.ChildrenNamed(qSubJob) {
		if dir, err := wsa.ParseEPRString(j.Attr(qSubDir)); err == nil {
			dirs[j.Attr(qSubName)] = dir
		}
	}
	// The old listener address died with the old process: subscribe this
	// one, then read what happened in between.
	broker := wsa.NewEPR(c.cfg.Master + "/NotificationBroker")
	if _, err := wsn.SubscribeVia(ctx, c.cfg.Transport, broker, c.ListenerEPR(), wsn.Simple(topic)); err != nil {
		return nil, fmt.Errorf("resubscribe: %w", err)
	}
	sub := c.follow(name, set, topic, dirs)
	doc, err := wsrf.NewResourceClient(c.cfg.Transport, set).GetDocument(ctx)
	if bf, ok := wsrf.BaseFaultFromError(err); ok && bf.ErrorCode == "ResourceUnknownFault" {
		if _, derr := c.cfg.Journal.Delete(name); derr != nil {
			c.cfg.Logf("journal submission %q: %v", name, derr)
		}
		return nil, fmt.Errorf("core: job set %q no longer exists on the master (journal row cleared): %w", name, err)
	}
	if err != nil {
		return nil, fmt.Errorf("core: catch up on job set %q: %w", name, err)
	}
	view := scheduler.ParseJobSetDocument(doc)
	sub.mu.Lock()
	defer sub.mu.Unlock()
	for _, j := range view.Jobs {
		if !j.Dir.IsZero() {
			sub.dirs[j.Name] = j.Dir
		}
	}
	sub.save()
	if scheduler.TerminalSetStatus(view.Status) {
		sub.finish(view.Status, "")
	}
	return sub, nil
}

// rebindFiles moves the soap.tcp file server to the address a journal
// row names.
func (c *Client) rebindFiles(address string) error {
	u, err := url.Parse(address)
	if err != nil || !c.cfg.TCPFiles || u.Scheme != "soap.tcp" {
		return fmt.Errorf("not a soap.tcp address this client can listen on")
	}
	_ = c.Files.Close()
	c.filesEPR, err = c.Files.ListenTCP(u.Host)
	return err
}
