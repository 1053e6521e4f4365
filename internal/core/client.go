package core

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

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

// Client plays the scientist's GUI tool (paper §4.6): it serves local
// input files to the grid, runs a light-weight notification receiver,
// submits job sets to the Scheduler, and retrieves outputs from
// wherever jobs ended up executing.
type Client struct {
	grid  *Grid
	host  string
	creds wssec.Credentials

	files    *filesystem.FileServer
	consumer *wsn.Consumer
	filesEPR wsa.EndpointReference

	mu          sync.Mutex
	submissions map[string]*Submission // topic → submission
	pending     []wsn.Notification     // events that raced ahead of Submit's reply
}

// NewClient attaches a client to the grid. creds must name an account
// from the grid's account table when security is on. useTCP serves
// local files over a real soap.tcp listener (the paper's WSE TCP server
// thread); otherwise they ride the inproc fabric.
func (g *Grid) NewClient(creds wssec.Credentials, useTCP bool) (*Client, error) {
	g.clientSeq++
	host := fmt.Sprintf("client-%d", g.clientSeq)
	c := &Client{
		grid:        g,
		host:        host,
		creds:       creds,
		files:       filesystem.NewFileServer("/files"),
		consumer:    wsn.NewConsumer(),
		submissions: make(map[string]*Submission),
	}
	c.consumer.Handle(wsn.MustTopicExpression(wsn.DialectFull, "*//"), c.route)

	mux := soap.NewMux()
	c.consumer.Mount(mux, "/listener")
	if useTCP {
		epr, err := c.files.ListenTCP("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		c.filesEPR = epr
	} else {
		c.files.Mount(mux)
		c.filesEPR = wsa.NewEPR("inproc://" + host + c.files.Path())
	}
	srv := transport.NewServer(mux)
	srv.Use(ServerInterceptors()...)
	g.Network.Register(host, srv)
	return c, nil
}

// Close releases the client's endpoints.
func (c *Client) Close() {
	c.grid.Network.Deregister(c.host)
	_ = c.files.Close()
}

// ListenerEPR is the client's notification endpoint (the Scheduler
// subscribes it to the job set's topic).
func (c *Client) ListenerEPR() wsa.EndpointReference {
	return wsa.NewEPR("inproc://" + c.host + "/listener")
}

// FilesEPR is the client's file server endpoint.
func (c *Client) FilesEPR() wsa.EndpointReference { return c.filesEPR }

// AddFile publishes a local file referenced by Local(name) sources.
func (c *Client) AddFile(name string, content []byte) { c.files.Publish(name, content) }

// Submission tracks one submitted job set.
type Submission struct {
	Topic  string
	JobSet wsa.EndpointReference

	client *Client
	mu     sync.Mutex
	dirs   map[string]wsa.EndpointReference // job name → output directory
	jobs   map[string]wsa.EndpointReference // job name → job resource
	status string
	detail string
	done   chan struct{}
	events chan wsn.Notification
}

// Submit validates and submits a job set (Fig. 3 step 1), returning the
// submission handle. Credentials ride in an encrypted WS-Security
// header when the grid runs secured.
func (c *Client) Submit(ctx context.Context, spec *JobSet) (*Submission, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	env := soap.New(scheduler.SubmitRequest(spec, c.filesEPR, c.ListenerEPR()))
	if c.creds.Username != "" {
		if err := wssec.AttachUsernameToken(env, c.creds, false, time.Now()); err != nil {
			return nil, err
		}
		if cert, ok := c.grid.SchedulerCertificate(); ok {
			if err := wssec.EncryptSecurityHeader(env, cert); err != nil {
				return nil, err
			}
		}
	}
	resp, err := c.grid.Client.Invoke(ctx, c.grid.Scheduler.EPR(), scheduler.ActionSubmit, env)
	if err != nil {
		return nil, err
	}
	setEPR, topic, err := scheduler.ParseSubmitResponse(resp.Body)
	if err != nil {
		return nil, err
	}
	sub := &Submission{
		Topic:  topic,
		JobSet: setEPR,
		client: c,
		dirs:   make(map[string]wsa.EndpointReference),
		jobs:   make(map[string]wsa.EndpointReference),
		done:   make(chan struct{}),
		events: make(chan wsn.Notification, 256),
	}
	c.mu.Lock()
	c.submissions[topic] = sub
	// Deliver any events that arrived before the Submit reply was
	// processed (the broker races the response on the inproc fabric).
	var replay []wsn.Notification
	kept := c.pending[:0]
	for _, n := range c.pending {
		if strings.HasPrefix(n.Topic, topic+"/") {
			replay = append(replay, n)
		} else {
			kept = append(kept, n)
		}
	}
	c.pending = kept
	c.mu.Unlock()
	for _, n := range replay {
		sub.observe(n)
	}
	return sub, nil
}

// route delivers incoming notifications to their submission.
func (c *Client) route(_ context.Context, n wsn.Notification) {
	root, _, found := strings.Cut(n.Topic, "/")
	if !found {
		return
	}
	c.mu.Lock()
	sub := c.submissions[root]
	if sub == nil {
		// Keep a bounded raced-event buffer.
		if len(c.pending) < 1024 {
			c.pending = append(c.pending, n)
		}
		c.mu.Unlock()
		return
	}
	c.mu.Unlock()
	sub.observe(n)
}

// observe updates submission state from one event and tees it to the
// Events channel.
func (s *Submission) observe(n wsn.Notification) {
	segs := strings.Split(n.Topic, "/")
	if len(segs) >= 3 && segs[1] == "jobset" {
		s.mu.Lock()
		if s.status == "" {
			switch segs[2] {
			case "completed":
				s.status = scheduler.SetCompleted
			case "failed":
				s.status = scheduler.SetFailed
			case "cancelled":
				s.status = scheduler.SetCancelled
			}
			if s.status != "" {
				if n.Message != nil {
					s.detail = n.Message.ChildText(qDetail)
				}
				close(s.done)
			}
		}
		s.mu.Unlock()
	} else if ev, err := execution.ParseJobEvent(n.Message); err == nil {
		s.mu.Lock()
		if !ev.Directory.IsZero() {
			s.dirs[ev.JobName] = ev.Directory
		}
		if !ev.Job.IsZero() {
			s.jobs[ev.JobName] = ev.Job
		}
		s.mu.Unlock()
	}
	select {
	case s.events <- n:
	default:
	}
}

// Events exposes the raw notification stream (what the paper's client
// application displays "to keep the user informed of the job set's
// progress").
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
// (one-way delivery is unordered), the directory is recovered from the
// job-set WS-Resource, where the Scheduler persists it.
func (s *Submission) FetchOutput(ctx context.Context, jobName, fileName string) ([]byte, error) {
	dir, ok := s.OutputDirectory(jobName)
	if !ok {
		recovered, err := s.lookupDirectory(ctx, jobName)
		if err != nil {
			return nil, err
		}
		dir = recovered
	}
	return filesystem.FetchFile(ctx, s.client.grid.Client, dir, fileName)
}

// lookupDirectory reads a job's recorded output directory from the
// job-set resource's JobState property.
func (s *Submission) lookupDirectory(ctx context.Context, jobName string) (wsa.EndpointReference, error) {
	rc := wsrf.NewResourceClient(s.client.grid.Client, s.JobSet)
	states, err := rc.GetProperty(ctx, scheduler.QJobState)
	if err != nil {
		return wsa.EndpointReference{}, fmt.Errorf("core: output directory of %q: %w", jobName, err)
	}
	for _, st := range states {
		if st.Attr(xmlutil.Q("", "name")) != jobName {
			continue
		}
		raw := st.Attr(xmlutil.Q("", "dir"))
		if raw == "" {
			break
		}
		dir, err := wsa.ParseEPRString(raw)
		if err != nil {
			return wsa.EndpointReference{}, err
		}
		s.mu.Lock()
		s.dirs[jobName] = dir
		s.mu.Unlock()
		return dir, nil
	}
	return wsa.EndpointReference{}, fmt.Errorf("core: output directory of %q is not yet known", jobName)
}

// KillJob kills one running job via its job resource.
func (s *Submission) KillJob(ctx context.Context, jobName string) error {
	epr, ok := s.JobEPR(jobName)
	if !ok {
		return fmt.Errorf("core: job %q has no known EPR yet", jobName)
	}
	_, err := s.client.grid.Client.Call(ctx, epr, execution.ActionKill, execution.KillRequest())
	return err
}

// Cancel aborts the whole job set.
func (s *Submission) Cancel(ctx context.Context) error {
	_, err := s.client.grid.Client.Call(ctx, s.JobSet, scheduler.ActionCancel, scheduler.CancelRequest())
	return err
}

// qDetail is the failure-detail element in job-set events.
var qDetail = xmlutil.Q(scheduler.NS, "Detail")
