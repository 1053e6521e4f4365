package rig

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"uvacg/internal/pipeline"
	"uvacg/internal/services/execution"
	"uvacg/internal/services/filesystem"
	"uvacg/internal/services/scheduler"
	"uvacg/internal/soap"
	"uvacg/internal/transport"
	"uvacg/internal/wsa"
	"uvacg/internal/wsn"
	"uvacg/internal/wsrf"
	"uvacg/internal/xmlutil"
)

// setDeadline bounds one set from Submit to verified output; a set that
// overruns it is a failure.
const setDeadline = 30 * time.Second

// Client is the load generator's grid client. It speaks exactly
// gridsub's wire — a soap.tcp FileServer for local:// files, an HTTP
// notification listener, scheduler.SubmitRequest, filesystem.FetchFile —
// but serves any number of concurrent sets from one process, routing
// notifications to sets by topic.
type Client struct {
	tc           *transport.Client
	files        *filesystem.FileServer
	filesEPR     wsa.EndpointReference
	listenerEPR  wsa.EndpointReference
	schedulerEPR wsa.EndpointReference
	stopListener func(context.Context) error
	spans        bool

	mu     sync.Mutex
	sets   map[string]chan arrival // topic → in-flight set's event queue
	early  map[string][]arrival    // events that beat their Submit reply
	newest wsa.EndpointReference   // most recently acked set
}

// arrival is one notification, stamped when the listener received it.
type arrival struct {
	at   time.Time
	job  string // "jobset" for set-level events
	kind string
	dir  wsa.EndpointReference
}

// NewClient starts the file server and the notification listener on
// free loopback ports. With spans on, RunSet keeps per-job arrival times
// for the traced pass's phase metrics and span trees.
func NewClient(masterURL string, spans bool) (*Client, error) {
	c := &Client{
		tc:           transport.NewClient(),
		files:        filesystem.NewFileServer("/files"),
		schedulerEPR: wsa.NewEPR(masterURL + "/SchedulerService"),
		spans:        spans,
		sets:         make(map[string]chan arrival),
		early:        make(map[string][]arrival),
	}
	// gridsub's default interceptor chain.
	c.tc.Use(pipeline.ClientRequestID(), pipeline.ClientDeadline())
	var err error
	if c.filesEPR, err = c.files.ListenTCP("127.0.0.1:0"); err != nil {
		return nil, err
	}
	consumer := wsn.NewConsumer()
	consumer.Handle(wsn.MustTopicExpression(wsn.DialectFull, "*//"), c.route)
	mux := soap.NewMux()
	consumer.Mount(mux, "/listener")
	srv := transport.NewServer(mux)
	srv.Use(pipeline.ServerRequestID(), pipeline.ServerDeadline())
	base, stop, err := transport.ListenHTTP(srv, "127.0.0.1:0")
	if err != nil {
		_ = c.files.Close()
		return nil, err
	}
	c.stopListener = stop
	c.listenerEPR = wsa.NewEPR(base + "/listener")
	return c, nil
}

// Close stops the client's listeners.
func (c *Client) Close() {
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	_ = c.stopListener(ctx) // daemons are being torn down too; a cut-off delivery is harmless
	_ = c.files.Close()
	c.tc.CloseIdleConnections()
}

// route stamps a notification and queues it on its set.
func (c *Client) route(_ context.Context, n wsn.Notification) {
	now := time.Now()
	segs := strings.Split(n.Topic, "/")
	if len(segs) != 3 {
		return
	}
	a := arrival{at: now, job: segs[1], kind: segs[2]}
	if a.job != "jobset" {
		if ev, err := execution.ParseJobEvent(n.Message); err == nil {
			a.dir = ev.Directory
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if q, ok := c.sets[segs[0]]; ok {
		select {
		case q <- a:
		default: // the queue is sized for every event a set can emit
		}
		return
	}
	c.early[segs[0]] = append(c.early[segs[0]], a)
}

// adopt registers an acked set and replays events that arrived before
// its Submit reply did.
func (c *Client) adopt(topic string, set wsa.EndpointReference, jobs int) chan arrival {
	// directory, started, exited per job, the set event, and slack for
	// duplicates.
	q := make(chan arrival, 4*jobs+8)
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, a := range c.early[topic] {
		q <- a
	}
	delete(c.early, topic)
	c.sets[topic] = q
	c.newest = set
	return q
}

func (c *Client) forget(topic string) {
	c.mu.Lock()
	delete(c.sets, topic)
	c.mu.Unlock()
}

// Newest returns the most recently acked set's resource, the paced
// reader's target.
func (c *Client) Newest() wsa.EndpointReference {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.newest
}

// ForgetNewest makes Newest read zero until the next set is acked, so a
// timed phase's reader never polls a warm-up or parity set.
func (c *Client) ForgetNewest() {
	c.mu.Lock()
	c.newest = wsa.EndpointReference{}
	c.mu.Unlock()
}

// SetResult is one set as the client saw it. Times are milliseconds
// from the moment Submit was sent.
type SetResult struct {
	Set   string `json:"set"`
	Topic string `json:"topic,omitempty"`
	// Err is empty for a set that completed and returned the right bytes.
	Err          string  `json:"err,omitempty"`
	SubmitUnixNs int64   `json:"submit_unix_ns"`
	AckMs        float64 `json:"ack_ms"`
	FirstStartMs float64 `json:"first_start_ms"`
	CompletedMs  float64 `json:"completed_ms"`
	TotalMs      float64 `json:"total_ms"`
	// StagedBytes is the plan's: what landed in job working directories.
	StagedBytes int64 `json:"staged_bytes"`
	// Lookups counts output directories recovered from the JobState
	// property because the directory event had not arrived by completion.
	Lookups int `json:"lookups,omitempty"`
	// Jobs holds per-job arrival times, in spec order; spans only.
	Jobs []JobSpan `json:"jobs,omitempty"`
}

// JobSpan is one job's events as they arrived at the client; a zero
// time means the event had not arrived by the time the set was verified.
type JobSpan struct {
	Name        string  `json:"name"`
	Node        string  `json:"node,omitempty"` // address of the directory EPR
	DirectoryMs float64 `json:"directory_ms"`
	StartedMs   float64 `json:"started_ms"`
	ExitedMs    float64 `json:"exited_ms"`
}

// RunSet submits one set, follows it to completion, fetches every output
// and verifies it.
func (c *Client) RunSet(ctx context.Context, p *SetPlan) SetResult {
	ctx, cancel := context.WithTimeout(ctx, setDeadline)
	defer cancel()
	for name, content := range p.Files {
		c.files.Publish(name, content)
	}
	defer func() {
		for name := range p.Files {
			c.files.Unpublish(name)
		}
	}()

	res := SetResult{Set: p.Spec.Name, StagedBytes: p.StagedBytes}
	t0 := time.Now()
	res.SubmitUnixNs = t0.UnixNano()
	since := func(t time.Time) float64 { return float64(t.Sub(t0)) / float64(time.Millisecond) }
	fail := func(format string, args ...any) SetResult {
		res.Err = fmt.Sprintf(format, args...)
		res.TotalMs = since(time.Now())
		return res
	}

	env := soap.New(scheduler.SubmitRequest(p.Spec, c.filesEPR, c.listenerEPR))
	resp, err := c.tc.Invoke(ctx, c.schedulerEPR, scheduler.ActionSubmit, env)
	if err != nil {
		return fail("submit: %v", err)
	}
	res.AckMs = since(time.Now())
	setEPR, topic, err := scheduler.ParseSubmitResponse(resp.Body)
	if err != nil {
		return fail("submit response: %v", err)
	}
	res.Topic = topic
	events := c.adopt(topic, setEPR, len(p.Spec.Jobs))
	defer c.forget(topic)

	dirs := make(map[string]wsa.EndpointReference, len(p.Spec.Jobs))
	var spans map[string]*JobSpan
	if c.spans {
		res.Jobs = make([]JobSpan, len(p.Spec.Jobs))
		spans = make(map[string]*JobSpan, len(p.Spec.Jobs))
		for i, j := range p.Spec.Jobs {
			res.Jobs[i].Name = j.Name
			spans[j.Name] = &res.Jobs[i]
		}
	}
	status := ""
	for status == "" {
		select {
		case a := <-events:
			if a.job == "jobset" {
				// Like gridsub: "preempted" is the one non-terminal set event.
				if a.kind != "preempted" {
					status = a.kind
					res.CompletedMs = since(a.at)
				}
				continue
			}
			if !a.dir.IsZero() {
				dirs[a.job] = a.dir
			}
			if a.kind == execution.EventStarted && res.FirstStartMs == 0 {
				res.FirstStartMs = since(a.at)
			}
			if s := spans[a.job]; s != nil {
				switch a.kind {
				case execution.EventDirectory:
					s.DirectoryMs, s.Node = since(a.at), a.dir.Address
				case execution.EventStarted:
					s.StartedMs = since(a.at)
				case execution.EventExited:
					s.ExitedMs = since(a.at)
				}
			}
		case <-ctx.Done():
			return fail("no terminal job-set event within %v", setDeadline)
		}
	}
	if status != "completed" {
		return fail("job set ended %s", status)
	}

	for _, o := range p.Outputs {
		dir, ok := dirs[o.Job]
		if !ok {
			// One-way delivery is unordered: completion can overtake a
			// directory event. The scheduler persists the directory in the
			// job-set resource, which is where core.Client recovers it too.
			res.Lookups++
			if dir, err = lookupDirectory(ctx, c.tc, setEPR, o.Job); err != nil {
				return fail("output directory of %s: %v", o.Job, err)
			}
		}
		got, err := filesystem.FetchFile(ctx, c.tc, dir, o.File)
		if err != nil {
			return fail("fetch %s/%s: %v", o.Job, o.File, err)
		}
		if !bytes.Equal(got, o.Want) {
			return fail("fetch %s/%s: %d bytes differ from the %d expected", o.Job, o.File, len(got), len(o.Want))
		}
	}
	res.TotalMs = since(time.Now())
	// Late events (an exit overtaken by the completion) are picked up for
	// the span tree if they have arrived by now; nothing waits for them.
	for drained := false; c.spans && !drained; {
		select {
		case a := <-events:
			if s := spans[a.job]; s != nil && a.kind == execution.EventExited {
				s.ExitedMs = since(a.at)
			}
		default:
			drained = true
		}
	}
	return res
}

var (
	qNameAttr = xmlutil.Q("", "name")
	qDirAttr  = xmlutil.Q("", "dir")
)

// JobStates reads the JobState resource property of a job set: the
// status read a monitoring client polls.
func JobStates(ctx context.Context, tc *transport.Client, set wsa.EndpointReference) ([]*xmlutil.Element, error) {
	return wsrf.NewResourceClient(tc, set).GetProperty(ctx, scheduler.QJobState)
}

func lookupDirectory(ctx context.Context, tc *transport.Client, set wsa.EndpointReference, job string) (wsa.EndpointReference, error) {
	states, err := JobStates(ctx, tc, set)
	if err != nil {
		return wsa.EndpointReference{}, err
	}
	for _, st := range states {
		if st.Attr(qNameAttr) == job && st.Attr(qDirAttr) != "" {
			return wsa.ParseEPRString(st.Attr(qDirAttr))
		}
	}
	return wsa.EndpointReference{}, fmt.Errorf("not recorded in the job-set resource")
}
