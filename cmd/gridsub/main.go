// Command gridsub submits a job set to a running grid and follows it to
// completion: the command-line version of the paper's GUI tool. It
// serves the job set's local:// files over soap.tcp (the WSE TCP server
// thread of paper §4.6), runs a light-weight notification receiver over
// HTTP, submits to the Scheduler, prints events as they arrive, and
// retrieves the outputs named by the description's fetch directives.
//
//	gridsub -master http://localhost:8700 -jobset analysis.jobset \
//	        [-user scientist -pass secret] [-listen :0] [-out ./results]
//	        [-class batch] [-max-retry-after 10s] [-v]
//
// Against an admission-queueing master (gridmaster -queue-depth) the
// submit may come back with a QueueFullFault; gridsub honors its
// Retry-After hint with capped, jittered backoff for a bounded number
// of attempts. -v prints the admission queue position of an accepted
// submit.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"uvacg/internal/admission"
	"uvacg/internal/core"
	"uvacg/internal/daemon"
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

// The flag surface: the process flags every grid binary shares, plus the
// submission's own. With -data-dir the journal holds the submission, so
// a restarted gridsub resumes following the job set instead of
// resubmitting it.
var (
	shared        = daemon.RegisterFlags(flag.CommandLine)
	masterURL     = flag.String("master", "http://localhost:8700", "gridmaster base URL")
	jobsetPath    = flag.String("jobset", "", "job set description file (required)")
	user          = flag.String("user", "", "account user name")
	pass          = flag.String("pass", "", "account password")
	listen        = flag.String("listen", "127.0.0.1:0", "notification listener address")
	outDir        = flag.String("out", ".", "directory fetched outputs are written to")
	timeout       = flag.Duration("timeout", 5*time.Minute, "overall deadline")
	class         = flag.String("class", "", "admission priority class: interactive, batch or scavenger")
	replicas      = flag.Int("replicas", 0, "ask the master's replication layer to keep this set's staged inputs on at least this many FSS nodes (0 leaves the master default)")
	maxRetryAfter = flag.Duration("max-retry-after", 30*time.Second, "cap on the Retry-After hint honored between submit retries when the admission queue sheds")
	verbose       = flag.Bool("v", false, "verbose: print the admission queue position of an accepted submit")
)

func main() {
	flag.Parse()
	if *jobsetPath == "" {
		log.Fatal("gridsub: -jobset is required")
	}

	f, err := os.Open(*jobsetPath)
	if err != nil {
		log.Fatal(err)
	}
	desc, err := core.ParseJobSetFile(f)
	f.Close()
	if err != nil {
		log.Fatal(err)
	}
	if *class != "" {
		if !admission.ValidClass(*class) {
			log.Fatalf("gridsub: unknown -class %q (want interactive, batch or scavenger)", *class)
		}
		desc.Spec.Class = *class
	}
	if *replicas < 0 {
		log.Fatalf("gridsub: -replicas must be non-negative")
	}
	if *replicas > 0 {
		desc.Spec.Replicas = *replicas
	}

	host, err := shared.Open()
	if err != nil {
		log.Fatal(err)
	}
	defer host.DumpMetrics(os.Stderr)
	defer host.Close()
	client := host.Client
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	// The durable submission journal: with -data-dir, the set EPR, topic
	// and per-job output directories survive a gridsub crash, so a rerun
	// re-attaches to the in-flight job set instead of resubmitting it.
	var subs *resourcedb.Table
	if host.Durable != nil {
		subs = host.Store.MustTable("submissions", resourcedb.StructuredCodec{})
	}

	// The client's TCP file server (step 5 of Fig. 3).
	files := filesystem.NewFileServer("/files")
	baseDir := filepath.Dir(*jobsetPath)
	for name, path := range desc.Files {
		if !filepath.IsAbs(path) {
			path = filepath.Join(baseDir, path)
		}
		content, err := os.ReadFile(path)
		if err != nil {
			log.Fatalf("read %s: %v", path, err)
		}
		files.Publish(name, content)
	}
	filesEPR, err := files.ListenTCP("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer files.Close()

	// The light-weight notification receiver over HTTP (step 9's
	// destination on the client side).
	consumer := wsn.NewConsumer()
	events := consumer.Channel(wsn.MustTopicExpression(wsn.DialectFull, "*//"), 256)
	listenerMux := soap.NewMux()
	consumer.Mount(listenerMux, "/listener")
	listenerSrv := transport.NewServer(listenerMux)
	listenerSrv.Use(host.Interceptors()...)
	listenerBase, stopListener, err := host.ListenHTTP(listenerSrv, *listen)
	if err != nil {
		log.Fatal(err)
	}
	defer stopListener()
	listenerEPR := wsa.NewEPR(listenerBase + "/listener")

	// Submit (step 1) — unless the journal holds an in-flight submission
	// for this job set, in which case re-attach to it.
	ssEPR := wsa.NewEPR(*masterURL + scheduler.ServicePath)
	brokerEPR := wsa.NewEPR(*masterURL + "/NotificationBroker")
	dirs := make(map[string]wsa.EndpointReference)
	status := ""
	var setEPR wsa.EndpointReference
	var topic string
	if rec, ok := loadSubmission(subs, desc.Spec.Name); ok && !terminal(rec.status) {
		setEPR, topic = rec.set, rec.topic
		for name, dir := range rec.dirs {
			dirs[name] = dir
		}
		log.Printf("resuming job set %q from %s (topic %s)", desc.Spec.Name, setEPR, topic)
		// The old listener address died with the old process: subscribe
		// the fresh one, then catch up on progress missed while down.
		if _, err := wsn.SubscribeVia(ctx, client, brokerEPR, listenerEPR, wsn.Simple(topic)); err != nil {
			log.Fatalf("resubscribe: %v", err)
		}
		if doc, err := wsrf.NewResourceClient(client, setEPR).GetDocument(ctx); err == nil {
			view := scheduler.ParseJobSetDocument(doc)
			for _, j := range view.Jobs {
				if !j.Dir.IsZero() {
					dirs[j.Name] = j.Dir
				}
			}
			switch view.Status {
			case scheduler.SetCompleted:
				status = "completed"
			case scheduler.SetFailed:
				status = "failed"
			case scheduler.SetCancelled:
				status = "cancelled"
			}
		}
	} else {
		// A sharded grid may answer with a WrongShardFault naming the
		// master that owns this set's shard; follow the redirect
		// transparently, with a hop bound against routing loops. An
		// admission-queueing master may shed with a QueueFullFault;
		// honor its Retry-After hint — capped and jittered so a shed
		// burst of clients does not retry in lockstep — for a bounded
		// number of attempts.
		const maxShedRetries = 10
		var resp *soap.Envelope
		sheds := 0
		for hop := 0; ; {
			env := soap.New(scheduler.SubmitRequest(desc.Spec, filesEPR, listenerEPR))
			if *user != "" {
				creds := wssec.Credentials{Username: *user, Password: *pass}
				if err := wssec.AttachUsernameToken(env, creds, true, time.Now()); err != nil {
					log.Fatal(err)
				}
			}
			resp, err = client.Invoke(ctx, ssEPR, scheduler.ActionSubmit, env)
			if err == nil {
				break
			}
			if admission.IsQueueFull(err) {
				sheds++
				if sheds > maxShedRetries {
					log.Fatalf("submit: admission queue still full after %d attempts: %v", maxShedRetries, err)
				}
				hint, ok := admission.RetryAfterHint(err)
				if !ok || hint <= 0 || hint > *maxRetryAfter {
					hint = *maxRetryAfter
				}
				wait := hint/2 + time.Duration(rand.Int63n(int64(hint)+1))
				log.Printf("admission queue full; retrying in %v (attempt %d of %d)", wait.Round(time.Millisecond), sheds, maxShedRetries)
				select {
				case <-time.After(wait):
				case <-ctx.Done():
					log.Fatalf("submit: %v", ctx.Err())
				}
				continue
			}
			owner, ok := scheduler.RedirectTarget(err)
			if !ok || hop >= 3 {
				log.Fatalf("submit: %v", err)
			}
			hop++
			log.Printf("redirected to shard owner %s", owner.Address)
			ssEPR = owner
		}
		setEPR, topic, err = scheduler.ParseSubmitResponse(resp.Body)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("submitted %q as %s (topic %s)", desc.Spec.Name, setEPR, topic)
		if pos, ok := scheduler.ParseQueuePosition(resp.Body); ok && *verbose {
			log.Printf("admitted at queue position %d", pos)
		}
		saveSubmission(subs, desc.Spec.Name, setEPR, topic, "", dirs)
	}

	// Follow events to a terminal job-set state.
	for status == "" {
		select {
		case n := <-events:
			segs := strings.Split(n.Topic, "/")
			if len(segs) != 3 || segs[0] != topic {
				continue
			}
			log.Printf("  %-12s %s", segs[1], segs[2])
			if segs[1] == "jobset" {
				// "preempted" is not terminal: the set is back in the
				// admission queue and resumes once the higher-priority
				// burst drains, so keep the files server and listener
				// alive for the re-dispatch.
				if segs[2] == "preempted" {
					continue
				}
				status = segs[2]
				break
			}
			if ev, err := execution.ParseJobEvent(n.Message); err == nil && !ev.Directory.IsZero() {
				dirs[ev.JobName] = ev.Directory
				saveSubmission(subs, desc.Spec.Name, setEPR, topic, "", dirs)
			}
		case <-ctx.Done():
			log.Fatal("timed out waiting for job set events")
		}
	}
	saveSubmission(subs, desc.Spec.Name, setEPR, topic, status, dirs)
	if status != "completed" {
		log.Fatalf("job set ended %s", status)
	}

	for _, fetch := range desc.Fetches {
		dir, ok := dirs[fetch.Job]
		if !ok {
			log.Printf("fetch %s/%s: output directory unknown", fetch.Job, fetch.File)
			continue
		}
		data, err := filesystem.FetchFile(ctx, client, dir, fetch.File)
		if err != nil {
			log.Printf("fetch %s/%s: %v", fetch.Job, fetch.File, err)
			continue
		}
		dest := filepath.Join(*outDir, fmt.Sprintf("%s.%s", fetch.Job, fetch.File))
		if err := os.WriteFile(dest, data, 0o644); err != nil {
			log.Fatal(err)
		}
		log.Printf("fetched %s/%s -> %s (%d bytes)", fetch.Job, fetch.File, dest, len(data))
	}
}

// Submission journal: one structured row per job set name, holding the
// set EPR, topic, last observed status and the per-job output
// directories collected so far.

const nsSub = "urn:uvacg:gridsub"

var (
	qSubmission = xmlutil.Q(nsSub, "Submission")
	qSubSet     = xmlutil.Q(nsSub, "SetEPR")
	qSubTopic   = xmlutil.Q(nsSub, "Topic")
	qSubStatus  = xmlutil.Q(nsSub, "Status")
	qSubJob     = xmlutil.Q(nsSub, "Job")
	qSubName    = xmlutil.Q("", "name")
	qSubDir     = xmlutil.Q("", "dir")
)

type submission struct {
	set    wsa.EndpointReference
	topic  string
	status string
	dirs   map[string]wsa.EndpointReference
}

// terminal reports whether a recorded status ends the submission; only
// a non-terminal record is worth resuming.
func terminal(status string) bool {
	return status != ""
}

func loadSubmission(subs *resourcedb.Table, name string) (submission, bool) {
	var rec submission
	if subs == nil {
		return rec, false
	}
	doc, ok, err := subs.Get(name)
	if err != nil || !ok {
		return rec, false
	}
	set, err := wsa.ParseEPRString(doc.ChildText(qSubSet))
	if err != nil {
		return rec, false
	}
	rec.set = set
	rec.topic = doc.ChildText(qSubTopic)
	rec.status = doc.ChildText(qSubStatus)
	rec.dirs = make(map[string]wsa.EndpointReference)
	for _, j := range doc.ChildrenNamed(qSubJob) {
		if raw := j.Attr(qSubDir); raw != "" {
			if epr, err := wsa.ParseEPRString(raw); err == nil {
				rec.dirs[j.Attr(qSubName)] = epr
			}
		}
	}
	if rec.topic == "" {
		return rec, false
	}
	return rec, true
}

func saveSubmission(subs *resourcedb.Table, name string, set wsa.EndpointReference, topic, status string, dirs map[string]wsa.EndpointReference) {
	if subs == nil {
		return
	}
	doc := xmlutil.NewContainer(qSubmission,
		xmlutil.NewElement(qSubSet, set.String()),
		xmlutil.NewElement(qSubTopic, topic),
		xmlutil.NewElement(qSubStatus, status),
	)
	jobs := make([]string, 0, len(dirs))
	for j := range dirs {
		jobs = append(jobs, j)
	}
	sort.Strings(jobs)
	for _, j := range jobs {
		el := xmlutil.NewElement(qSubJob, "")
		el.SetAttr(qSubName, j)
		el.SetAttr(qSubDir, dirs[j].String())
		doc.Children = append(doc.Children, el)
	}
	if err := subs.Put(name, doc); err != nil {
		log.Printf("journal submission %q: %v", name, err)
	}
}
