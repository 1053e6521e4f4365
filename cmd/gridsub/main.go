// Command gridsub submits a job set to a running grid and follows it to
// completion: the command-line version of the paper's GUI tool. It is
// flags around core.Client, which serves the job set's local:// files
// over soap.tcp (the WSE TCP server thread of paper §4.6), runs a
// light-weight notification receiver over HTTP, submits to the
// Scheduler and retrieves outputs from where jobs ran.
// gridsub prints the events as they arrive and writes the outputs named
// by the description's fetch directives.
//
//	gridsub -master http://localhost:8700 -jobset analysis.jobset \
//	        [-user scientist -pass secret] [-listen :0] [-out ./results]
//	        [-data-dir ./gridsub.d]
//
// With -data-dir the submission is journaled: rerunning the same command
// after a crash re-attaches to the job set instead of resubmitting it.
// The exit status is non-zero when the set does not complete or any
// fetch directive could not be satisfied.
package main

import (
	"cmp"
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"time"

	"uvacg/internal/core"
	"uvacg/internal/daemon"
	"uvacg/internal/resourcedb"
	"uvacg/internal/services/scheduler"
	"uvacg/internal/transport"
)

// options is the flag surface: the process flags every grid binary
// shares, plus the submission's own.
type options struct {
	shared     *daemon.Flags
	master     string
	jobset     string
	user, pass string
	listen     string
	out        string
	timeout    time.Duration
}

func registerFlags(fs *flag.FlagSet) *options {
	o := &options{shared: daemon.RegisterFlags(fs)}
	fs.StringVar(&o.master, "master", "http://localhost:8700", "gridmaster base URL")
	fs.StringVar(&o.jobset, "jobset", "", "job set description file (required)")
	fs.StringVar(&o.user, "user", "", "account user name")
	fs.StringVar(&o.pass, "pass", "", "account password")
	fs.StringVar(&o.listen, "listen", "127.0.0.1:0", "notification listener address")
	fs.StringVar(&o.out, "out", ".", "directory fetched outputs are written to")
	fs.DurationVar(&o.timeout, "timeout", 5*time.Minute, "overall deadline")
	return o
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is gridsub: flags → job set file → client → Submit or Resume →
// events → fetched outputs. It returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("gridsub", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := registerFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	logger := log.New(stderr, "", log.LstdFlags)
	fail := func(format string, args ...any) int {
		logger.Printf(format, args...)
		return 1
	}
	if o.jobset == "" {
		return fail("gridsub: -jobset is required")
	}
	f, err := os.Open(o.jobset)
	if err != nil {
		return fail("%v", err)
	}
	desc, err := core.ParseJobSetFile(f)
	f.Close()
	if err != nil {
		return fail("%v", err)
	}

	host, err := o.shared.Open()
	if err != nil {
		return fail("%v", err)
	}
	defer host.DumpMetrics(stderr)
	defer host.Close()
	ctx, cancel := context.WithTimeout(context.Background(), o.timeout)
	defer cancel()

	cfg := core.ClientConfig{
		Transport: host.Client,
		Master:    o.master,
		TCPFiles:  true,
		Logf:      logger.Printf,
		Expose: func(srv *transport.Server) (string, func(), error) {
			srv.Use(host.Interceptors()...)
			return host.ListenHTTP(srv, o.listen)
		},
	}
	cfg.Credentials.Username, cfg.Credentials.Password = o.user, o.pass
	if host.Durable != nil {
		cfg.Journal = host.Store.MustTable("submissions", resourcedb.StructuredCodec{})
	}
	client, err := core.NewClient(cfg)
	if err != nil {
		return fail("%v", err)
	}
	defer client.Close()
	for name, path := range desc.Files {
		if !filepath.IsAbs(path) {
			path = filepath.Join(filepath.Dir(o.jobset), path)
		}
		content, err := os.ReadFile(path)
		if err != nil {
			return fail("read %s: %v", path, err)
		}
		client.AddFile(name, content)
	}

	// Submit (step 1) — unless the journal holds an in-flight submission
	// of this job set, in which case re-attach to it.
	sub, err := client.Resume(ctx, desc.Spec.Name)
	if err != nil {
		return fail("resume: %v", err)
	}
	if sub == nil {
		if sub, err = client.Submit(ctx, desc.Spec); err != nil {
			return fail("submit: %v", err)
		}
	}

	// Print events until the set's verdict, then those still buffered.
	var status string
	verdict := make(chan struct{})
	go func() {
		defer close(verdict)
		status, err = sub.Wait(ctx)
	}()
	for waiting := true; waiting || len(sub.Events()) > 0; {
		select {
		case n := <-sub.Events():
			if ev, ok := scheduler.ParseEvent(n); ok {
				logger.Printf("  %-12s %s", cmp.Or(ev.Job, "jobset"), ev.Kind)
			}
		case <-verdict:
			waiting, verdict = false, nil
		}
	}
	if err != nil {
		return fail("timed out waiting for job set events")
	}
	if status != scheduler.SetCompleted {
		_, detail := sub.Status()
		return fail("job set ended %s: %s", status, detail)
	}

	code := 0
	for _, fetch := range desc.Fetches {
		data, err := sub.FetchOutput(ctx, fetch.Job, fetch.File)
		if err != nil {
			code = fail("fetch %s/%s: %v", fetch.Job, fetch.File, err)
			continue
		}
		dest := filepath.Join(o.out, fmt.Sprintf("%s.%s", fetch.Job, fetch.File))
		if err := os.WriteFile(dest, data, 0o644); err != nil {
			return fail("%v", err)
		}
		logger.Printf("fetched %s/%s -> %s (%d bytes)", fetch.Job, fetch.File, dest, len(data))
	}
	return code
}
