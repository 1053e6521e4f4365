// Package daemon holds what the grid's binaries — gridmaster, gridnode,
// gridsub — have in common as processes: the shared flags, the outbound
// client pipeline, the durable store behind -data-dir, and the HTTP
// listener with its receive pipeline. What each host then runs on top
// is master.Assemble or node.New.
package daemon

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"strings"
	"time"

	"uvacg/internal/core"
	"uvacg/internal/master"
	"uvacg/internal/pipeline"
	"uvacg/internal/resourcedb"
	"uvacg/internal/soap"
	"uvacg/internal/transport"
	"uvacg/internal/wssec"
)

// Flags are the options every grid binary takes.
type Flags struct {
	Metrics      bool
	Retries      int
	Trace        bool
	DataDir      string
	Fsync        bool
	CompactBytes int64
}

// RegisterFlags declares the shared flags on fs.
func RegisterFlags(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.BoolVar(&f.Metrics, "metrics", false, "dump per-action call metrics on exit")
	fs.IntVar(&f.Retries, "retries", 1, "max attempts for idempotent outbound calls and, on a master, for each notification delivery (1 disables retry)")
	fs.BoolVar(&f.Trace, "trace", false, "log one line per call with its request ID")
	fs.StringVar(&f.DataDir, "data-dir", "", "durable data directory (WAL + snapshot): every state change is journaled and survives a crash")
	fs.BoolVar(&f.Fsync, "fsync", true, "fsync each WAL group commit (with -data-dir); off trades machine-crash safety for throughput")
	fs.Int64Var(&f.CompactBytes, "compact-bytes", 8<<20, "WAL bytes that trigger background snapshot compaction (with -data-dir); negative disables")
	return f
}

// Host is one process's plumbing.
type Host struct {
	// Client is the outbound pipeline: request correlation and deadline
	// propagation always, tracing, idempotent retry and metrics by flag.
	Client *transport.Client
	// Metrics is nil unless -metrics was given.
	Metrics *pipeline.Metrics
	// Durable is nil unless -data-dir was given.
	Durable *resourcedb.DurableStore
	// Store is Durable's store, or a fresh in-memory one.
	Store *resourcedb.Store

	trace *log.Logger           // nil unless -trace was given
	retry *pipeline.RetryPolicy // nil unless -retries is above 1
}

// Open builds the host's client and opens its store.
func (f *Flags) Open() (*Host, error) {
	h := &Host{Client: transport.NewClient()}
	if f.Trace {
		h.trace = log.Default()
	}
	if f.Retries > 1 {
		h.retry = &pipeline.RetryPolicy{MaxAttempts: f.Retries}
	}
	if f.Metrics {
		h.Metrics = pipeline.NewMetrics()
	}
	h.Client.Use(core.ClientInterceptors(h.retry, h.trace, h.Metrics)...)
	if f.DataDir == "" {
		h.Store = resourcedb.NewStore()
		return h, nil
	}
	var err error
	h.Durable, err = resourcedb.OpenDurable(f.DataDir, resourcedb.DurableOptions{
		Sync:         f.Fsync,
		CompactBytes: f.CompactBytes,
		Metrics:      h.Metrics,
	})
	if err != nil {
		return nil, fmt.Errorf("open data dir %s: %w", f.DataDir, err)
	}
	st := h.Durable.Stats()
	torn := ""
	if st.TornTail {
		torn = " (torn tail truncated)"
	}
	log.Printf("durable store %s: replayed %d WAL record(s)%s", f.DataDir, st.ReplayedRecords, torn)
	h.Store = h.Durable.Store
	return h, nil
}

// Interceptors is the receive pipeline of every server the host runs:
// lift the propagated request ID, re-establish the caller's deadline,
// then tracing and metrics by flag.
func (h *Host) Interceptors() []soap.Interceptor {
	ics := core.ServerInterceptors()
	if h.trace != nil {
		ics = append(ics, pipeline.Trace(h.trace))
	}
	if h.Metrics != nil {
		ics = append(ics, h.Metrics.Interceptor())
	}
	return ics
}

// MasterConfig is what a master host takes from its process: the store,
// the client, the metrics table, and -retries for the broker's
// notification deliveries as for the client's idempotent calls. The
// caller adds what is the master's own (Scheduler, Replicas).
func (h *Host) MasterConfig(address string) master.Config {
	cfg := master.Config{Address: address, Store: h.Store, Client: h.Client, Metrics: h.Metrics}
	if h.retry != nil {
		cfg.DeliveryRetry = *h.retry
	}
	return cfg
}

// ListenHTTP serves srv on addr and, in the same act, tells h.Client that
// the listener's base URL and every advertised one (what the host's EPRs
// carry: Advertised) are this process: co-located services reach each
// other through the same envelope and both interceptor chains, without a
// socket. stop removes the route first — a self-call then fails like a
// closed port — and drains in-flight requests for up to five seconds.
func (h *Host) ListenHTTP(srv *transport.Server, addr string, advertised ...string) (baseURL string, stop func(), err error) {
	baseURL, shutdown, err := transport.ListenHTTP(srv, addr)
	if err != nil {
		return "", nil, err
	}
	unroute := h.Client.Colocate(srv, append(advertised, baseURL)...)
	return baseURL, func() {
		unroute()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := shutdown(ctx); err != nil {
			log.Printf("shutdown: %v", err)
		}
	}, nil
}

// Shutdown is the one order a daemon goes down in. The listener and its
// route go first (stop, from ListenHTTP), so nothing new is accepted and
// what is inside drains against a store that still journals; then the
// host's background work (stopServices: Master.Stop, Node.Stop); then the
// store; the -metrics dump stays last, the benchmark rig parses it after
// exit.
func (h *Host) Shutdown(stop, stopServices func(), metrics io.Writer) {
	stop()
	stopServices()
	h.Close()
	h.DumpMetrics(metrics)
}

// Close folds the WAL into a snapshot, so the next start replays
// little, and stops journaling cleanly. A host without -data-dir has
// nothing to close.
func (h *Host) Close() {
	if h.Durable == nil {
		return
	}
	if err := h.Durable.Compact(); err != nil {
		log.Printf("compact: %v", err)
	}
	if err := h.Durable.Close(); err != nil {
		log.Printf("close durable store: %v", err)
	}
}

// DumpMetrics writes the -metrics table, if one was kept.
func (h *Host) DumpMetrics(w io.Writer) {
	if h.Metrics != nil {
		h.Metrics.Dump(w)
	}
}

// Advertised is the base URL a daemon listening on listen (host:port)
// puts in its EPRs: the public host name with the listener's port.
func Advertised(host, listen string) string {
	return fmt.Sprintf("http://%s:%s", host, listen[strings.LastIndex(listen, ":")+1:])
}

// ParseAccounts decodes a comma-separated user:password list; empty
// means no accounts (WS-Security off).
func ParseAccounts(s string) (wssec.StaticAccounts, error) {
	if s == "" {
		return nil, nil
	}
	accounts := make(wssec.StaticAccounts)
	for _, pair := range strings.Split(s, ",") {
		user, pw, ok := strings.Cut(pair, ":")
		if !ok {
			return nil, fmt.Errorf("bad account %q (want user:password)", pair)
		}
		accounts[user] = pw
	}
	return accounts, nil
}
