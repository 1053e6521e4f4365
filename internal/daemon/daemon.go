// Package daemon holds what the grid's binaries — gridmaster, gridnode,
// gridsub — have in common as processes: the shared flags, the outbound
// client pipeline, the durable store behind -data-dir, and the listener
// (one port, HTTP and soap.tcp) with its receive pipeline. What each host
// then runs on top is master.Assemble or node.New.
package daemon

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime/debug"
	"runtime/metrics"
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
	Trace        bool
	DataDir      string
	Fsync        bool
	CompactBytes int64
}

// RegisterFlags declares the shared flags on fs. The journal fsyncs each
// group commit and compacts at 8 MiB unless the binary declares the flags
// that say otherwise (RegisterJournalFlags).
func RegisterFlags(fs *flag.FlagSet) *Flags {
	f := &Flags{Fsync: true, CompactBytes: 8 << 20}
	fs.BoolVar(&f.Metrics, "metrics", false, "dump per-action call metrics on exit")
	fs.BoolVar(&f.Trace, "trace", false, "log one line per call with its request ID")
	fs.StringVar(&f.DataDir, "data-dir", "", "durable data directory (a WAL, compacted into checkpoint segments): every state change is journaled and survives a crash")
	return f
}

// RegisterJournalFlags declares -fsync and -compact-bytes on fs: the
// daemons, whose journals take every job's writes, tune them.
func (f *Flags) RegisterJournalFlags(fs *flag.FlagSet) *Flags {
	fs.BoolVar(&f.Fsync, "fsync", f.Fsync, "fsync each WAL group commit (with -data-dir); off trades machine-crash safety for throughput")
	fs.Int64Var(&f.CompactBytes, "compact-bytes", f.CompactBytes, "WAL bytes since the last checkpoint that trigger a background compaction into a new one (with -data-dir); negative disables")
	return f
}

// Host is one process's plumbing.
type Host struct {
	// Client is the outbound pipeline: request correlation, deadline
	// propagation and idempotent retry always, tracing and metrics by flag.
	Client *transport.Client
	// Metrics is nil unless -metrics was given.
	Metrics *pipeline.Metrics
	// Durable is nil unless -data-dir was given.
	Durable *resourcedb.DurableStore
	// Store is Durable's store, or a fresh in-memory one.
	Store *resourcedb.Store

	trace *log.Logger // nil unless -trace was given
}

// gcPercent is the collector's target for every grid binary, unless the
// GOGC environment variable names one. What a daemon keeps is copied out
// of the frames it came in, so its live heap is about half what it was
// when kept strings pinned whole frames, and at Go's default of 100 the
// collector runs so often that a job costs 8–12 % more CPU than at 150.
// 200 gives back more heap than copying freed on chain8 and wide64d
// (EXPERIMENTS.md, E27).
const gcPercent = 150

// Open sets the process's GC target (gcPercent), builds the host's client
// and opens its store.
func (f *Flags) Open() (*Host, error) {
	if os.Getenv("GOGC") == "" {
		debug.SetGCPercent(gcPercent)
	}
	h := &Host{Client: transport.NewClient()}
	if f.Trace {
		h.trace = log.Default()
	}
	if f.Metrics {
		h.Metrics = pipeline.NewMetrics()
	}
	h.Client.Use(core.ClientInterceptors(h.trace, h.Metrics)...)
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

// MasterConfig is what a master host takes from its process: the store
// and the client. The caller adds what is the master's own (Scheduler).
func (h *Host) MasterConfig(address string) master.Config {
	return master.Config{Address: address, Store: h.Store, Client: h.Client}
}

// ListenHTTP serves srv on addr, one port for both bindings, and returns
// its http:// base. In the same act it tells h.Client that the port is
// this process under every name it has: the listener's base and every
// advertised one (what the host's EPRs carry: Advertised), each in its
// http:// and soap.tcp:// form. Co-located services then reach each
// other through the same envelope and both interceptor chains, without a
// socket, whichever scheme an EPR names, including one journaled before
// the host changed what it advertises. stop removes the route first — a
// self-call then fails like a closed port — and drains in-flight
// requests of both bindings for up to five seconds.
func (h *Host) ListenHTTP(srv *transport.Server, addr string, advertised ...string) (baseURL string, stop func(), err error) {
	baseURL, shutdown, err := transport.ListenHTTP(srv, addr)
	if err != nil {
		return "", nil, err
	}
	var own []string
	for _, base := range append(advertised, baseURL) {
		_, hostport, _ := strings.Cut(base, "://")
		own = append(own, "http://"+hostport, transport.SchemeTCP+"://"+hostport)
	}
	unroute := h.Client.Colocate(srv, own...)
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
// host's background work (stopServices: Node.Stop); then the
// store; the -metrics dump stays last, the benchmark rig parses it after
// exit.
func (h *Host) Shutdown(stop, stopServices func(), metrics io.Writer) {
	stop()
	stopServices()
	h.Close()
	h.DumpMetrics(metrics)
}

// Close folds the WAL into a checkpoint, so the next start replays
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

// DumpMetrics writes the -metrics table, if one was kept, and after it
// what the process has allocated over its life (runtimeLine).
func (h *Host) DumpMetrics(w io.Writer) {
	if h.Metrics != nil {
		h.Metrics.Dump(w)
		fmt.Fprintln(w, runtimeLine())
	}
}

// runtimeLine is the dump's last line: bytes and objects allocated on
// the heap since the process started and the GC cycles run, so a run's
// transient garbage can be told from what it keeps. It must not start
// with '/', which opens a table row.
func runtimeLine() string {
	samples := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/gc/heap/allocs:objects"},
	}
	metrics.Read(samples)
	return fmt.Sprintf("runtime: heap_alloc_bytes=%d gc_cycles=%d mallocs=%d",
		samples[0].Value.Uint64(), samples[1].Value.Uint64(), samples[2].Value.Uint64())
}

// Advertised is the base URL a daemon listening on listen (host:port)
// puts in its EPRs: http:// with the public host name and the listener's
// port, a URL any SOAP client can call. This code's clients learn from
// the port's first answer that it takes frames, and send it the rest so.
func Advertised(host, listen string) string {
	return fmt.Sprintf("http://%s:%s", host, listen[strings.LastIndex(listen, ":")+1:])
}

// ParseAccounts decodes a comma-separated user:password list; empty
// means no accounts (WS-Security off). A password may hold ':' (the
// first one ends the user name). An empty user name, which no token can
// name, and a user given twice are refused, naming the pair.
func ParseAccounts(s string) (wssec.StaticAccounts, error) {
	if s == "" {
		return nil, nil
	}
	accounts := make(wssec.StaticAccounts)
	for _, pair := range strings.Split(s, ",") {
		user, pw, ok := strings.Cut(pair, ":")
		if !ok || user == "" {
			return nil, fmt.Errorf("bad account %q (want user:password)", pair)
		}
		if _, dup := accounts[user]; dup {
			return nil, fmt.Errorf("bad account %q: user %q is given twice", pair, user)
		}
		accounts[user] = pw
	}
	return accounts, nil
}
