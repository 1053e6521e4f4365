// Command gridmaster runs the campus grid's master services over HTTP:
// the Notification Broker, the Node Info Service and the Scheduler
// Service. Machines started with gridnode register against it and
// clients submit job sets with gridsub.
//
//	gridmaster -addr :8700 [-host localhost] [-policy greedy]
//	           [-accounts user:pw,user2:pw2]
//
// A grid has one master, as the paper's testbed does (Fig. 3); a second
// grid is a second gridmaster with its own nodes.
//
// With -queue-depth the scheduler runs behind a durable multi-tenant
// admission queue: submits are journaled Queued and acked immediately,
// a weighted fair-share pump activates them, and past the bound (or a
// -tenant-quota) clients get a QueueFullFault with a Retry-After hint.
//
//	gridmaster -addr :8700 -queue-depth 256 [-tenant-quota 16:4]
//	           [-fair-share alice:4,bob:1] [-preempt]
//
// Jobs retry on failure up to their spec's per-job budget; -retry-default
// gives a budget to jobs whose spec carries none. With -preempt (and the
// admission queue), an interactive-class arrival that finds its tenant's
// running quota full evicts the tenant's youngest running scavenger-class
// set back into the queue instead of waiting behind it.
//
//	gridmaster -addr :8700 -retry-default 2:500ms -queue-depth 256 -preempt
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"uvacg/internal/admission"
	"uvacg/internal/daemon"
	"uvacg/internal/master"
	"uvacg/internal/pipeline"
	"uvacg/internal/services/scheduler"
	"uvacg/internal/transport"
	"uvacg/internal/wssec"
)

// The flag surface: the process flags every grid binary shares, plus the
// master's own.
var (
	shared       = daemon.RegisterFlags(flag.CommandLine)
	addr         = flag.String("addr", ":8700", "listen address (host:port)")
	hostName     = flag.String("host", "localhost", "public host name services advertise in EPRs")
	policyName   = flag.String("policy", "greedy", "scheduling policy: greedy (fastest, most available machine), round-robin or random")
	accountsFlag = flag.String("accounts", "", "comma-separated user:password accounts; empty disables WS-Security")
	jobTimeout   = flag.Duration("job-timeout", 0, "fail dispatched jobs with no completion inside this window (0 disables)")
	queueDepth   = flag.Int("queue-depth", 0, "run an admission queue in front of the scheduler, bounding parked job sets grid-wide (-1 = queue without bound, 0 disables admission)")
	tenantQuota  = flag.String("tenant-quota", "", "per-tenant admission quota as queued[:running], e.g. 10:2 (with -queue-depth)")
	fairShare    = flag.String("fair-share", "", "comma-separated tenant:weight admission fair-share list, e.g. alice:4,bob:1 (with -queue-depth)")
	retryDefault = flag.String("retry-default", "", "retry budget for jobs whose spec has none, as limit[:backoff], e.g. 2:500ms (empty disables)")
	preempt      = flag.Bool("preempt", false, "let interactive-class arrivals preempt a tenant's running scavenger-class set back into the admission queue (with -queue-depth)")
)

func main() {
	flag.Parse()

	policy, err := pickPolicy(*policyName)
	if err != nil {
		log.Fatalf("gridmaster: %v", err)
	}
	host, err := shared.Open()
	if err != nil {
		log.Fatal(err)
	}
	address := daemon.Advertised(*hostName, *addr)
	ssCfg := scheduler.Config{
		Policy:     policy,
		JobTimeout: *jobTimeout,
	}
	if *retryDefault != "" {
		ssCfg.DefaultRetry, err = parseRetryDefault(*retryDefault)
		if err != nil {
			log.Fatalf("gridmaster: %v", err)
		}
	}
	if *queueDepth != 0 {
		admCfg, err := buildAdmission(*queueDepth, *tenantQuota, *fairShare, host.Metrics)
		if err != nil {
			log.Fatalf("gridmaster: %v", err)
		}
		ssCfg.Admission = admission.New(admCfg)
		ssCfg.Preempt = *preempt
	} else if *preempt {
		log.Fatal("gridmaster: -preempt needs the admission queue (-queue-depth)")
	}
	accounts, err := daemon.ParseAccounts(*accountsFlag)
	if err != nil {
		log.Fatalf("gridmaster: %v", err)
	}
	if accounts != nil {
		// HTTP deployment note: credentials cross as UsernameToken
		// digests; header encryption needs out-of-band certificate
		// distribution, which the CLI deployment does not do.
		ssCfg.Security = &wssec.VerifierConfig{Accounts: accounts, Required: true}
	}

	mcfg := host.MasterConfig(address)
	mcfg.Scheduler = ssCfg
	m, err := master.Assemble(mcfg)
	if err != nil {
		log.Fatal(err)
	}
	srv := transport.NewServer(m.Mux)
	srv.Use(host.Interceptors()...)
	base, stop, err := host.ListenHTTP(srv, *addr, address)
	if err != nil {
		log.Fatal(err)
	}
	startCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	resumed, err := m.Start(startCtx)
	cancel()
	if err != nil {
		log.Printf("start: %v", err)
	}
	if resumed > 0 {
		log.Printf("resumed %d job set(s) from the previous run", resumed)
	}
	if ssCfg.Admission != nil {
		log.Printf("admission queue enabled (depth %d)", *queueDepth)
	}
	log.Printf("gridmaster up at %s (advertising %s)", base, address)
	log.Printf("  broker:    %s", m.Broker.EPR().Address)
	log.Printf("  node info: %s", m.NIS.EPR().Address)
	log.Printf("  scheduler: %s  (policy %s)", m.Scheduler.EPR().Address, policy.Name())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	host.Shutdown(stop, m.Stop, os.Stderr)
	if host.Metrics != nil && ssCfg.Admission != nil {
		ssCfg.Admission.Dump(os.Stderr)
	}
}

// buildAdmission translates the admission flags into a queue config.
// depth < 0 queues without a global bound; per-tenant quotas and
// weights still apply.
func buildAdmission(depth int, quota, shares string, metrics *pipeline.Metrics) (admission.Config, error) {
	cfg := admission.Config{Metrics: metrics}
	if depth > 0 {
		cfg.MaxQueued = depth
	}
	if quota != "" {
		queued, running, _ := strings.Cut(quota, ":")
		n, err := strconv.Atoi(queued)
		if err != nil || n < 0 {
			return cfg, fmt.Errorf("bad -tenant-quota %q (want queued[:running])", quota)
		}
		cfg.TenantQueued = n
		if running != "" {
			n, err := strconv.Atoi(running)
			if err != nil || n < 0 {
				return cfg, fmt.Errorf("bad -tenant-quota %q (want queued[:running])", quota)
			}
			cfg.TenantRunning = n
		}
	}
	if shares != "" {
		cfg.Weights = make(map[string]int)
		for _, pair := range strings.Split(shares, ",") {
			tenant, weight, ok := strings.Cut(strings.TrimSpace(pair), ":")
			if !ok {
				return cfg, fmt.Errorf("bad -fair-share entry %q (want tenant:weight)", pair)
			}
			w, err := strconv.Atoi(weight)
			if err != nil || w < 1 {
				return cfg, fmt.Errorf("bad -fair-share weight in %q (want a positive integer)", pair)
			}
			cfg.Weights[tenant] = w
		}
	}
	return cfg, nil
}

// parseRetryDefault decodes the -retry-default flag: "limit" or
// "limit:backoff". A limit with no backoff waits 1s between attempts.
func parseRetryDefault(s string) (scheduler.RetryPolicy, error) {
	limitStr, backoffStr, hasBackoff := strings.Cut(s, ":")
	limit, err := strconv.Atoi(limitStr)
	if err != nil || limit < 1 {
		return scheduler.RetryPolicy{}, fmt.Errorf("bad -retry-default %q (want limit[:backoff], limit >= 1)", s)
	}
	backoff := time.Second
	if hasBackoff {
		backoff, err = time.ParseDuration(backoffStr)
		if err != nil || backoff < 0 {
			return scheduler.RetryPolicy{}, fmt.Errorf("bad -retry-default backoff in %q (want a duration like 500ms)", s)
		}
	}
	return scheduler.RetryPolicy{Limit: limit, Backoff: backoff}, nil
}

// pickPolicy maps the -policy flag onto a scheduling policy; a name it
// does not know is refused, not read as greedy.
func pickPolicy(name string) (scheduler.Policy, error) {
	switch name {
	case "greedy":
		return scheduler.Greedy{}, nil
	case "round-robin":
		return scheduler.RoundRobin{}, nil
	case "random":
		return scheduler.NewRandom(1), nil
	}
	return nil, fmt.Errorf("unknown -policy %q (want greedy, round-robin or random)", name)
}
