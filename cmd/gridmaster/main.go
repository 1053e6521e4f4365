// Command gridmaster runs the campus grid's master services over HTTP:
// the Notification Broker, the Node Info Service and the Scheduler
// Service. Machines started with gridnode register against it and
// clients submit job sets with gridsub.
//
//	gridmaster -addr :8700 [-host localhost] [-policy greedy]
//	           [-accounts user:pw,user2:pw2]
//
// A grid has one master, as the paper's testbed does (Fig. 3); a second
// grid is a second gridmaster with its own nodes. The Scheduler takes each
// job set it is given and dispatches it at once: there is no queue in
// front of it.
//
// The Node Info Service's catalog is in memory: each gridnode renews its
// entry once a second, and one not renewed for 3 s leaves. A restarted
// gridmaster, with or without -data-dir, hears from the running nodes
// within a second; a dispatch that finds no machine waits up to 1.5 s.
//
// Jobs retry on failure up to their spec's per-job budget (a .jobset
// file's "retry 2 500ms" line), which the job set's resource keeps across
// a restart; a job whose spec gives none runs once.
//
// Every dispatched job is watched. When 1.5 s pass without its exit, the
// Scheduler reads the job's Status from its Execution Service: a job that
// is still Running is watched for another 1.5 s, however long it runs,
// and anything else (a node that is down, an exit whose notification was
// lost) fails the attempt, which its retry budget may run again.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"uvacg/internal/daemon"
	"uvacg/internal/master"
	"uvacg/internal/services/scheduler"
	"uvacg/internal/transport"
)

// The flag surface: the process flags every grid binary shares, plus the
// master's own.
var (
	shared       = daemon.RegisterFlags(flag.CommandLine)
	addr         = flag.String("addr", ":8700", "listen address (host:port)")
	hostName     = flag.String("host", "localhost", "public host name services advertise in EPRs")
	policyName   = flag.String("policy", "greedy", "scheduling policy: greedy (fastest, most available machine), round-robin or random")
	accountsFlag = flag.String("accounts", "", "comma-separated user:password accounts; empty disables WS-Security")
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
	accounts, err := daemon.ParseAccounts(*accountsFlag)
	if err != nil {
		log.Fatalf("gridmaster: %v", err)
	}

	mcfg := host.MasterConfig(address)
	mcfg.Scheduler = scheduler.Config{Policy: policy, Accounts: accounts}
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
	log.Printf("gridmaster up at %s (advertising %s)", base, address)
	log.Printf("  broker:    %s", m.Broker.EPR().Address)
	log.Printf("  node info: %s", m.NIS.EPR().Address)
	log.Printf("  scheduler: %s  (policy %s)", m.Scheduler.EPR().Address, policy.Name())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	// The master has no background work of its own to stop.
	host.Shutdown(stop, func() {}, os.Stderr)
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
