package daemon_test

import (
	"context"
	"flag"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"uvacg/internal/core"
	"uvacg/internal/daemon"
	"uvacg/internal/master"
	"uvacg/internal/node"
	"uvacg/internal/services/scheduler"
	"uvacg/internal/transport"
	"uvacg/internal/wsa"
)

// freeAddr asks the kernel for an unused loopback port. A daemon needs
// its port before it listens: the advertised address goes into EPRs at
// assembly.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	return l.Addr().String()
}

// openHost parses args as a grid binary would and opens its plumbing.
func openHost(t *testing.T, args ...string) *daemon.Host {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	flags := daemon.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	host, err := flags.Open()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(host.Close)
	return host
}

// TestShippedWiringRunsDemoJobSet stands a grid up the way the binaries
// do — daemon.Flags.Open, master.Assemble / node.New, Host.ListenHTTP,
// Start / Register, in cmd/gridmaster's and cmd/gridnode's order — on
// loopback HTTP with journaled stores, and runs the README's demo job
// set through it with the client wired as cmd/gridsub wires it: gen on
// one machine, sum staged from it over soap.tcp and HTTP, the total
// fetched back.
func TestShippedWiringRunsDemoJobSet(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	mhost := openHost(t, "-data-dir", t.TempDir(), "-fsync=false", "-metrics")
	maddr := freeAddr(t)
	masterURL := daemon.Advertised("127.0.0.1", maddr)
	m, err := master.Assemble(master.Config{
		Address:   masterURL,
		Store:     mhost.Store,
		Client:    mhost.Client,
		Scheduler: &scheduler.Config{},
		Metrics:   mhost.Metrics,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := transport.NewServer(m.Mux)
	srv.Use(mhost.Interceptors()...)
	_, stop, err := mhost.ListenHTTP(srv, maddr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(stop)
	if _, err := m.Start(ctx); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Stop)

	for _, name := range []string{"win-a", "win-b"} {
		nhost := openHost(t, "-data-dir", t.TempDir(), "-fsync=false")
		naddr := freeAddr(t)
		n, err := node.New(node.Config{
			Name:         name,
			Address:      daemon.Advertised("127.0.0.1", naddr),
			Client:       nhost.Client,
			Cores:        2,
			Broker:       wsa.NewEPR(masterURL + "/NotificationBroker"),
			NIS:          wsa.NewEPR(masterURL + "/NodeInfoService"),
			Store:        nhost.Store,
			Interceptors: nhost.Interceptors(),
		})
		if err != nil {
			t.Fatal(err)
		}
		_, stop, err := nhost.ListenHTTP(n.Server(), naddr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(stop)
		if err := n.Register(ctx); err != nil {
			t.Fatal(err)
		}
		n.Start()
		t.Cleanup(n.Stop)
	}

	jobset := filepath.Join("..", "..", "examples", "gridsub-demo", "analysis.jobset")
	f, err := os.Open(jobset)
	if err != nil {
		t.Fatal(err)
	}
	desc, err := core.ParseJobSetFile(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	chost := openHost(t)
	client, err := core.NewClient(core.ClientConfig{
		Transport: chost.Client,
		Master:    masterURL,
		TCPFiles:  true,
		Expose: func(srv *transport.Server) (string, func(), error) {
			srv.Use(chost.Interceptors()...)
			return chost.ListenHTTP(srv, "127.0.0.1:0")
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	for name, path := range desc.Files {
		content, err := os.ReadFile(filepath.Join(filepath.Dir(jobset), path))
		if err != nil {
			t.Fatal(err)
		}
		client.AddFile(name, content)
	}
	sub, err := client.Submit(ctx, desc.Spec)
	if err != nil {
		t.Fatal(err)
	}
	if status, err := sub.Wait(ctx); err != nil || status != scheduler.SetCompleted {
		_, detail := sub.Status()
		t.Fatalf("job set ended %q (%s), err %v", status, detail, err)
	}
	total, err := sub.FetchOutput(ctx, "sum", "total.txt")
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(string(total)); got != "100" {
		t.Fatalf("sum/total.txt = %q, want 100", got)
	}
}
