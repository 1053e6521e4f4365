package main

import (
	"bytes"
	"context"
	"flag"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"uvacg/internal/daemon"
	"uvacg/internal/master"
	"uvacg/internal/node"
	"uvacg/internal/transport"
	"uvacg/internal/wsa"
)

// TestFlagSurface pins gridsub's flag set, so a knob cannot creep in (or
// out) unnoticed: every flag is a configuration the tests and the
// benchmark would have to cover.
func TestFlagSurface(t *testing.T) {
	const want = "data-dir jobset listen master metrics out pass timeout trace user"
	fs := flag.NewFlagSet("gridsub", flag.ContinueOnError)
	registerFlags(fs)
	var got []string
	fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name) })
	if s := strings.Join(got, " "); s != want {
		t.Fatalf("gridsub has %d flags:\n  %s\nwant %d:\n  %s", len(got), s, len(strings.Fields(want)), want)
	}
}

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

// TestRunDemoJobSet runs the shipped client — run, everything under
// main — against a master and two nodes assembled as gridmaster and
// gridnode assemble them, on loopback (every daemon advertised over
// HTTP, its port answering frames too): the README's demo job set
// completes, the total is fetched, the exit status is 0.
func TestRunDemoJobSet(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	open := func() *daemon.Host {
		host, err := daemon.RegisterFlags(flag.NewFlagSet("test", flag.ContinueOnError)).Open()
		if err != nil {
			t.Fatal(err)
		}
		return host
	}
	mhost, maddr := open(), freeAddr(t)
	masterURL := daemon.Advertised("127.0.0.1", maddr)
	m, err := master.Assemble(mhost.MasterConfig(masterURL))
	if err != nil {
		t.Fatal(err)
	}
	_, stop, err := mhost.ListenHTTP(transport.NewServer(m.Mux), maddr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(stop)
	if _, err := m.Start(ctx); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"win-a", "win-b"} {
		nhost, naddr := open(), freeAddr(t)
		n, err := node.New(node.Config{
			Name:    name,
			Address: daemon.Advertised("127.0.0.1", naddr),
			Client:  nhost.Client,
			Cores:   2,
			Broker:  wsa.NewEPR(masterURL + "/NotificationBroker"),
			NIS:     wsa.NewEPR(masterURL + "/NodeInfoService"),
			Store:   nhost.Store,
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

	out := t.TempDir()
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-master", masterURL, "-out", out, "-timeout", "60s",
		"-jobset", filepath.Join("..", "..", "examples", "gridsub-demo", "analysis.jobset"),
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit status %d:\n%s", code, stderr.String())
	}
	total, err := os.ReadFile(filepath.Join(out, "sum.total.txt"))
	if err != nil || strings.TrimSpace(string(total)) != "100" {
		t.Fatalf("sum.total.txt = %q, %v; want 100\n%s", total, err, stderr.String())
	}
	for _, line := range []string{`submitted "analysis" as `, "jobset       completed", "fetched sum/total.txt -> "} {
		if !strings.Contains(stderr.String(), line) {
			t.Errorf("log lacks %q:\n%s", line, stderr.String())
		}
	}
}
