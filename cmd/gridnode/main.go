// Command gridnode runs one grid machine: its File System Service,
// Execution Service, ProcSpawn runtime and Processor Utilization
// monitor, on one port that answers soap.tcp and HTTP. Its EPRs name
// http://, and peers learn from the port's first answer to send frames.
// On startup it registers with the master's Node Info Service and then
// streams utilization changes to it, renewing its catalog entry — with the
// job attempts it runs, the master's one sign they live — at least once a
// second, so a restarted master learns of it within a second.
//
//	gridnode -name win-a -addr :8701 -master http://localhost:8700 \
//	         [-cores 2] [-speed 2800] [-ram 1024] [-accounts user:pw]
package main

import (
	"context"
	"flag"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"uvacg/internal/daemon"
	"uvacg/internal/master"
	"uvacg/internal/node"
	"uvacg/internal/services/nodeinfo"
	"uvacg/internal/wsa"
)

// The flag surface: the process flags every grid binary shares, plus the
// machine's own.
var (
	shared       = daemon.RegisterFlags(flag.CommandLine)
	name         = flag.String("name", "", "machine name (required)")
	addr         = flag.String("addr", ":8701", "listen address")
	hostName     = flag.String("host", "localhost", "public host name for EPRs")
	masterURL    = flag.String("master", "http://localhost:8700", "gridmaster base URL")
	cores        = flag.Int("cores", 2, "processor cores")
	speed        = flag.Float64("speed", 2000, "clock speed (MHz)")
	ram          = flag.Int("ram", 1024, "RAM (MB)")
	accountsFlag = flag.String("accounts", "", "comma-separated user:password local accounts")
	threshold    = flag.Float64("threshold", 0.1, "report utilization to the NIS when a 50 ms sample finds it moved by this much (0..1); it is reported at least once a second regardless")
)

func main() {
	flag.Parse()
	if *name == "" {
		log.Fatal("gridnode: -name is required")
	}
	accounts, err := daemon.ParseAccounts(*accountsFlag)
	if err != nil {
		log.Fatalf("gridnode: %v", err)
	}
	host, err := shared.Open()
	if err != nil {
		log.Fatal(err)
	}

	address := daemon.Advertised(*hostName, *addr)
	nisEPR := wsa.NewEPR(*masterURL + nodeinfo.ServicePath)
	n, err := node.New(node.Config{
		Name:                 *name,
		Address:              address,
		Client:               host.Client,
		Cores:                *cores,
		SpeedMHz:             *speed,
		RAMMB:                *ram,
		Accounts:             accounts,
		Broker:               wsa.NewEPR(*masterURL + master.BrokerPath),
		NIS:                  nisEPR,
		UtilizationThreshold: *threshold,
		Store:                host.Store,
		Interceptors:         host.Interceptors(),
	})
	if err != nil {
		log.Fatal(err)
	}
	base, stop, err := host.ListenHTTP(n.Server(), *addr, address)
	if err != nil {
		log.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	if err := n.Register(ctx); err != nil {
		log.Fatalf("register with NIS at %s: %v", nisEPR.Address, err)
	}
	cancel()
	n.Start()
	log.Printf("gridnode %s up at %s: %d cores @ %.0f MHz, %d MB, registered with %s",
		*name, base, *cores, *speed, *ram, *masterURL)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	host.Shutdown(stop, n.Stop, os.Stderr)
}
