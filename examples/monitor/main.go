// Command monitor is a grid-operations view built purely from the WSRF
// surface: it subscribes to job lifecycle topics through the
// Notification Broker, polls the Node Info Service the way the
// Scheduler does, and queries the NIS's WS-ServiceGroup resource with
// the standard QueryResourceProperties interface — no bespoke monitoring
// API anywhere, which is exactly the paper's argument for standardized
// resource properties (§5).
package main

import (
	"cmp"
	"context"
	"fmt"
	"log"
	"time"

	"uvacg/internal/core"
	"uvacg/internal/services/nodeinfo"
	"uvacg/internal/services/scheduler"
	"uvacg/internal/wsrf"
	"uvacg/internal/wssec"
)

func main() {
	grid, err := core.NewGrid(core.GridConfig{
		Nodes: []core.NodeSpec{
			{Name: "cs-lab-1", Cores: 2, SpeedMHz: 2400, RAMMB: 1024},
			{Name: "cs-lab-2", Cores: 1, SpeedMHz: 1200, RAMMB: 512,
				Background: func() float64 { return 0.35 }}, // someone's using it
		},
		Accounts:             wssec.StaticAccounts{"scientist": "secret"},
		UtilizationThreshold: 0.05,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer grid.Close()
	grid.StartMonitors() // background Processor Utilization services

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// 1. Poll the NIS like the Scheduler does (step 2 of Fig. 3).
	procs, err := nodeinfo.GetProcessorsVia(ctx, grid.Client, grid.NIS.EPR())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("processors catalogued by the Node Info Service:")
	for _, p := range procs {
		fmt.Printf("  %-10s %d cores @ %6.0f MHz, %5d MB RAM, util %.0f%%\n",
			p.Host, p.Cores, p.SpeedMHz, p.RAMMB, p.Utilization*100)
	}

	// 2. Query the same catalog through the generic WSRF query
	// interface: find idle machines.
	rc := wsrf.NewResourceClient(grid.Client, grid.NIS.GroupEPR())
	idle, err := rc.Query(ctx, "/Entry/Content/Processor[Utilization='0.0000']")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("idle machines by QueryResourceProperties: %d\n", len(idle))

	// 3. Watch live events while a job set runs.
	client, err := grid.NewClient(wssec.Credentials{Username: "scientist", Password: "secret"}, false)
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()
	client.AddFile("burn.app", core.Script("compute 3000", "write done.txt ok", "exit 0"))
	set := core.NewJobSet("burnin")
	for i := 0; i < 4; i++ {
		set.Add(fmt.Sprintf("burn-%d", i), core.Local("burn.app"))
	}
	sub, err := client.Submit(ctx, set.Spec())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("live events from the Notification Broker:")
	go func() {
		for n := range sub.Events() {
			if ev, ok := scheduler.ParseEvent(n); ok {
				fmt.Printf("  %-22s %-8s %s\n", time.Now().Format("15:04:05.000"), cmp.Or(ev.Job, "jobset"), ev.Kind)
			}
		}
	}()
	status, err := sub.Wait(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("job set finished: %s\n", status)

	// 4. The utilization stream moved the catalog; show the after view.
	procs, err = nodeinfo.GetProcessorsVia(ctx, grid.Client, grid.NIS.EPR())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("catalog after the run:")
	for _, p := range procs {
		fmt.Printf("  %-10s util %.0f%% (updated %s ago)\n",
			p.Host, p.Utilization*100, time.Since(p.UpdatedAt).Round(time.Millisecond))
	}
}
