// Command pipeline runs the paper's motivating scenario: a job set
// whose jobs feed each other's outputs, scheduled across a
// heterogeneous three-machine grid, with the client watching progress
// through live WS-Notification events (paper Fig. 3, steps 1-10).
//
// The pipeline models a small analysis: generate raw samples, filter
// them, aggregate the survivors, and format a report — four stages, each
// consuming the previous stage's file from wherever it was produced.
package main

import (
	"cmp"
	"context"
	"fmt"
	"log"
	"time"

	"uvacg/internal/core"
	"uvacg/internal/services/scheduler"
	"uvacg/internal/wssec"
)

func main() {
	grid, err := core.NewGrid(core.GridConfig{
		Nodes: []core.NodeSpec{
			{Name: "win-fast", Cores: 4, SpeedMHz: 3200, RAMMB: 2048},
			{Name: "win-mid", Cores: 2, SpeedMHz: 2000, RAMMB: 1024},
			{Name: "win-old", Cores: 1, SpeedMHz: 900, RAMMB: 256},
		},
		Accounts: wssec.StaticAccounts{"scientist": "secret"},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer grid.Close()

	client, err := grid.NewClient(wssec.Credentials{Username: "scientist", Password: "secret"}, false)
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()

	// Stage scripts live on the client's machine until the grid pulls
	// them (the GUI tool's local file server, paper §4.6).
	client.AddFile("generate.app", core.Script(
		"compute 400",
		"write samples.txt 12 7 93 41 8 77 3 55 21 68",
		"exit 0",
	))
	client.AddFile("filter.app", core.Script(
		"read samples.txt",
		"compute 300",
		"transform samples.txt sorted.txt sort",
		"exit 0",
	))
	client.AddFile("aggregate.app", core.Script(
		"read sorted.txt",
		"compute 200",
		"transform sorted.txt total.txt sum",
		"transform sorted.txt stats.txt count",
		"exit 0",
	))
	client.AddFile("report.app", core.Script(
		"read total.txt",
		"read stats.txt",
		"append report.txt total.txt",
		"append report.txt stats.txt",
		"exit 0",
	))

	spec := core.NewJobSet("analysis-pipeline").
		Add("generate", core.Local("generate.app")).
		Outputs("samples.txt").
		Add("filter", core.Local("filter.app")).
		Input("samples.txt", core.Output("generate", "samples.txt")).
		Outputs("sorted.txt").
		Add("aggregate", core.Local("aggregate.app")).
		Input("sorted.txt", core.Output("filter", "sorted.txt")).
		Outputs("total.txt", "stats.txt").
		Add("report", core.Local("report.app")).
		Input("total.txt", core.Output("aggregate", "total.txt")).
		Input("stats.txt", core.Output("aggregate", "stats.txt")).
		Outputs("report.txt").
		Spec()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	sub, err := client.Submit(ctx, spec)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("submitted %q — watching events on topic %s\n", spec.Name, sub.Topic)

	// Display the notification stream the way the paper's client
	// application does, until the terminal job-set event.
	go func() {
		for n := range sub.Events() {
			if ev, ok := scheduler.ParseEvent(n); ok {
				fmt.Printf("  event: %-10s %s\n", cmp.Or(ev.Job, "jobset"), ev.Kind)
			}
		}
	}()

	status, err := sub.Wait(ctx)
	if err != nil {
		log.Fatal(err)
	}
	if status != scheduler.SetCompleted {
		_, detail := sub.Status()
		log.Fatalf("pipeline %s: %s", status, detail)
	}

	report, err := sub.FetchOutput(ctx, "report", "report.txt")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("final report (sum, then lines/words/bytes):\n%s\n", report)
}
