// Command paramsweep fans a parameter sweep out across a heterogeneous
// grid and reduces the results: the bag-of-tasks workload campus grids
// were built for. Sixteen independent worker jobs each "simulate" one
// parameter value; a final reducer consumes all sixteen outputs, which
// exercises the Scheduler's EPR fill-in for many-to-one dependencies and
// its load distribution across unequal machines.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"uvacg/internal/core"
	"uvacg/internal/services/scheduler"
	"uvacg/internal/wsrf"
	"uvacg/internal/wssec"
	"uvacg/internal/xmlutil"
)

const workers = 16

func main() {
	grid, err := core.NewGrid(core.GridConfig{
		Nodes: []core.NodeSpec{
			{Name: "lab-1", Cores: 4, SpeedMHz: 3000, RAMMB: 4096},
			{Name: "lab-2", Cores: 2, SpeedMHz: 2400, RAMMB: 2048},
			{Name: "lab-3", Cores: 2, SpeedMHz: 1600, RAMMB: 1024},
			{Name: "lab-4", Cores: 1, SpeedMHz: 1000, RAMMB: 512},
		},
		Accounts:             wssec.StaticAccounts{"scientist": "secret"},
		UtilizationThreshold: 0.05,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer grid.Close()
	// Each machine's Processor Utilization service, running from NewGrid
	// on, keeps the NIS fresh, so the greedy policy sees machines fill up
	// and spreads the load.

	client, err := grid.NewClient(wssec.Credentials{Username: "scientist", Password: "secret"}, false)
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()

	// One worker script per parameter: each "computes" a result that is
	// simply its parameter squared, written to part.txt.
	set := core.NewJobSet("paramsweep")
	reducer := core.Job{Name: "reduce", Executable: core.Local("reduce.app"), Outputs: []string{"sum.txt"}}
	var reduceLines []string
	expected := 0
	for i := 1; i <= workers; i++ {
		name := fmt.Sprintf("w%02d", i)
		app := name + ".app"
		client.AddFile(app, core.Script(
			"compute 40000",
			fmt.Sprintf(`write part.txt %d\n`, i*i),
			"exit 0",
		))
		expected += i * i
		set.Add(name, core.Local(app)).Outputs("part.txt")
		local := "part-" + name + ".txt"
		reducer.Inputs = append(reducer.Inputs, core.FileSpec{LocalName: local, Source: core.Output(name, "part.txt")})
		reduceLines = append(reduceLines, "append parts.txt "+local)
	}
	reduceLines = append(reduceLines, "transform parts.txt sum.txt sum", "exit 0")
	client.AddFile("reduce.app", core.Script(reduceLines...))

	spec := set.Spec()
	spec.Jobs = append(spec.Jobs, reducer)

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	start := time.Now()
	sub, err := client.Submit(ctx, spec)
	if err != nil {
		log.Fatal(err)
	}
	status, err := sub.Wait(ctx)
	if err != nil {
		log.Fatal(err)
	}
	if status != scheduler.SetCompleted {
		_, detail := sub.Status()
		log.Fatalf("sweep %s: %s", status, detail)
	}
	elapsed := time.Since(start)

	out, err := sub.FetchOutput(ctx, "reduce", "sum.txt")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("swept %d parameters in %v\n", workers, elapsed.Round(time.Millisecond))
	fmt.Printf("reduced sum = %s (expected %d)\n", out, expected)

	// Show the placement the greedy policy produced, read from the job
	// set's WS-Resource like any WSRF client would.
	rc := wsrf.NewResourceClient(grid.Client, sub.JobSet)
	states, err := rc.GetProperty(ctx, scheduler.QJobState)
	if err != nil {
		log.Fatal(err)
	}
	perNode := make(map[string]int)
	for _, st := range states {
		perNode[st.Attr(xmlutil.Q("", "node"))]++
	}
	fmt.Println("placement:")
	for _, n := range grid.Nodes {
		fmt.Printf("  %-8s %2d jobs\n", n.Name, perNode[n.Name])
	}
}
