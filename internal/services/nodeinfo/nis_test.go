package nodeinfo

import (
	"context"
	"testing"
	"time"

	"uvacg/internal/resourcedb"
	"uvacg/internal/soap"
	"uvacg/internal/transport"
	"uvacg/internal/wsa"
	"uvacg/internal/wsrf"
	"uvacg/internal/xmlutil"
)

func newNISHarness(t *testing.T) (*Service, *transport.Client) {
	t.Helper()
	store := resourcedb.NewStore()
	nis, err := New(Config{
		Address: "inproc://master",
		Home:    wsrf.NewStateHome(store.MustTable("nis", resourcedb.BlobCodec{})),
	})
	if err != nil {
		t.Fatal(err)
	}
	mux := soap.NewMux()
	mux.Handle(nis.WSRF().Path(), nis.WSRF().Dispatcher())
	network := transport.NewNetwork()
	network.Register("master", transport.NewServer(mux))
	return nis, transport.NewClient().WithNetwork(network)
}

func proc(host string, util float64) Processor {
	return Processor{
		Host:        host,
		ES:          wsa.NewEPR("inproc://" + host + "/ExecutionService"),
		Cores:       2,
		SpeedMHz:    2400,
		RAMMB:       1024,
		Utilization: util,
	}
}

func TestReportAndPoll(t *testing.T) {
	nis, client := newNISHarness(t)
	ctx := context.Background()

	// Synchronous report (registration).
	if _, err := client.Call(ctx, nis.EPR(), ActionReport, ReportRequest(proc("win-a", 0.2))); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Call(ctx, nis.EPR(), ActionReport, ReportRequest(proc("win-b", 0.8))); err != nil {
		t.Fatal(err)
	}

	procs, err := GetProcessorsVia(ctx, client, nis.EPR())
	if err != nil {
		t.Fatal(err)
	}
	if len(procs) != 2 {
		t.Fatalf("%d processors", len(procs))
	}
	if procs[0].Host != "win-a" || procs[0].Utilization != 0.2 || procs[0].SpeedMHz != 2400 {
		t.Fatalf("procs[0] = %+v", procs[0])
	}
	if local, err := nis.Processors(); err != nil || procs[0].UpdatedAt.IsZero() || !procs[0].UpdatedAt.Equal(local[0].UpdatedAt) {
		t.Errorf("timestamp %v did not survive the poll: catalog %+v, %v", procs[0].UpdatedAt, local, err)
	}
	if procs[1].ES.Address != "inproc://win-b/ExecutionService" {
		t.Fatalf("ES EPR = %v", procs[1].ES)
	}
}

func TestReportUpsertsByMember(t *testing.T) {
	nis, client := newNISHarness(t)
	ctx := context.Background()
	if _, err := client.Call(ctx, nis.EPR(), ActionReport, ReportRequest(proc("win-a", 0.1))); err != nil {
		t.Fatal(err)
	}
	// A later report from the same machine replaces the entry — the
	// threshold-triggered update stream (paper §4.4).
	if _, err := client.Call(ctx, nis.EPR(), ActionReport, ReportRequest(proc("win-a", 0.9))); err != nil {
		t.Fatal(err)
	}
	procs, err := nis.Processors()
	if err != nil {
		t.Fatal(err)
	}
	if len(procs) != 1 {
		t.Fatalf("%d entries after re-report", len(procs))
	}
	if procs[0].Utilization != 0.9 {
		t.Fatalf("utilization = %v", procs[0].Utilization)
	}
}

func TestAsyncReportEventuallyVisible(t *testing.T) {
	nis, client := newNISHarness(t)
	ctx := context.Background()
	// One-way, the ongoing stream's shape.
	if err := ReportVia(ctx, client, nis.EPR(), proc("win-c", 0.5)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		procs, err := nis.Processors()
		if err != nil {
			t.Fatal(err)
		}
		if len(procs) == 1 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("one-way report never catalogued")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestReportValidation(t *testing.T) {
	nis, client := newNISHarness(t)
	ctx := context.Background()
	bad := ReportRequest(proc("win-a", 0.1))
	// Strip the member EPR.
	kept := bad.Children[:0]
	for _, c := range bad.Children {
		if c.Name != qES {
			kept = append(kept, c)
		}
	}
	bad.Children = kept
	if _, err := client.Call(ctx, nis.EPR(), ActionReport, bad); err == nil {
		t.Fatal("memberless report accepted")
	}
}

func TestGroupResourceQueryable(t *testing.T) {
	nis, client := newNISHarness(t)
	ctx := context.Background()
	if _, err := client.Call(ctx, nis.EPR(), ActionReport, ReportRequest(proc("win-a", 0))); err != nil {
		t.Fatal(err)
	}
	// The processors group is an ordinary WS-Resource: the standard
	// WSRF query interface works against it.
	rc := wsrf.NewResourceClient(client, nis.GroupEPR())
	matches, err := rc.Query(ctx, "/Entry/Content/Processor[Host='win-a']")
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 1 {
		t.Fatalf("query found %d", len(matches))
	}
}

// TestGridLoadRidesWithUtilization: the slot count a machine's utilization
// was computed from travels in the Report and comes back in every rendering
// of the catalog — the poll and the local read. A Report
// without the element, an older node's, is taken as it is and reads 0 (all
// of its load foreign); one that makes no sense is refused.
func TestGridLoadRidesWithUtilization(t *testing.T) {
	nis, client := newNISHarness(t)
	ctx := context.Background()
	busy := proc("win-a", 0.75)
	busy.GridLoad = 1
	old := ReportRequest(proc("win-b", 0.5))
	kept := old.Children[:0]
	for _, c := range old.Children {
		if c.Name != qGridLoad {
			kept = append(kept, c)
		}
	}
	if old.Children = kept; old.Child(qGridLoad) != nil || old.Child(qUtilization) == nil {
		t.Fatalf("harness: stripped report reads %s", old)
	}
	for _, body := range []*xmlutil.Element{ReportRequest(busy), old} {
		if _, err := client.Call(ctx, nis.EPR(), ActionReport, body); err != nil {
			t.Fatal(err)
		}
	}
	polled, err := GetProcessorsVia(ctx, client, nis.EPR())
	if err != nil {
		t.Fatal(err)
	}
	local, err := nis.Processors()
	if err != nil {
		t.Fatal(err)
	}
	for name, procs := range map[string][]Processor{"GetProcessors": polled, "Processors": local} {
		if len(procs) != 2 || procs[0].GridLoad != 1 || procs[0].Utilization != 0.75 || procs[1].GridLoad != 0 || procs[1].Utilization != 0.5 {
			t.Errorf("%s: %+v", name, procs)
		}
	}
	for _, text := range []string{"-1", "two"} {
		bad := ReportRequest(busy)
		bad.Child(qGridLoad).Text = text
		if _, err := client.Call(ctx, nis.EPR(), ActionReport, bad); err == nil {
			t.Errorf("a report with GridLoad %q was accepted", text)
		}
	}
}
