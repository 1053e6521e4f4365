package nodeinfo

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"uvacg/internal/resourcedb"
	"uvacg/internal/soap"
	"uvacg/internal/transport"
	"uvacg/internal/wsa"
	"uvacg/internal/wsrf"
	"uvacg/internal/xmlutil"
)

func newNISHarness(t *testing.T) (*Service, *transport.Client) {
	t.Helper()
	return newNISHarnessOver(t, resourcedb.NewTable("nodeinfo", resourcedb.BlobCodec{}))
}

// newNISHarnessOver is newNISHarness over a table of the test's own.
func newNISHarnessOver(t *testing.T, rows *resourcedb.Table) (*Service, *transport.Client) {
	t.Helper()
	nis, err := newService("inproc://master", rows)
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

	// A reply with a malformed row is refused, as a malformed Report is,
	// not read as a machine with no cores.
	reply := &xmlutil.Element{Name: qGetProcsResponse}
	for _, p := range procs {
		reply.Append(processorContent(p, p.UpdatedAt).Append(p.ES.ElementNamed(qES)))
	}
	reply.Children[1].Child(qCores).Text = "two"
	if got, err := parseProcessorElements(reply); err == nil {
		t.Fatalf("a reply whose second row has cores \"two\" decoded as %+v", got)
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
	if err := client.Notify(ctx, nis.EPR(), ActionReport, ReportRequest(proc("win-c", 0.5))); err != nil {
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

// TestAttemptsRideWithTheRenewal: a Report lists the attempts the machine
// runs, each renewal replacing the last one's, and GetProcessors hands them
// to the Scheduler as copies: its catalog keeps them past the message.
func TestAttemptsRideWithTheRenewal(t *testing.T) {
	nis, client := newNISHarness(t)
	ctx := context.Background()
	busy := proc("win-a", 0.5)
	for _, attempts := range [][]string{{"n1.1", "n1.2"}, {"n1.2", "n2.1"}} {
		busy.Attempts = attempts
		for _, p := range []Processor{busy, proc("win-b", 0)} {
			if _, err := client.Call(ctx, nis.EPR(), ActionReport, ReportRequest(p)); err != nil {
				t.Fatal(err)
			}
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
		if len(procs) != 2 || strings.Join(procs[0].Attempts, " ") != "n1.2 n2.1" || procs[1].Attempts != nil {
			t.Errorf("%s: %+v", name, procs)
		}
	}

	resp, err := nis.handleGetProcessors(ctx, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	data, err := xmlutil.MarshalElement(resp)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := xmlutil.UnmarshalElement(data)
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := parseProcessorElements(decoded)
	if err != nil {
		t.Fatal(err)
	}
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(data)))
	for _, a := range parsed[0].Attempts {
		if at := uintptr(unsafe.Pointer(unsafe.StringData(a))); at >= lo && at < lo+uintptr(len(data)) {
			t.Errorf("attempt %q points into the message it was parsed from", a)
		}
	}
}

// TestGenericAddCannotPoisonTheCatalog: Report is the group's one writer.
// A WS-ServiceGroup Add with no processor content, or the same entry
// written through SetResourceProperties, would make every GetProcessors
// fault for as long as the entry lived. Both are refused.
func TestGenericAddCannotPoisonTheCatalog(t *testing.T) {
	nis, client := newNISHarness(t)
	ctx := context.Background()
	if _, err := client.Call(ctx, nis.EPR(), ActionReport, ReportRequest(proc("win-a", 0.2))); err != nil {
		t.Fatal(err)
	}
	sg := func(local string) xmlutil.QName { return xmlutil.Q(wsrf.NSServiceGroup, local) }
	member := wsa.NewEPR("inproc://mallory/ExecutionService").ElementNamed(sg("MemberServiceEPR"))
	rp := func(local string) xmlutil.QName { return xmlutil.Q(wsrf.NSResourceProperties, local) }
	for action, body := range map[string]*xmlutil.Element{
		wsrf.NSServiceGroup + "/Add":     xmlutil.NewContainer(sg("Add"), member),
		wsrf.ActionSetResourceProperties: xmlutil.NewContainer(rp("SetResourceProperties"), xmlutil.NewContainer(rp("Insert"), xmlutil.NewContainer(sg("Entry"), member))),
	} {
		if _, err := client.Call(ctx, nis.GroupEPR(), action, body); err == nil {
			t.Errorf("%s to the processors group was accepted", action)
		}
	}
	procs, err := GetProcessorsVia(ctx, client, nis.EPR())
	if err != nil {
		t.Fatalf("GetProcessors after the refused writes: %v", err)
	}
	if len(procs) != 1 || procs[0].Host != "win-a" {
		t.Fatalf("catalog = %+v, want win-a alone", procs)
	}

	// A group that holds such an entry anyway faults once, with one
	// prefix.
	mallory := wsa.NewEPR("inproc://mallory/ExecutionService")
	if err := nis.WSRF().Renew(mallory.String(), wsrf.NewEntry(mallory, nil), time.Now().Add(time.Minute)); err != nil {
		t.Fatal(err)
	}
	_, err = GetProcessorsVia(ctx, client, nis.EPR())
	if err == nil || !strings.Contains(err.Error(), "nis: entry") || strings.Contains(err.Error(), "nis: nis:") {
		t.Fatalf("GetProcessors over an entry without content: %v", err)
	}
}

// groupAsBefore is the processors group's document, as the release that
// kept the whole group in one journaled row rendered it for three Reports,
// less each entry's key attribute (entry-1, entry-2, ...), and with every
// UpdatedAt read as "T".
const groupAsBefore = `<ServiceGroupRP xmlns="http://docs.oasis-open.org/wsrf/2004/06/wsrf-WS-ServiceGroup-1.2-draft-01.xsd">` +
	`<Entry><MemberServiceEPR><Address xmlns="http://schemas.xmlsoap.org/ws/2004/08/addressing">inproc://win-a/ExecutionService</Address></MemberServiceEPR>` +
	`<Content><Processor xmlns="urn:uvacg:nis"><Host>win-a</Host><Cores>2</Cores><SpeedMHz>2400</SpeedMHz><RAMMB>1024</RAMMB><Utilization>0.2500</Utilization><GridLoad>1</GridLoad><UpdatedAt>T</UpdatedAt></Processor></Content></Entry>` +
	`<Entry><MemberServiceEPR><Address xmlns="http://schemas.xmlsoap.org/ws/2004/08/addressing">inproc://win-b/ExecutionService</Address></MemberServiceEPR>` +
	`<Content><Processor xmlns="urn:uvacg:nis"><Host>win-b</Host><Cores>4</Cores><SpeedMHz>3200</SpeedMHz><RAMMB>4096</RAMMB><Utilization>0.5000</Utilization><GridLoad>0</GridLoad><UpdatedAt>T</UpdatedAt></Processor></Content></Entry>` +
	`<Entry><MemberServiceEPR><Address xmlns="http://schemas.xmlsoap.org/ws/2004/08/addressing">inproc://win-c/ExecutionService</Address></MemberServiceEPR>` +
	`<Content><Processor xmlns="urn:uvacg:nis"><Host>win-c</Host><Cores>2</Cores><SpeedMHz>2400</SpeedMHz><RAMMB>1024</RAMMB><Utilization>0.0000</Utilization><GridLoad>0</GridLoad><UpdatedAt>T</UpdatedAt></Processor></Content></Entry>` +
	`</ServiceGroupRP>`

// TestGroupDocumentReadsAsBefore: the group document assembled from the
// member rows lists the members and content the one-row group did. What
// it adds is each entry's termination time, one lease term after the
// Report that wrote it.
func TestGroupDocumentReadsAsBefore(t *testing.T) {
	nis, client := newNISHarness(t)
	ctx := context.Background()
	a := proc("win-a", 0.25)
	a.GridLoad = 1
	b := proc("win-b", 0.5)
	b.Cores, b.SpeedMHz, b.RAMMB = 4, 3200, 4096
	for _, p := range []Processor{a, b, proc("win-c", 0)} {
		if _, err := client.Call(ctx, nis.EPR(), ActionReport, ReportRequest(p)); err != nil {
			t.Fatal(err)
		}
	}
	doc, err := wsrf.NewResourceClient(client, nis.GroupEPR()).GetDocument(ctx)
	if err != nil {
		t.Fatal(err)
	}
	qEntry := xmlutil.Q(wsrf.NSServiceGroup, "Entry")
	for _, entry := range doc.ChildrenNamed(qEntry) {
		tt, ok := wsrf.TerminationTimeOf(entry)
		updated := entry.Child(xmlutil.Q(wsrf.NSServiceGroup, "Content")).Child(qProcessor).Child(qUpdatedAt)
		at, err := time.Parse(time.RFC3339Nano, updated.Text)
		if !ok || err != nil || tt.Sub(at) != leaseTerm {
			t.Errorf("entry %s: terminates at %v (set %v), updated at %q", entry, tt, ok, updated.Text)
		}
		updated.Text = "T"
		kept := entry.Children[:0]
		for _, c := range entry.Children {
			if c.Name != wsrf.QTerminationTime {
				kept = append(kept, c)
			}
		}
		entry.Children = kept
	}
	if got := doc.String(); got != groupAsBefore {
		t.Fatalf("group document:\n%s\nwant\n%s", got, groupAsBefore)
	}
}

// countingCodec is the blob codec, counting the bytes it encodes and
// decodes.
type countingCodec struct {
	resourcedb.BlobCodec
	encoded, decoded *atomic.Int64
}

func (c countingCodec) Encode(doc *xmlutil.Element) ([]byte, error) {
	data, err := c.BlobCodec.Encode(doc)
	c.encoded.Add(int64(len(data)))
	return data, err
}

func (c countingCodec) Decode(data []byte) (*xmlutil.Element, error) {
	c.decoded.Add(int64(len(data)))
	return c.BlobCodec.Decode(data)
}

// TestReportCostIsFlatInMembers: a Report encodes its member's row once
// and decodes nothing, at 16 members as at 256. When the group was one
// document, each Report decoded and re-encoded every member's entry. (A
// row's own size moves by a byte or two with its timestamps, so each is
// measured against itself.)
func TestReportCostIsFlatInMembers(t *testing.T) {
	type cost struct{ encoded, decoded, row int64 }
	perReport := func(members int) cost {
		codec := countingCodec{encoded: new(atomic.Int64), decoded: new(atomic.Int64)}
		nis, client := newNISHarnessOver(t, resourcedb.NewTable("nodeinfo", codec))
		ctx := context.Background()
		for i := 0; i < members; i++ {
			if _, err := client.Call(ctx, nis.EPR(), ActionReport, ReportRequest(proc(fmt.Sprintf("node-%03d", i), 0.5))); err != nil {
				t.Fatal(err)
			}
		}
		codec.encoded.Store(0)
		codec.decoded.Store(0)
		p := proc("node-007", 0.25)
		if _, err := client.Call(ctx, nis.EPR(), ActionReport, ReportRequest(p)); err != nil {
			t.Fatal(err)
		}
		c := cost{encoded: codec.encoded.Load(), decoded: codec.decoded.Load()}
		row, err := nis.WSRF().LoadResource(p.ES.String())
		if err != nil {
			t.Fatal(err)
		}
		data, err := resourcedb.BlobCodec{}.Encode(row)
		if err != nil {
			t.Fatal(err)
		}
		c.row = int64(len(data))
		return c
	}
	for _, members := range []int{16, 256} {
		if c := perReport(members); c.encoded != c.row || c.decoded != 0 {
			t.Errorf("%d members: a Report encoded %d bytes and decoded %d, want its one %d-byte row and nothing", members, c.encoded, c.decoded, c.row)
		}
	}
}

// TestSilentMemberLeavesTheCatalog: a member's entry lives one lease term
// past its last Report. A member that keeps reporting stays listed; one
// that falls silent is destroyed by its own timer, and GetProcessors,
// which filters nothing, stops listing it.
func TestSilentMemberLeavesTheCatalog(t *testing.T) {
	nis, client := newNISHarness(t)
	nis.lease = 60 * time.Millisecond
	ctx := context.Background()
	report := func(host string) {
		t.Helper()
		if _, err := client.Call(ctx, nis.EPR(), ActionReport, ReportRequest(proc(host, 0.1))); err != nil {
			t.Fatal(err)
		}
	}
	report("win-a")
	report("win-b")
	silentSince := time.Now()
	for deadline := silentSince.Add(5 * time.Second); ; time.Sleep(nis.lease / 4) {
		report("win-b") // renews within every lease term
		procs, err := GetProcessorsVia(ctx, client, nis.EPR())
		if err != nil {
			t.Fatal(err)
		}
		if len(procs) == 1 && procs[0].Host == "win-b" {
			break
		}
		if len(procs) != 2 || time.Now().After(deadline) {
			t.Fatalf("catalog %+v, %v after win-a fell silent", procs, time.Since(silentSince))
		}
	}
	if gone := time.Since(silentSince); gone < nis.lease {
		t.Fatalf("win-a left the catalog %v after its last Report, inside its lease of %v", gone, nis.lease)
	}
	report("win-a") // a member that comes back is listed again
	if procs, err := nis.Processors(); err != nil || len(procs) != 2 {
		t.Fatalf("catalog after win-a came back: %+v, %v", procs, err)
	}
}

// TestEmptyCatalogAnswersAtOnce: GetProcessors on a NIS that has heard
// from nobody returns an empty list without waiting for a renewal; only
// the Scheduler's dispatch waits.
func TestEmptyCatalogAnswersAtOnce(t *testing.T) {
	nis, client := newNISHarness(t)
	start := time.Now()
	procs, err := GetProcessorsVia(context.Background(), client, nis.EPR())
	if err != nil || len(procs) != 0 {
		t.Fatalf("empty catalog: %+v, %v", procs, err)
	}
	if took := time.Since(start); took > RenewEvery/2 {
		t.Fatalf("GetProcessors on an empty catalog took %v", took)
	}
}
