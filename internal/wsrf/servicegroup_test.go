package wsrf

import (
	"context"
	"testing"
	"time"

	"uvacg/internal/resourcedb"
	"uvacg/internal/soap"
	"uvacg/internal/transport"
	"uvacg/internal/wsa"
	"uvacg/internal/xmlutil"
)

var (
	qProcessor = xmlutil.Q("urn:uvacg:nis", "Processor")
	qUtil      = xmlutil.Q("urn:uvacg:nis", "Utilization")
)

func processorContent(util string) *xmlutil.Element {
	return xmlutil.NewContainer(qProcessor, xmlutil.NewElement(qUtil, util))
}

// lease is how far ahead the harness's entries terminate unless a test
// says otherwise.
const lease = time.Minute

func newGroupHarness(t *testing.T) (*Service, *ResourceClient) {
	t.Helper()
	store := resourcedb.NewStore()
	home := NewGroupHome("processors", store.MustTable("groups", resourcedb.BlobCodec{}))
	svc := MustService(ServiceConfig{Path: "/NodeInfo", Address: "inproc://master", Home: home})
	svc.Enable(ResourcePropertiesPortType{})

	mux := soap.NewMux()
	mux.Handle(svc.Path(), svc.Dispatcher())
	network := transport.NewNetwork()
	network.Register("master", transport.NewServer(mux))
	client := transport.NewClient().WithNetwork(network)
	return svc, NewResourceClient(client, svc.EPRFor("processors"))
}

// add renews one member's entry in the harness's group, as its owning
// service does, terminating after d.
func add(t *testing.T, svc *Service, member wsa.EndpointReference, content *xmlutil.Element, d time.Duration) {
	t.Helper()
	if err := svc.Renew(member.String(), NewEntry(member, content), time.Now().Add(d)); err != nil {
		t.Fatal(err)
	}
}

// entries reads the group as its owning service does.
func entries(t *testing.T, svc *Service) []Entry {
	t.Helper()
	doc, err := svc.LoadResource("processors")
	if err != nil {
		t.Fatal(err)
	}
	entries, err := Entries(doc)
	if err != nil {
		t.Fatalf("the group no longer reads: %v", err)
	}
	return entries
}

// TestServiceGroupAddViaWire: a group's entries are written by the
// service that owns it, never by a client. A WS-ServiceGroup Add over the
// wire faults and leaves the group as it was.
func TestServiceGroupAddViaWire(t *testing.T) {
	svc, rc := newGroupHarness(t)
	add(t, svc, wsa.NewEPR("inproc://node-a/Utilization"), processorContent("10"), lease)
	sg := func(local string) xmlutil.QName { return xmlutil.Q(NSServiceGroup, local) }
	for _, req := range []*xmlutil.Element{
		xmlutil.NewContainer(sg("Add")),
		xmlutil.NewContainer(sg("Add"), wsa.NewEPR("inproc://mallory/Utilization").ElementNamed(qMemberEPR), xmlutil.NewContainer(qContent)),
	} {
		_, err := rc.c.Call(context.Background(), rc.EPR(), NSServiceGroup+"/Add", req)
		if _, ok := soap.AsFault(err); !ok {
			t.Fatalf("want fault, got %v", err)
		}
	}
	if got := entries(t, svc); len(got) != 1 || got[0].Content.ChildText(qUtil) != "10" {
		t.Fatalf("entries after a refused Add: %+v", got)
	}
}

// TestServiceGroupAddEntry: each member is a row of its own, and the
// group's document lists every row, each with its termination time.
func TestServiceGroupAddEntry(t *testing.T) {
	svc, _ := newGroupHarness(t)
	memberA := wsa.NewEPR("inproc://node-a/Utilization")
	memberB := wsa.NewEPR("inproc://node-b/Utilization")
	add(t, svc, memberA, processorContent("10"), lease)
	add(t, svc, memberB, processorContent("90"), lease)

	got := entries(t, svc)
	if len(got) != 2 {
		t.Fatalf("%d entries", len(got))
	}
	if !got[0].Member.Equal(memberA) || got[0].Content.ChildText(qUtil) != "10" {
		t.Fatalf("entry[0] = %+v", got[0])
	}
	row, err := svc.LoadResource(memberB.String())
	if err != nil {
		t.Fatal(err)
	}
	if tt, ok := TerminationTimeOf(row); !ok || time.Until(tt) < lease/2 {
		t.Fatalf("member B's row terminates at %v (set %v)", tt, ok)
	}
	if ids := svc.Home().IDs(); len(ids) != 3 || ids[0] != "processors" {
		t.Fatalf("home IDs = %v, want the group and two entries", ids)
	}
}

// TestServiceGroupReregistrationReplaces: a renewal replaces the member's
// row whole, content and termination time alike.
func TestServiceGroupReregistrationReplaces(t *testing.T) {
	svc, _ := newGroupHarness(t)
	member := wsa.NewEPR("inproc://node-a/Utilization")

	add(t, svc, member, processorContent("10"), lease)
	add(t, svc, member, processorContent("55"), 2*lease)
	got := entries(t, svc)
	if len(got) != 1 {
		t.Fatalf("%d entries after re-registration", len(got))
	}
	if got[0].Content.ChildText(qUtil) != "55" {
		t.Fatalf("content not replaced: %v", got[0].Content)
	}
	row, err := svc.LoadResource(member.String())
	if err != nil {
		t.Fatal(err)
	}
	if n := len(row.ChildrenNamed(QTerminationTime)); n != 1 {
		t.Fatalf("the renewed row holds %d termination times", n)
	}
	if tt, _ := TerminationTimeOf(row); time.Until(tt) < lease {
		t.Fatalf("the renewal did not move the termination time: %v", tt)
	}
}

// TestServiceGroupEntryExpires: an entry whose member stops renewing is
// destroyed by its own timer and leaves the group; one that keeps
// renewing stays. Nothing filters on read.
func TestServiceGroupEntryExpires(t *testing.T) {
	svc, _ := newGroupHarness(t)
	silent := wsa.NewEPR("inproc://node-a/Utilization")
	renewing := wsa.NewEPR("inproc://node-b/Utilization")
	const short = 30 * time.Millisecond
	add(t, svc, silent, processorContent("10"), short)
	add(t, svc, renewing, processorContent("20"), short)
	deadline := time.Now().Add(5 * time.Second)
	for svc.Home().Exists(silent.String()) {
		if time.Now().After(deadline) {
			t.Fatal("the silent member's entry never expired")
		}
		add(t, svc, renewing, processorContent("20"), short)
		time.Sleep(short / 3)
	}
	if got := entries(t, svc); len(got) != 1 || !got[0].Member.Equal(renewing) {
		t.Fatalf("entries after one member went silent: %+v", got)
	}
}

func TestServiceGroupEntriesAreQueryable(t *testing.T) {
	svc, rc := newGroupHarness(t)
	ctx := context.Background()
	add(t, svc, wsa.NewEPR("inproc://node-a/U"), processorContent("10"), lease)
	add(t, svc, wsa.NewEPR("inproc://node-b/U"), processorContent("90"), lease)
	// The Entry elements are resource properties: query them like any
	// other state (this is how the Scheduler could find idle nodes).
	matches, err := rc.Query(ctx, "/Entry/Content/Processor[Utilization='10']")
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 1 {
		t.Fatalf("query found %d idle processors", len(matches))
	}
}

// TestServiceGroupDocumentHelpers: Entries reads back what NewEntry
// wrote, an entry without content included, and the group resource
// itself is read-only.
func TestServiceGroupDocumentHelpers(t *testing.T) {
	doc := NewServiceGroupDocument()
	doc.Append(NewEntry(wsa.NewEPR("inproc://a/U"), processorContent("1")))
	doc.Append(NewEntry(wsa.NewEPR("inproc://b/U"), nil))
	got, err := Entries(doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Member.Address != "inproc://a/U" || got[0].Content.ChildText(qUtil) != "1" || got[1].Content != nil {
		t.Fatalf("entries = %+v", got)
	}
	svc, _ := newGroupHarness(t)
	if err := svc.UpdateResource("processors", func(*xmlutil.Element) error { return nil }); err == nil {
		t.Fatal("the assembled group document was saved")
	}
}
