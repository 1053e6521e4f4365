package wsrf

import (
	"context"
	"testing"

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

func newGroupHarness(t *testing.T) (*Service, *ResourceClient) {
	t.Helper()
	store := resourcedb.NewStore()
	home := NewStateHome(store.MustTable("groups", resourcedb.BlobCodec{}))
	svc := MustService(ServiceConfig{Path: "/NodeInfo", Address: "inproc://master", Home: home})
	svc.Enable(ResourcePropertiesPortType{})

	mux := soap.NewMux()
	mux.Handle(svc.Path(), svc.Dispatcher())
	network := transport.NewNetwork()
	network.Register("master", transport.NewServer(mux))
	client := transport.NewClient().WithNetwork(network)

	epr, err := svc.CreateResource("processors", NewServiceGroupDocument())
	if err != nil {
		t.Fatal(err)
	}
	return svc, NewResourceClient(client, epr)
}

// add writes one entry into the harness's group, as its owning service
// does.
func add(t *testing.T, svc *Service, member wsa.EndpointReference, content *xmlutil.Element) (key string) {
	t.Helper()
	if err := svc.UpdateResource("processors", func(doc *xmlutil.Element) error {
		key = AddEntry(doc, member, content)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return key
}

// TestServiceGroupAddViaWire: a group's entries are written by the
// service that owns it, never by a client. A WS-ServiceGroup Add over the
// wire faults and leaves the group as it was.
func TestServiceGroupAddViaWire(t *testing.T) {
	svc, rc := newGroupHarness(t)
	add(t, svc, wsa.NewEPR("inproc://node-a/Utilization"), processorContent("10"))
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
	doc, err := svc.LoadResource("processors")
	if err != nil {
		t.Fatal(err)
	}
	entries, err := Entries(doc)
	if err != nil {
		t.Fatalf("the group no longer reads: %v", err)
	}
	if len(entries) != 1 || entries[0].Content.ChildText(qUtil) != "10" {
		t.Fatalf("entries after a refused Add: %+v", entries)
	}
}

func TestServiceGroupAddEntry(t *testing.T) {
	svc, _ := newGroupHarness(t)
	memberA := wsa.NewEPR("inproc://node-a/Utilization")
	memberB := wsa.NewEPR("inproc://node-b/Utilization")
	keyA := add(t, svc, memberA, processorContent("10"))
	keyB := add(t, svc, memberB, processorContent("90"))
	if keyA == "" || keyB == "" || keyA == keyB {
		t.Fatalf("keys %q %q", keyA, keyB)
	}

	doc, err := svc.LoadResource("processors")
	if err != nil {
		t.Fatal(err)
	}
	entries, err := Entries(doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("%d entries", len(entries))
	}
	if !entries[0].Member.Equal(memberA) || entries[0].Content.ChildText(qUtil) != "10" {
		t.Fatalf("entry[0] = %+v", entries[0])
	}
}

func TestServiceGroupReregistrationReplaces(t *testing.T) {
	svc, _ := newGroupHarness(t)
	member := wsa.NewEPR("inproc://node-a/Utilization")

	key1 := add(t, svc, member, processorContent("10"))
	key2 := add(t, svc, member, processorContent("55"))
	if key1 != key2 {
		t.Fatalf("re-registration minted new key: %q vs %q", key1, key2)
	}
	doc, _ := svc.LoadResource("processors")
	entries, _ := Entries(doc)
	if len(entries) != 1 {
		t.Fatalf("%d entries after re-registration", len(entries))
	}
	if entries[0].Content.ChildText(qUtil) != "55" {
		t.Fatalf("content not replaced: %v", entries[0].Content)
	}
}

func TestServiceGroupEntriesAreQueryable(t *testing.T) {
	svc, rc := newGroupHarness(t)
	ctx := context.Background()
	add(t, svc, wsa.NewEPR("inproc://node-a/U"), processorContent("10"))
	add(t, svc, wsa.NewEPR("inproc://node-b/U"), processorContent("90"))
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

func TestServiceGroupDocumentHelpers(t *testing.T) {
	doc := NewServiceGroupDocument()
	k1 := AddEntry(doc, wsa.NewEPR("inproc://a/U"), processorContent("1"))
	k2 := AddEntry(doc, wsa.NewEPR("inproc://b/U"), processorContent("2"))
	// Keys never collide, even after an entry leaving the document
	// shrinks the entry count.
	kept := doc.Children[:0]
	for _, c := range doc.Children {
		if c.Attr(qEntryKey) != k1 {
			kept = append(kept, c)
		}
	}
	doc.Children = kept
	k3 := AddEntry(doc, wsa.NewEPR("inproc://c/U"), nil)
	entries, err := Entries(doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 || entries[0].Key != k2 || entries[1].Key != k3 || k3 == k2 {
		t.Fatalf("entries after a removal and an add: %+v", entries)
	}
}
