package nodeinfo

import (
	"context"
	"testing"
	"time"

	"uvacg/internal/resourcedb"
	"uvacg/internal/soap"
	"uvacg/internal/transport"
	"uvacg/internal/wsa"
	"uvacg/internal/wsn"
	"uvacg/internal/wsrf"
	"uvacg/internal/xmlutil"
)

// TestCatalogChangedRoundTrip: the catalog-changed payload carries the
// full processor list losslessly.
func TestCatalogChangedRoundTrip(t *testing.T) {
	in := []Processor{proc("win-a", 0.25), proc("win-b", 0.75)}
	in[0].UpdatedAt = time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC)
	msg := CatalogChangedMessage(in, 7)
	out, err := ParseCatalogChanged(msg)
	if err != nil {
		t.Fatal(err)
	}
	if v := CatalogVersion(msg); v != 7 {
		t.Fatalf("version %d, want 7", v)
	}
	// A peer from before versions stamps none: it reads as 0 and the
	// processors still parse.
	msg.Children = msg.Children[1:]
	if old, err := ParseCatalogChanged(msg); err != nil || len(old) != 2 || CatalogVersion(msg) != 0 {
		t.Fatalf("unversioned payload: %d processors, version %d, err %v", len(old), CatalogVersion(msg), err)
	}
	if len(out) != 2 {
		t.Fatalf("%d processors", len(out))
	}
	for i := range in {
		if out[i].Host != in[i].Host || out[i].Utilization != in[i].Utilization ||
			out[i].Cores != in[i].Cores || out[i].ES.Address != in[i].ES.Address {
			t.Fatalf("processor %d: %+v vs %+v", i, out[i], in[i])
		}
	}
	if !out[0].UpdatedAt.Equal(in[0].UpdatedAt) {
		t.Fatalf("timestamp %v vs %v", out[0].UpdatedAt, in[0].UpdatedAt)
	}
	if _, err := ParseCatalogChanged(xmlutil.NewElement(xmlutil.Q(NS, "SomethingElse"), "")); err == nil {
		t.Fatal("non-catalog payload parsed")
	}
}

// TestReportPublishesCatalogChanged: a broker-wired NIS turns every
// ingested utilization report into a catalog-changed notification that a
// subscribed consumer can decode back into the processor list.
func TestReportPublishesCatalogChanged(t *testing.T) {
	network := transport.NewNetwork()
	client := transport.NewClient().WithNetwork(network)
	store := resourcedb.NewStore()

	broker, err := wsn.NewBroker("/NB", "inproc://master",
		wsrf.NewStateHome(store.MustTable("subs", resourcedb.BlobCodec{})), client)
	if err != nil {
		t.Fatal(err)
	}
	nis, err := New(Config{
		Address: "inproc://master",
		Home:    wsrf.NewStateHome(store.MustTable("nis", resourcedb.BlobCodec{})),
		Client:  client,
		Broker:  broker.EPR(),
	})
	if err != nil {
		t.Fatal(err)
	}
	mux := soap.NewMux()
	mux.Handle(broker.Service().Path(), broker.Service().Dispatcher())
	mux.Handle(broker.Producer().SubscriptionService().Path(), broker.Producer().SubscriptionService().Dispatcher())
	mux.Handle(nis.WSRF().Path(), nis.WSRF().Dispatcher())
	network.Register("master", transport.NewServer(mux))

	consumer := wsn.NewConsumer()
	ch := consumer.Channel(wsn.MustTopicExpression(wsn.DialectFull, "*//"), 16)
	clientMux := soap.NewMux()
	consumer.Mount(clientMux, "/listener")
	network.Register("client", transport.NewServer(clientMux))

	ctx := context.Background()
	if _, err := wsn.SubscribeVia(ctx, client, broker.EPR(),
		wsa.NewEPR("inproc://client/listener"), wsn.Simple(CatalogTopic)); err != nil {
		t.Fatal(err)
	}

	if _, err := client.Call(ctx, nis.EPR(), ActionReport, ReportRequest(proc("win-a", 0.4))); err != nil {
		t.Fatal(err)
	}

	select {
	case n := <-ch:
		if n.Topic != CatalogTopic+"/changed" {
			t.Fatalf("topic %q", n.Topic)
		}
		procs, err := ParseCatalogChanged(n.Message)
		if err != nil {
			t.Fatal(err)
		}
		if len(procs) != 1 || procs[0].Host != "win-a" || procs[0].Utilization != 0.4 {
			t.Fatalf("pushed catalog %+v", procs)
		}
		if v := CatalogVersion(n.Message); v != 1 {
			t.Fatalf("first change pushed at version %d, want 1", v)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no catalog-changed notification delivered")
	}
	if nis.CatalogPublishes() < 1 {
		t.Fatalf("CatalogPublishes = %d", nis.CatalogPublishes())
	}

	// Every change of the group bumps the version, inside the update that
	// makes it, and a poll reads processors and version from one load.
	for i, util := range []float64{0.5, 0.6} {
		if _, err := client.Call(ctx, nis.EPR(), ActionReport, ReportRequest(proc("win-b", util))); err != nil {
			t.Fatal(err)
		}
		procs, version, err := GetCatalogVia(ctx, client, nis.EPR())
		if err != nil {
			t.Fatal(err)
		}
		if version != int64(2+i) || len(procs) != 2 || procs[1].Utilization != util {
			t.Fatalf("after report %d: version %d, catalog %+v", i, version, procs)
		}
	}
	// The version lives in the group document: a NIS restarted over the
	// same home carries on from it.
	again, err := New(Config{Address: "inproc://master", Home: nis.WSRF().Home()})
	if err != nil {
		t.Fatal(err)
	}
	if _, v, err := again.catalog(); err != nil || v != 3 {
		t.Fatalf("restarted NIS stands at version %d (err %v), want 3", v, err)
	}
}

// TestPullOnlyNISDoesNotPublish: without a broker wiring, reports are
// catalogued but nothing is published.
func TestPullOnlyNISDoesNotPublish(t *testing.T) {
	nis, client := newNISHarness(t)
	if _, err := client.Call(context.Background(), nis.EPR(), ActionReport, ReportRequest(proc("win-a", 0.1))); err != nil {
		t.Fatal(err)
	}
	if n := nis.CatalogPublishes(); n != 0 {
		t.Fatalf("pull-only NIS published %d catalogs", n)
	}
}
