package filesystem

import (
	"bytes"
	"context"
	"testing"

	"uvacg/internal/resourcedb"
	"uvacg/internal/soap"
	"uvacg/internal/transport"
	"uvacg/internal/vfs"
	"uvacg/internal/wsa"
	"uvacg/internal/wsn"
	"uvacg/internal/wsrf"
)

func TestBlobReadAndReplicateBetweenMachines(t *testing.T) {
	h := newFSSHarness(t)
	ctx := context.Background()
	content := []byte("content-addressed payload")
	hash := HashBytes(content)

	dir, err := CreateDirectoryVia(ctx, h.client, h.fssA.EPR(), "out")
	if err != nil {
		t.Fatal(err)
	}
	// A direct write records the blob under its content address.
	if err := WriteFile(ctx, h.client, dir, "f", content); err != nil {
		t.Fatal(err)
	}
	if !h.fssA.HasBlob(hash) {
		t.Fatal("write did not record the content-addressed blob")
	}
	got, err := FetchBlob(ctx, h.client, h.fssA.EPR(), hash)
	if err != nil || !bytes.Equal(got.Bytes(), content) {
		t.Fatalf("FetchBlob: %v %v", got, err)
	}
	if _, err := FetchBlob(ctx, h.client, h.fssA.EPR(), HashBytes([]byte("other"))); err == nil {
		t.Fatal("unknown hash served")
	}

	// Replicate onto machine B, sourcing from A.
	held, err := ReplicateVia(ctx, h.client, h.fssB.EPR(), []BlobRef{
		{Hash: hash, Size: int64(len(content)), Sources: []string{h.fssA.EPR().Address}},
	})
	if err != nil || len(held) != 1 || held[0] != hash {
		t.Fatalf("ReplicateVia: %v %v", held, err)
	}
	if !h.fssB.HasBlob(hash) {
		t.Fatal("replica target does not hold the blob")
	}
	got, err = FetchBlob(ctx, h.client, h.fssB.EPR(), hash)
	if err != nil || !bytes.Equal(got.Bytes(), content) {
		t.Fatalf("FetchBlob from replica: %v %v", got, err)
	}
	// Replicating again is an idempotent ack, not a second transfer.
	held, err = ReplicateVia(ctx, h.client, h.fssB.EPR(), []BlobRef{
		{Hash: hash, Size: int64(len(content)), Sources: []string{h.fssA.EPR().Address}},
	})
	if err != nil || len(held) != 1 || held[0] != hash {
		t.Fatalf("repeat ReplicateVia: %v %v", held, err)
	}
}

// TestStagePullThroughPrefersReplicaOverWire: a staging FSS given a
// content hash and replica list must pull the blob from a replica (and
// serve a repeat staging from its own cache) without ever touching the
// origin endpoint — here the origin is a dead address, so any wire
// attempt fails the test by construction.
func TestStagePullThroughPrefersReplicaOverWire(t *testing.T) {
	network := transport.NewNetwork()
	client := transport.NewClient().WithNetwork(network)
	var stages []StageRecord
	mkNode := func(host string, onStage func(StageRecord)) *Service {
		store := resourcedb.NewStore()
		svc, err := New(Config{
			Address: "inproc://" + host,
			FS:      vfs.New(),
			Client:  client,
			Home:    wsrf.NewStateHome(store.MustTable("dirs", resourcedb.StructuredCodec{})),
			Host:    host,
			OnStage: onStage,
		})
		if err != nil {
			t.Fatal(err)
		}
		mux := soap.NewMux()
		mux.Handle(svc.WSRF().Path(), svc.WSRF().Dispatcher())
		network.Register(host, transport.NewServer(mux))
		return svc
	}
	holder := mkNode("holder", nil)
	stager := mkNode("stager", func(rec StageRecord) { stages = append(stages, rec) })

	ctx := context.Background()
	content := bytes.Repeat([]byte("blob "), 100)
	hash := HashBytes(content)
	srcDir, err := CreateDirectoryVia(ctx, client, holder.EPR(), "seed")
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(ctx, client, srcDir, "seed.dat", content); err != nil {
		t.Fatal(err)
	}

	dead := wsa.NewEPR("inproc://ghost/files")
	stage := func(localName string) {
		t.Helper()
		dir, err := CreateDirectoryVia(ctx, client, stager.EPR(), "work")
		if err != nil {
			t.Fatal(err)
		}
		refs := []FileRef{{
			Source: dead, RemoteName: "seed.dat", LocalName: localName,
			Hash: hash, Size: int64(len(content)),
			Replicas: []wsa.EndpointReference{holder.EPR()},
		}}
		if _, err := client.Call(ctx, dir, ActionUploadSync, UploadRequest(wsa.EndpointReference{}, "", refs)); err != nil {
			t.Fatalf("stage %s: %v", localName, err)
		}
	}

	stage("first.dat")
	if len(stages) != 1 || stages[0].Route != RoutePull || stages[0].Hash != hash {
		t.Fatalf("first staging: %+v", stages)
	}
	// The pull-through cached the blob: the second staging is local.
	stage("second.dat")
	if len(stages) != 2 || stages[1].Route != RouteBlob || stages[1].Hash != hash {
		t.Fatalf("second staging: %+v", stages[1:])
	}
	st := stager.StageStats()
	if st.PullThroughs != 1 || st.BlobHits != 1 || st.WireFetches != 0 {
		t.Fatalf("stage stats: %+v", st)
	}
}

// TestReplicatorJournalRecovery: holder sets merged from replica events
// are journaled and a fresh replicator over the same journal recovers
// them — the acked-replica durability I7 leans on, without a network.
func TestReplicatorJournalRecovery(t *testing.T) {
	store := resourcedb.NewStore()
	journal := store.MustTable("replicas", resourcedb.BlobCodec{})
	hash := HashBytes([]byte("durable"))
	var acks [][]string
	r1 := NewReplicator(ReplicatorConfig{
		Address: "inproc://master",
		Journal: journal,
		OnAck:   func(_ string, holders []string) { acks = append(acks, holders) },
	})

	msg, err := ReplicaChangedMessage(ReplicaChanged{
		Kind: ReplicaReplicated,
		Manifest: Manifest{Entries: []ManifestEntry{
			{Name: "f", Size: 7, Hash: hash},
		}},
		Holders: map[string][]string{hash: {
			"inproc://node-1/FileSystemService",
			"inproc://node-2/FileSystemService",
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// "replicated" events merge and journal but never fan out, so no
	// client or NIS is needed.
	r1.onNotification(context.Background(), wsn.Notification{Topic: replicaChangedTopic, Message: msg})

	want := []string{"inproc://node-1/FileSystemService", "inproc://node-2/FileSystemService"}
	got := r1.Holders(hash)
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("holders after merge: %v", got)
	}
	if len(acks) != 1 || len(acks[0]) != 2 {
		t.Fatalf("acks: %v", acks)
	}
	if st := r1.Stats(); st.Acked != 1 || st.Tracked != 1 || st.Fanouts != 0 {
		t.Fatalf("stats: %+v", st)
	}

	// A fresh incarnation over the same journal knows everything.
	r2 := NewReplicator(ReplicatorConfig{Address: "inproc://master", Journal: journal})
	got = r2.Holders(hash)
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("holders after recovery: %v", got)
	}
	r2.mu.Lock()
	size := r2.sizes[hash]
	r2.mu.Unlock()
	if size != 7 {
		t.Fatalf("recovered size = %d", size)
	}
}

func TestReplicatorWantRaisesTarget(t *testing.T) {
	r := NewReplicator(ReplicatorConfig{Address: "inproc://master", Replicas: 2})
	ctx := context.Background()
	r.onNotification(ctx, wsn.Notification{Topic: ReplicaWantTopic, Message: ReplicaWantMessage(5)})
	r.mu.Lock()
	after := r.replicas
	r.mu.Unlock()
	if after != 5 {
		t.Fatalf("want 5 did not raise target: %d", after)
	}
	// A smaller hint never lowers the target.
	r.onNotification(ctx, wsn.Notification{Topic: ReplicaWantTopic, Message: ReplicaWantMessage(1)})
	r.mu.Lock()
	after = r.replicas
	r.mu.Unlock()
	if after != 5 {
		t.Fatalf("want 1 lowered target to %d", after)
	}
}
