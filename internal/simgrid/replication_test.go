package simgrid

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"uvacg/internal/procspawn"
	"uvacg/internal/services/filesystem"
	"uvacg/internal/services/scheduler"
	"uvacg/internal/wsa"
)

// waitReplicaHolders polls the replicator until a blob is known on at
// least n holders.
func waitReplicaHolders(t *testing.T, c *Cluster, hash string, n int, deadline time.Duration) []string {
	t.Helper()
	end := time.Now().Add(deadline)
	for {
		holders := c.Replicator().Holders(hash)
		if len(holders) >= n {
			return holders
		}
		if time.Now().After(end) {
			t.Fatalf("blob %.12s never reached %d holders (have %v)", hash, n, holders)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// fssHost extracts the machine name from an FSS service address
// ("inproc://node-2/FileSystemService" → "node-2").
func fssHost(addr string) string {
	rest := strings.TrimPrefix(addr, "inproc://")
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

// stageRecordFor finds the stage record a drill staging produced.
func stageRecordFor(c *Cluster, host, localName string) (filesystem.StageRecord, bool) {
	for _, rec := range c.StageRecords() {
		if rec.Host == host && rec.LocalName == localName {
			return rec, true
		}
	}
	return filesystem.StageRecord{}, false
}

// TestReplicaCrashMidStagingFallsBack is the I7 byte-identity drill: a
// job set's input is fanned out to two holders, one holder machine is
// killed, and a third machine then stages the same content listing the
// dead replica first. The pull-through must fall past the corpse to the
// surviving holder — and with every listed replica dead, all the way
// back to the origin wire fetch — installing byte-identical content
// either way.
func TestReplicaCrashMidStagingFallsBack(t *testing.T) {
	c, err := NewCluster(ClusterConfig{Seed: 5, Nodes: 4, DataDir: t.TempDir(), Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	data := bytes.Repeat([]byte("replicated payload "), 512)
	hash := filesystem.HashBytes(data)
	c.Observer.Files.Publish("run.app", procspawn.BuildScript("read in.dat", "exit 0"))
	c.Observer.Files.Publish("data.app", data)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_, err = c.Submit(ctx, &scheduler.JobSetSpec{Name: "seedset", Jobs: []scheduler.JobSpec{
		{Name: "a", Executable: "local://run.app",
			Inputs: []scheduler.FileSpec{{LocalName: "in.dat", Source: "local://data.app"}}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AwaitQuiescence(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	holders := waitReplicaHolders(t, c, hash, 2, 15*time.Second)

	// The staging machine is one holder; the fan-out target is the
	// victim. The two machines holding nothing run the drill stagings.
	holderHosts := make(map[string]bool, len(holders))
	for _, h := range holders {
		holderHosts[fssHost(h)] = true
	}
	var originHost string
	for _, rec := range c.StageRecords() {
		if rec.Hash == hash {
			originHost = rec.Host
			break
		}
	}
	if originHost == "" || !holderHosts[originHost] {
		t.Fatalf("staging machine %q not among holders %v", originHost, holders)
	}
	var victim string
	for h := range holderHosts {
		if h != originHost {
			victim = h
		}
	}
	var spares []string
	for _, name := range c.NodeNames() {
		if !holderHosts[name] {
			spares = append(spares, name)
		}
	}
	if victim == "" || len(spares) < 2 {
		t.Fatalf("unexpected layout: victim=%q spares=%v holders=%v", victim, spares, holders)
	}
	if err := c.CrashNode(victim); err != nil {
		t.Fatal(err)
	}

	victimFSS := wsa.NewEPR("inproc://" + victim + "/FileSystemService")
	originFSS := wsa.NewEPR("inproc://" + originHost + "/FileSystemService")
	stage := func(host, localName string, replicas []wsa.EndpointReference) {
		t.Helper()
		dir, err := filesystem.CreateDirectoryVia(ctx, c.Observer.client,
			wsa.NewEPR("inproc://"+host+"/FileSystemService"), "drill")
		if err != nil {
			t.Fatalf("create directory on %s: %v", host, err)
		}
		refs := []filesystem.FileRef{{
			Source: c.Observer.FilesEPR(), RemoteName: "data.app", LocalName: localName,
			Hash: hash, Size: int64(len(data)), Replicas: replicas,
		}}
		if _, err := c.Observer.client.Call(ctx, dir, filesystem.ActionUploadSync,
			filesystem.UploadRequest(wsa.EndpointReference{}, "", refs)); err != nil {
			t.Fatalf("stage on %s: %v", host, err)
		}
	}

	// Dead replica listed first: staging must fall through to the
	// surviving holder and arrive by pull-through.
	stage(spares[0], "in-pull.dat", []wsa.EndpointReference{victimFSS, originFSS})
	rec, ok := stageRecordFor(c, spares[0], "in-pull.dat")
	if !ok {
		t.Fatalf("no stage record on %s", spares[0])
	}
	if rec.Hash != hash {
		t.Fatalf("pull-through staged hash %.12s, want %.12s", rec.Hash, hash)
	}
	if rec.Route != filesystem.RoutePull {
		t.Fatalf("staging with a live replica listed arrived by %q, want %q", rec.Route, filesystem.RoutePull)
	}

	// Only the dead replica listed: staging must fall all the way back
	// to the origin wire fetch, still byte-identical.
	stage(spares[1], "in-wire.dat", []wsa.EndpointReference{victimFSS})
	rec, ok = stageRecordFor(c, spares[1], "in-wire.dat")
	if !ok {
		t.Fatalf("no stage record on %s", spares[1])
	}
	if rec.Hash != hash {
		t.Fatalf("wire-fallback staged hash %.12s, want %.12s", rec.Hash, hash)
	}
	if rec.Route != filesystem.RouteWire {
		t.Fatalf("staging with only a dead replica arrived by %q, want %q", rec.Route, filesystem.RouteWire)
	}
}

// TestReplicatorPartitionHealsAndJournalSurvivesCrash drives I7's
// durability half. First the broker→replicator delivery route is cut:
// the "stored" event for a completed set must vanish without a false
// ack (the replicator tracks nothing). After the heal, a later staging
// of the same content republishes, replication completes and holder
// sets are journaled. Then the master is crashed and restarted: the
// recovered replicator must still know every acked holder.
func TestReplicatorPartitionHealsAndJournalSurvivesCrash(t *testing.T) {
	c, err := NewCluster(ClusterConfig{Seed: 11, Nodes: 3, DataDir: t.TempDir(), Replicas: 2, DataAware: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	data := bytes.Repeat([]byte("durable payload "), 256)
	hash := filesystem.HashBytes(data)
	c.Observer.Files.Publish("run.app", procspawn.BuildScript("read in.dat", "exit 0"))
	c.Observer.Files.Publish("data.app", data)

	// Cut only the replica-consumer delivery path: job lifecycle events
	// and the scheduler's own replica subscription stay clean, so the
	// set completes normally — the replicator alone goes deaf.
	c.Chaos.SetTarget(MasterHost, "/ReplicaConsumer", TargetRule{Faults: RouteFaults{Drop: 1}})
	c.Chaos.Enable(true)

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	spec := func(name string) *scheduler.JobSetSpec {
		return &scheduler.JobSetSpec{Name: name, Jobs: []scheduler.JobSpec{
			{Name: "a", Executable: "local://run.app",
				Inputs: []scheduler.FileSpec{{LocalName: "in.dat", Source: "local://data.app"}}},
		}}
	}
	if _, err := c.Submit(ctx, spec("cutset")); err != nil {
		t.Fatal(err)
	}
	if err := c.AwaitQuiescence(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	time.Sleep(200 * time.Millisecond) // let any stray delivery retries drain
	if holders := c.Replicator().Holders(hash); len(holders) != 0 {
		t.Fatalf("partitioned replicator acked holders %v for a publish it never received", holders)
	}

	// Heal. The dropped event is gone for good — the replicator learns
	// from the next staging's republish, not from a replay.
	c.Chaos.ClearTarget(MasterHost, "/ReplicaConsumer")
	if _, err := c.Submit(ctx, spec("healset")); err != nil {
		t.Fatal(err)
	}
	if err := c.AwaitQuiescence(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	waitReplicaHolders(t, c, hash, 2, 15*time.Second)

	acked := c.AckedReplicas()
	if len(acked[hash]) < 2 {
		t.Fatalf("acked ledger has %v for blob %.12s, want ≥2 holders", acked[hash], hash)
	}

	c.CrashMaster()
	time.Sleep(50 * time.Millisecond)
	restartMaster(t, ctx, c)
	rep := c.Replicator()
	if rep == nil {
		t.Fatal("restarted master has no replicator")
	}
	have := make(map[string]bool)
	for _, h := range rep.Holders(hash) {
		have[h] = true
	}
	for _, holder := range acked[hash] {
		if !have[holder] {
			t.Fatalf("acked replica %s of blob %.12s lost across master crash (recovered: %v)",
				holder, hash, rep.Holders(hash))
		}
	}
}
