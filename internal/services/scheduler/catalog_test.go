package scheduler

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"uvacg/internal/procspawn"
	"uvacg/internal/services/nodeinfo"
	"uvacg/internal/wsa"
	"uvacg/internal/wsn"
	"uvacg/internal/wsrf"
)

func catProc(host string) nodeinfo.Processor {
	return nodeinfo.Processor{
		Host:     host,
		ES:       wsa.NewEPR("inproc://" + host + "/ExecutionService"),
		Cores:    2,
		SpeedMHz: 2000,
		RAMMB:    1024,
	}
}

// pushCatalog feeds the scheduler a catalog-changed notification the way
// the broker would deliver it, from a NIS that stamps no version.
func pushCatalog(s *Service, hosts ...string) { pushCatalogAt(s, 0, hosts...) }

// pushCatalogAt is pushCatalog for a catalog at a version.
func pushCatalogAt(s *Service, version int64, hosts ...string) {
	procs := make([]nodeinfo.Processor, 0, len(hosts))
	for _, h := range hosts {
		procs = append(procs, catProc(h))
	}
	s.onNotification(context.Background(), wsn.Notification{
		Topic:   nodeinfo.CatalogTopic + "/changed",
		Message: nodeinfo.CatalogChangedMessage(procs, version),
	})
}

// TestCatalogKeepsHighestVersion: one-way pushes overtake each other, so
// versions arrive 3, 1, 2 — and 3 must stand, not whichever landed last.
// Once the cache has gone stale any version is taken again: a NIS that
// lost its counter must not be ignored for ever.
func TestCatalogKeepsHighestVersion(t *testing.T) {
	h := newSSHarness(t, RoundRobin{}, nil)
	ctx := context.Background()
	pushCatalogAt(h.ss, 3, "v3")
	pushCatalogAt(h.ss, 1, "v1")
	pushCatalogAt(h.ss, 2, "v2")
	procs, err := h.ss.processors(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(procs) != 1 || procs[0].Host != "v3" {
		t.Fatalf("after versions 3, 1, 2 the cache holds %+v, want v3", procs)
	}
	if polls, pushes := h.ss.CatalogStats(); polls != 0 || pushes != 1 {
		t.Fatalf("polls=%d pushes=%d, want 0 polls and 1 push applied", polls, pushes)
	}
	// The same version again (the broker redelivers) refreshes, a newer
	// one replaces.
	pushCatalogAt(h.ss, 3, "v3")
	pushCatalogAt(h.ss, 4, "v4")
	if procs, _ := h.ss.processors(ctx); len(procs) != 1 || procs[0].Host != "v4" {
		t.Fatalf("version 4 did not replace 3: %+v", procs)
	}

	h.ss.catalogTTL = 20 * time.Millisecond
	time.Sleep(30 * time.Millisecond)
	pushCatalogAt(h.ss, 1, "restarted")
	if procs, _ := h.ss.processors(ctx); len(procs) != 1 || procs[0].Host != "restarted" {
		t.Fatalf("stale cache refused a restarted NIS's version 1: %+v", procs)
	}
}

// TestCatalogPushFeedsDispatch: a pushed catalog satisfies the dispatch
// path without any NIS poll.
func TestCatalogPushFeedsDispatch(t *testing.T) {
	h := newSSHarness(t, RoundRobin{}, nil)
	pushCatalog(h.ss, "pushed")
	procs, err := h.ss.processors(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(procs) != 1 || procs[0].Host != "pushed" {
		t.Fatalf("procs = %+v", procs)
	}
	if polls, pushes := h.ss.CatalogStats(); polls != 0 || pushes != 1 {
		t.Fatalf("polls=%d pushes=%d, want 0/1", polls, pushes)
	}
}

// TestCatalogStaleCacheFallsBackToPoll: once the TTL lapses the cache is
// distrusted and the next read polls the NIS; the poll's result re-primes
// the cache so the read after that is free again.
func TestCatalogStaleCacheFallsBackToPoll(t *testing.T) {
	h := newSSHarness(t, RoundRobin{}, nil, "node-a")
	h.ss.catalogTTL = 30 * time.Millisecond
	pushCatalog(h.ss, "pushed")
	time.Sleep(50 * time.Millisecond)

	ctx := context.Background()
	procs, err := h.ss.processors(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(procs) != 1 || procs[0].Host != "node-a" {
		t.Fatalf("stale cache served instead of poll: %+v", procs)
	}
	if polls, _ := h.ss.CatalogStats(); polls != 1 {
		t.Fatalf("polls = %d, want 1", polls)
	}
	// The poll re-primed the cache: an immediate second read is free.
	if _, err := h.ss.processors(ctx); err != nil {
		t.Fatal(err)
	}
	if polls, _ := h.ss.CatalogStats(); polls != 1 {
		t.Fatalf("fresh cache polled again (polls = %d)", polls)
	}
}

// TestCatalogPollFailureServesStale: when the TTL has lapsed AND the NIS
// poll fails, dispatch runs on the stale catalog rather than failing the
// job — old load data beats no dispatch at all.
func TestCatalogPollFailureServesStale(t *testing.T) {
	h := newSSHarness(t, RoundRobin{}, nil)
	h.ss.nis = wsa.NewEPR("inproc://ghost/NodeInfoService")
	h.ss.catalogTTL = 10 * time.Millisecond
	pushCatalog(h.ss, "pushed")
	time.Sleep(20 * time.Millisecond)

	procs, err := h.ss.processors(context.Background())
	if err != nil {
		t.Fatalf("stale cache not served: %v", err)
	}
	if len(procs) != 1 || procs[0].Host != "pushed" {
		t.Fatalf("procs = %+v", procs)
	}
	if polls, _ := h.ss.CatalogStats(); polls != 1 {
		t.Fatalf("polls = %d, want 1 (the failed attempt)", polls)
	}
}

// TestCatalogDisabledAlwaysPolls: a negative TTL turns the cache off —
// pushes are discarded and every read is a fresh poll, the paper's
// literal Fig. 3 step 2.
func TestCatalogDisabledAlwaysPolls(t *testing.T) {
	h := newSSHarness(t, RoundRobin{}, nil, "node-a")
	h.ss.catalogTTL = -1
	pushCatalog(h.ss, "pushed")

	ctx := context.Background()
	for i := 0; i < 2; i++ {
		procs, err := h.ss.processors(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if len(procs) != 1 || procs[0].Host != "node-a" {
			t.Fatalf("procs = %+v", procs)
		}
	}
	if polls, pushes := h.ss.CatalogStats(); polls != 2 || pushes != 0 {
		t.Fatalf("polls=%d pushes=%d, want 2/0", polls, pushes)
	}
}

// TestSubmitPrimesCatalogFromNISPoll: the first submission subscribes to
// the catalog topic and primes the cache with exactly one GetProcessors
// poll — the NIS is the authority, the broker's current message can trail
// it — after which the whole set dispatches from the cache, and an older
// catalog the broker still had in flight cannot displace what the poll
// read.
func TestSubmitPrimesCatalogFromNISPoll(t *testing.T) {
	h := newSSHarness(t, RoundRobin{}, nil, "node-a")
	h.files.Publish("q.app", procspawn.BuildScript("exit 0"))
	spec := &JobSetSpec{Name: "primed", Jobs: []JobSpec{{Name: "q", Executable: "local://q.app"}}}
	_, topic, err := h.submit(t, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := h.waitTerminal(t, topic); got != "completed" {
		t.Fatalf("terminal event %q", got)
	}
	if polls, _ := h.ss.CatalogStats(); polls != 1 {
		t.Fatalf("NIS polled %d times, want the one priming poll", polls)
	}
	pushCatalogAt(h.ss, 0, "trailing")
	procs, err := h.ss.processors(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(procs) != 1 || procs[0].Host != "node-a" {
		t.Fatalf("a version-0 push displaced the primed catalog: %+v", procs)
	}
	if polls, _ := h.ss.CatalogStats(); polls != 1 {
		t.Fatalf("fresh primed cache polled again (polls = %d)", polls)
	}
}

// TestParallelDispatchWideSet: a wide set dispatched with the default
// concurrency still completes and still places deterministically —
// sequence numbers are reserved under the run lock, so round-robin
// rotation survives parallel dispatch.
func TestParallelDispatchWideSet(t *testing.T) {
	h := newSSHarness(t, RoundRobin{}, nil, "node-a", "node-b")
	h.files.Publish("w.app", procspawn.BuildScript("compute 50", "exit 0"))
	// Feed the cache the full two-node catalog directly and suppress the
	// submit-time prime (registration publishes are one-way, so which
	// snapshot the broker holds at this instant is timing-dependent): the
	// property under test is sequence reservation, not catalog feeding.
	h.ss.mu.Lock()
	h.ss.standing[nodeinfo.CatalogTopic] = true
	h.ss.mu.Unlock()
	pushCatalog(h.ss, "node-a", "node-b")
	spec := &JobSetSpec{Name: "wide"}
	for i := 0; i < 32; i++ {
		spec.Jobs = append(spec.Jobs, JobSpec{Name: fmt.Sprintf("w%03d", i), Executable: "local://w.app"})
	}
	setEPR, topic, err := h.submit(t, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := h.waitTerminal(t, topic); got != "completed" {
		t.Fatalf("terminal event %q", got)
	}
	rc := wsrf.NewResourceClient(h.client, setEPR)
	states, err := rc.GetProperty(context.Background(), QJobState)
	if err != nil {
		t.Fatal(err)
	}
	perNode := map[string]int{}
	for _, st := range states {
		perNode[st.Attr(qNodeAttr)]++
	}
	if perNode["node-a"] != 16 || perNode["node-b"] != 16 {
		t.Fatalf("round-robin placement under parallel dispatch: %v", perNode)
	}
}

// TestConcurrentSetsShareDispatchCap: two sets submitted back to back
// share the service-wide inflight semaphore and both complete.
func TestConcurrentSetsShareDispatchCap(t *testing.T) {
	h := newSSHarness(t, RoundRobin{}, nil, "node-a", "node-b")
	h.files.Publish("w.app", procspawn.BuildScript("compute 50", "exit 0"))
	topics := make(map[string]string)
	for _, name := range []string{"alpha", "beta"} {
		spec := &JobSetSpec{Name: name}
		for i := 0; i < 12; i++ {
			spec.Jobs = append(spec.Jobs, JobSpec{Name: fmt.Sprintf("%s%02d", name, i), Executable: "local://w.app"})
		}
		_, topic, err := h.submit(t, spec, nil)
		if err != nil {
			t.Fatal(err)
		}
		topics[topic] = ""
	}
	deadline := time.After(30 * time.Second)
	done := 0
	for done < len(topics) {
		select {
		case n := <-h.events:
			segs := strings.Split(n.Topic, "/")
			if len(segs) == 3 && segs[1] == "jobset" {
				if prev, ok := topics[segs[0]]; ok && prev == "" {
					topics[segs[0]] = segs[2]
					done++
				}
			}
		case <-deadline:
			t.Fatalf("terminal events so far: %v", topics)
		}
	}
	for topic, got := range topics {
		if got != "completed" {
			t.Fatalf("set %s ended %q", topic, got)
		}
	}
}
