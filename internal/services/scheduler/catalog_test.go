package scheduler

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"uvacg/internal/procspawn"
	"uvacg/internal/services/nodeinfo"
	"uvacg/internal/soap"
	"uvacg/internal/transport"
	"uvacg/internal/wsa"
	"uvacg/internal/wsrf"
)

// ageCatalog makes the cached reply as old as the TTL.
func ageCatalog(s *Service) {
	s.cat.mu.Lock()
	s.cat.updated = s.cat.updated.Add(-catalogTTL)
	s.cat.mu.Unlock()
}

// countPolls puts a proxy between the Scheduler and its NIS that counts
// the GetProcessors polls reaching it, and faults each one once down is
// set.
func countPolls(h *ssHarness) (polls *atomic.Int64, down *atomic.Bool) {
	nis := h.ss.nis
	polls, down = new(atomic.Int64), new(atomic.Bool)
	proxy := soap.NewDispatcher()
	proxy.Register(nodeinfo.ActionGetProcessors, func(ctx context.Context, req *soap.Envelope) (*soap.Envelope, error) {
		polls.Add(1)
		if down.Load() {
			return nil, soap.ReceiverFault("nis: down")
		}
		body, err := h.client.Call(ctx, nis, nodeinfo.ActionGetProcessors, req.Body)
		if err != nil {
			return nil, err
		}
		return soap.New(body), nil
	})
	mux := soap.NewMux()
	mux.Handle("/NodeInfoService", proxy)
	h.network.Register("counted-nis", transport.NewServer(mux))
	h.ss.nis = wsa.NewEPR("inproc://counted-nis/NodeInfoService")
	return polls, down
}

// TestCatalogStaleCacheFallsBackToPoll: the cache is the last GetProcessors
// reply. While it is younger than the TTL a dispatch reads it without
// asking the NIS; once it is older the next read polls, and that reply is
// the cache again.
func TestCatalogStaleCacheFallsBackToPoll(t *testing.T) {
	h := newSSHarness(t, RoundRobin{}, nil, "node-a")
	polls, _ := countPolls(h)
	for i, want := range []int64{1, 1, 2, 2} {
		if i == 2 {
			ageCatalog(h.ss)
		}
		procs, err := h.ss.processors(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if len(procs) != 1 || procs[0].Host != "node-a" {
			t.Fatalf("read %d: %+v", i, procs)
		}
		if n := polls.Load(); n != want {
			t.Fatalf("read %d: %d polls, want %d", i, n, want)
		}
	}
}

// TestCatalogPollFailureServesStale: when the TTL has lapsed AND the NIS
// poll fails, dispatch runs on the stale catalog rather than failing the
// job — old load data beats no dispatch at all.
func TestCatalogPollFailureServesStale(t *testing.T) {
	h := newSSHarness(t, RoundRobin{}, nil, "node-a")
	polls, down := countPolls(h)
	ctx := context.Background()
	if _, err := h.ss.processors(ctx); err != nil {
		t.Fatal(err)
	}
	down.Store(true)
	ageCatalog(h.ss)
	procs, err := h.ss.processors(ctx)
	if err != nil {
		t.Fatalf("stale cache not served: %v", err)
	}
	if len(procs) != 1 || procs[0].Host != "node-a" {
		t.Fatalf("procs = %+v", procs)
	}
	if n := polls.Load(); n != 2 {
		t.Fatalf("polls = %d, want 2 (the first read's and the failed attempt)", n)
	}
}

// TestSubmitPrimesCatalogFromNISPoll: taking a set on polls the NIS once,
// and the whole set dispatches from that reply.
func TestSubmitPrimesCatalogFromNISPoll(t *testing.T) {
	h := newSSHarness(t, RoundRobin{}, nil, "node-a")
	polls, _ := countPolls(h)
	h.files.Publish("q.app", procspawn.BuildScript("exit 0"))
	spec := &JobSetSpec{Name: "primed", Jobs: []JobSpec{{Name: "q", Executable: "local://q.app"}}}
	_, topic, err := h.submit(t, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := h.waitTerminal(t, topic); got != "completed" {
		t.Fatalf("terminal event %q", got)
	}
	if n := polls.Load(); n != 1 {
		t.Fatalf("NIS polled %d times, want the one priming poll", n)
	}
}

// TestParallelDispatchWideSet: a wide set dispatched with the default
// concurrency still completes and still places deterministically —
// sequence numbers are reserved under the run lock, so round-robin
// rotation survives parallel dispatch.
func TestParallelDispatchWideSet(t *testing.T) {
	h := newSSHarness(t, RoundRobin{}, nil, "node-a", "node-b")
	h.files.Publish("w.app", procspawn.BuildScript("compute 50", "exit 0"))
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
