package core

import (
	"context"
	"reflect"
	"sync"
	"testing"
	"time"

	"uvacg/internal/pipeline"
	"uvacg/internal/services/scheduler"
	"uvacg/internal/soap"
)

// hopRecorder is a server-side interceptor noting which request IDs
// arrive at which service paths. Installed after the grid's own
// ServerRequestID interceptor, it sees the ID already lifted onto the
// context.
type hopRecorder struct {
	mu  sync.Mutex
	ids map[string]map[string]bool // path → set of request IDs
}

func newHopRecorder() *hopRecorder {
	return &hopRecorder{ids: make(map[string]map[string]bool)}
}

func (r *hopRecorder) interceptor() soap.Interceptor {
	return func(ctx context.Context, call *soap.CallInfo, next soap.Handler) (*soap.Envelope, error) {
		id, _ := pipeline.RequestIDFrom(ctx)
		r.mu.Lock()
		if r.ids[call.Path] == nil {
			r.ids[call.Path] = make(map[string]bool)
		}
		r.ids[call.Path][id] = true
		r.mu.Unlock()
		return next(ctx, call)
	}
}

func (r *hopRecorder) idsAt(path string) []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []string
	for id := range r.ids[path] {
		out = append(out, id)
	}
	return out
}

// wireCounter independently counts wire calls at the innermost client
// position — the ground truth the metrics interceptor must match. It
// counts on entry (Metrics records on return) and tracks how many of the
// calls it has seen are still inside the wire.
type wireCounter struct {
	mu       sync.Mutex
	counts   map[pipeline.Key]uint64
	inflight int
}

func newWireCounter() *wireCounter {
	return &wireCounter{counts: make(map[pipeline.Key]uint64)}
}

func (w *wireCounter) interceptor() soap.Interceptor {
	return func(ctx context.Context, call *soap.CallInfo, next soap.Handler) (*soap.Envelope, error) {
		w.mu.Lock()
		w.counts[pipeline.Key{Path: call.Path, Action: call.Action}]++
		w.inflight++
		w.mu.Unlock()
		defer func() {
			w.mu.Lock()
			w.inflight--
			w.mu.Unlock()
		}()
		return next(ctx, call)
	}
}

func (w *wireCounter) snapshot() (counts map[pipeline.Key]uint64, inflight int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	counts = make(map[pipeline.Key]uint64, len(w.counts))
	for k, v := range w.counts {
		counts[k] = v
	}
	return counts, w.inflight
}

// quietBaseline returns a metrics snapshot and a wire count taken while
// the client carries no traffic. A chain is bound when a call enters
// it, so a call already inside the client when the wire counter is
// installed never passes through the counter, yet Metrics records it
// when it returns: a bootstrap one-way send still on its way did exactly
// that across a baseline taken straight after Use (metrics = wire + 1
// under load). An idle grid sends nothing, so the baseline is taken
// only after both observers have stood still for a whole quiet window
// with no counted call in flight.
func quietBaseline(t *testing.T, metrics *pipeline.Metrics, wc *wireCounter) (map[pipeline.Key]pipeline.Stats, map[pipeline.Key]uint64) {
	t.Helper()
	const window = 100 * time.Millisecond
	deadline := time.Now().Add(10 * time.Second)
	for {
		w1, _ := wc.snapshot()
		m1 := metrics.Snapshot()
		time.Sleep(window)
		m2 := metrics.Snapshot()
		w2, inflight := wc.snapshot()
		if inflight == 0 && reflect.DeepEqual(m1, m2) && reflect.DeepEqual(w1, w2) {
			return m2, w2
		}
		if time.Now().After(deadline) {
			t.Fatal("grid never went quiet after bootstrap")
		}
	}
}

// TestF3_RequestIDAndMetrics runs the paper's job-set flow with the
// request-ID and metrics interceptors engaged and asserts (a) the whole
// multi-service flow — Scheduler, ES, FSS, broker — executed under the
// single request ID chosen at submission, and (b) the per-action
// metrics agree exactly with the wire calls actually made.
func TestF3_RequestIDAndMetrics(t *testing.T) {
	metrics := pipeline.NewMetrics()
	g, err := NewGrid(GridConfig{
		Nodes: []NodeSpec{
			{Name: "win-a", Cores: 2, SpeedMHz: 2800, RAMMB: 1024},
			{Name: "win-b", Cores: 1, SpeedMHz: 1400, RAMMB: 512},
		},
		Accounts: testAccounts,
		UnitTime: 5 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)

	// Metrics and recorders go in after NewGrid: grid bootstrap traffic
	// (NIS registration) is not part of the flow under test. Metrics sits
	// inside the grid's retry, as -metrics does on a daemon, so it counts
	// wire attempts. The metrics and wire baselines are taken, once the
	// bootstrap traffic has drained, for the same reason.
	g.Client.Use(metrics.Interceptor())
	rec := newHopRecorder()
	g.Master.Use(rec.interceptor())
	for _, n := range g.Nodes {
		n.Server().Use(rec.interceptor())
	}
	wc := newWireCounter()
	g.Client.Use(wc.interceptor())
	baseline, wireBaseline := quietBaseline(t, metrics, wc)

	c := testClient(t, g)
	c.AddFile("gen.app", Script(
		"compute 20",
		"write data.txt 4 5 6",
		"exit 0",
	))
	c.AddFile("sum.app", Script(
		"read data.txt",
		"transform data.txt total.txt sum",
		"exit 0",
	))
	spec := NewJobSet("traced").
		Add("gen", Local("gen.app")).Outputs("data.txt").
		Add("sum", Local("sum.app")).Input("data.txt", Output("gen", "data.txt")).Outputs("total.txt").
		Spec()

	const flowID = "urn:uuid:f3-traced-flow"
	ctx := pipeline.WithRequestID(testCtx(t), flowID)
	sub, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	status, err := sub.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if status != scheduler.SetCompleted {
		_, detail := sub.Status()
		t.Fatalf("status = %s (%s)", status, detail)
	}

	// (a) Every hop of the flow — including the second job, dispatched
	// from a notification, and the exit events published after the Run
	// exchange ended — carried the one ID chosen at submission. The
	// broker relays for any publisher, so there the flow ID must be
	// present rather than exclusive.
	hopPaths := []string{
		"/SchedulerService",
		"/ExecutionService",
		"/FileSystemService",
		"/NotificationBroker",
	}
	contains := func(ids []string, want string) bool {
		for _, id := range ids {
			if id == want {
				return true
			}
		}
		return false
	}
	deadline := time.Now().Add(5 * time.Second)
	for _, path := range hopPaths {
		for {
			ids := rec.idsAt(path)
			if path == "/NotificationBroker" {
				if contains(ids, flowID) {
					break
				}
			} else if len(ids) == 1 && ids[0] == flowID {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("hop %s observed request IDs %v, want %s", path, ids, flowID)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	// (b) Per-action metrics match the wire calls made, counted
	// independently at the innermost chain position. One-way dispatch
	// is asynchronous, so settle with a deadline.
	for {
		want, _ := wc.snapshot()
		for k, n := range wireBaseline {
			want[k] -= n
		}
		got := metrics.Snapshot()
		if match := metricsMatch(t, baseline, got, want, time.Now().After(deadline)); match {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Sanity on absolute counts: exactly one Submit crossed the wire.
	snap := metrics.Snapshot()
	submitKey := pipeline.Key{Path: "/SchedulerService", Action: scheduler.ActionSubmit}
	if n := snap[submitKey].Calls - baseline[submitKey].Calls; n != 1 {
		t.Fatalf("Submit recorded %d times, want 1", n)
	}
}

// metricsMatch compares the metrics delta since baseline with the wire
// counter. When final is true, mismatches are fatal; otherwise it just
// reports whether they agree yet.
func metricsMatch(t *testing.T, baseline, got map[pipeline.Key]pipeline.Stats, want map[pipeline.Key]uint64, final bool) bool {
	t.Helper()
	for k, n := range want {
		delta := got[k].Calls - baseline[k].Calls
		if delta != n {
			if final {
				t.Fatalf("metrics for %v: %d calls, wire counter saw %d", k, delta, n)
			}
			return false
		}
	}
	for k, s := range got {
		delta := s.Calls - baseline[k].Calls
		if delta > 0 && want[k] != delta {
			if final {
				t.Fatalf("metrics recorded %d calls for %v, wire counter saw %d", delta, k, want[k])
			}
			return false
		}
	}
	return true
}
