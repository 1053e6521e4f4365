package scheduler

// A monitoring client polls a job set's WS-ResourceProperties while the
// scheduler writes them. The reads take no lock: these tests hold them to
// what a locked read promised — whole, ordered, never a verdict ahead of
// the jobs it was reached on — and to what it could not: returning while
// a writer sits in its journal commit.

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"uvacg/internal/procspawn"
	"uvacg/internal/wsa"
	"uvacg/internal/wsrf"
	"uvacg/internal/wssec"
	"uvacg/internal/xmlutil"
)

// statusReader polls one job set, alternating GetResourceProperty(JobState)
// — the rig's and wsrfget's read — with GetResourcePropertyDocument, and
// checks every reply.
type statusReader struct {
	t     *testing.T
	rc    *wsrf.ResourceClient
	names []string // the set's jobs, in spec order

	mu       sync.Mutex
	reads    int
	running  bool     // some reply showed a job Running
	verdict  string   // the set status of the first terminal reply
	settled  []string // the jobs as that reply showed them
	lastRead []string
}

// project is what must not change once the set is terminal. The node is
// left out: a Run response overtaken by its own job's exit records it late.
func project(jobs []*xmlutil.Element) []string {
	out := make([]string, len(jobs))
	for i, j := range jobs {
		out[i] = fmt.Sprintf("%s %s dir=%q attempt=%s exit=%s", j.Attr(qNameAttr), j.Attr(qStatusAttr), j.Attr(qDirAttr), j.Attr(qAttemptAttr), j.Attr(qExitAttr))
	}
	return out
}

// check holds one reply — its set status, when the reply has one, and its
// JobState elements — to the reader's contract.
func (sr *statusReader) check(status string, jobs []*xmlutil.Element) {
	sr.mu.Lock()
	defer sr.mu.Unlock()
	sr.reads++
	if len(jobs) != len(sr.names) {
		sr.t.Errorf("reply lists %d jobs, the set has %d", len(jobs), len(sr.names))
		return
	}
	for i, j := range jobs {
		if j.Attr(qNameAttr) != sr.names[i] {
			sr.t.Errorf("reply lists job %q at %d, spec order has %q", j.Attr(qNameAttr), i, sr.names[i])
			return
		}
		sr.running = sr.running || j.Attr(qStatusAttr) == JobRunning
		if TerminalSetStatus(status) && !jobTerminal(j.Attr(qStatusAttr)) {
			sr.t.Errorf("reply shows a %s set over %s job %s", status, j.Attr(qStatusAttr), j.Attr(qNameAttr))
		}
	}
	sr.lastRead = project(jobs)
	switch {
	case sr.verdict == "" && TerminalSetStatus(status):
		sr.verdict, sr.settled = status, sr.lastRead
	case sr.verdict != "" && (status != "" && status != sr.verdict || fmt.Sprint(sr.lastRead) != fmt.Sprint(sr.settled)):
		sr.t.Errorf("after a %s reply showing\n%v\na later reply shows %q\n%v", sr.verdict, sr.settled, status, sr.lastRead)
	}
}

// poll reads until stop closes.
func (sr *statusReader) poll(ctx context.Context, stop <-chan struct{}) {
	for i := 0; ; i++ {
		select {
		case <-stop:
			return
		default:
		}
		if i%2 == 0 {
			states, err := sr.rc.GetProperty(ctx, QJobState)
			if err != nil {
				sr.t.Errorf("GetResourceProperty(JobState): %v", err)
				return
			}
			sr.check("", states)
			continue
		}
		doc, err := sr.rc.GetDocument(ctx)
		if err != nil {
			sr.t.Errorf("GetResourcePropertyDocument: %v", err)
			return
		}
		sr.check(doc.ChildText(QStatus), doc.ChildrenNamed(QJobState))
	}
}

// await polls the reader's own view until cond holds.
func (sr *statusReader) await(what string, cond func() bool) {
	sr.t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		sr.mu.Lock()
		ok := cond()
		sr.mu.Unlock()
		if ok {
			return
		}
		if sr.t.Failed() || time.Now().After(deadline) {
			sr.t.Fatalf("the reader never saw %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestStatusReadsBesideWrites runs a reader beside a 64-job set that
// completes, one that is cancelled mid-run and one whose failure leaves a
// run-on-failure handler to run.
func TestStatusReadsBesideWrites(t *testing.T) {
	bag := func(script string) *JobSetSpec {
		spec := &JobSetSpec{Name: "wide"}
		for i := 0; i < 64; i++ {
			spec.Jobs = append(spec.Jobs, JobSpec{Name: fmt.Sprintf("j%02d", i), Executable: "local://" + script})
		}
		return spec
	}
	failing := bag("quick.app")
	failing.Jobs[7].Executable = "local://boom.app"
	failing.Jobs[63] = JobSpec{Name: "cleanup", Executable: "local://quick.app", After: []string{"j07"}, RunOn: RunOnFailure}

	cases := []struct {
		name    string
		spec    *JobSetSpec
		cancel  bool
		verdict string
		want    map[string]string // job → final state, where the case pins it
	}{
		{"completes", bag("quick.app"), false, SetCompleted, map[string]string{"j00": JobCompleted, "j63": JobCompleted}},
		{"cancelled", bag("long.app"), true, SetCancelled, nil},
		{"fails with a handler", failing, false, SetFailed, map[string]string{"j07": JobFailed, "cleanup": JobCompleted}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := newSSHarness(t, Greedy{}, nil, "node-a", "node-b")
			h.files.Publish("quick.app", procspawn.BuildScript("exit 0"))
			h.files.Publish("boom.app", procspawn.BuildScript("exit 9"))
			h.files.Publish("long.app", procspawn.BuildScript("compute 100000000", "exit 0"))
			setEPR, _, err := h.submit(t, tc.spec, nil)
			if err != nil {
				t.Fatal(err)
			}
			sr := &statusReader{t: t, rc: wsrf.NewResourceClient(h.client, setEPR)}
			for _, j := range tc.spec.Jobs {
				sr.names = append(sr.names, j.Name)
			}
			ctx := context.Background()
			stop, done := make(chan struct{}), make(chan struct{})
			go func() {
				defer close(done)
				sr.poll(ctx, stop)
			}()
			if tc.cancel {
				sr.await("a running job", func() bool { return sr.running })
				if _, err := h.client.Call(ctx, setEPR, ActionCancel, cancelRequest()); err != nil {
					t.Fatal(err)
				}
			}
			settledAt := 0
			sr.await("a terminal set", func() bool { settledAt = sr.reads; return sr.verdict != "" })
			sr.await("the set stay as it was", func() bool { return sr.reads >= settledAt+20 })
			close(stop)
			<-done
			t.Logf("%d replies before the verdict, %d after", settledAt-1, sr.reads-settledAt+1)
			if sr.verdict != tc.verdict {
				t.Fatalf("the set ended %s, want %s", sr.verdict, tc.verdict)
			}
			for _, line := range sr.settled {
				name, rest, _ := strings.Cut(line, " ")
				if want, pinned := tc.want[name]; pinned && !strings.HasPrefix(rest, want+" ") {
					t.Errorf("job %s ended %q, want %s", name, rest, want)
				}
			}
		})
	}
}

// stallHome parks the next mutation inside the home, as a journal commit
// waiting for its fsync would.
type stallHome struct {
	wsrf.ResourceHome
	mu      sync.Mutex
	parked  chan struct{} // closed once a writer is inside
	release chan struct{}
}

func (h *stallHome) arm() (parked <-chan struct{}, release chan<- struct{}) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.parked, h.release = make(chan struct{}), make(chan struct{})
	return h.parked, h.release
}

func (h *stallHome) stall() {
	h.mu.Lock()
	parked, release := h.parked, h.release
	h.parked = nil
	h.mu.Unlock()
	if parked != nil {
		close(parked)
		<-release
	}
}

func (h *stallHome) Create(id string, doc *xmlutil.Element) error {
	h.stall()
	return h.ResourceHome.Create(id, doc)
}

func (h *stallHome) Save(id string, doc *xmlutil.Element) error {
	h.stall()
	return h.ResourceHome.Save(id, doc)
}

// TestStatusReadsDoNotWaitForAWriter: a write parked inside the home holds
// the resource's lock for as long as its commit takes. Status reads must
// return meanwhile, with the last state saved — they used to queue behind
// the lock, which is what made a 0.16 ms read take 7 ms beside a busy set.
func TestStatusReadsDoNotWaitForAWriter(t *testing.T) {
	home := &stallHome{}
	h := newSSHarnessCfg(t, nil, nil, func(cfg *Config) {
		home.ResourceHome = cfg.Home
		cfg.Home = home
	})
	spec := &JobSetSpec{Name: "set", Jobs: []JobSpec{{Name: "j"}, {Name: "k"}}}
	r := h.ss.newRun("set-1", spec, wsa.EndpointReference{}, wsa.EndpointReference{}, wssec.Credentials{})
	setEPR, err := h.ss.svc.CreateResource(r.id, jobSetDocument(r))
	if err != nil {
		t.Fatal(err)
	}
	rc := wsrf.NewResourceClient(h.client, setEPR)
	jobJ := func(ctx context.Context) string {
		t.Helper()
		states, err := rc.GetProperty(ctx, QJobState)
		if err != nil {
			t.Fatalf("GetResourceProperty beside a parked writer: %v", err)
		}
		doc, err := rc.GetDocument(ctx)
		if err != nil {
			t.Fatalf("GetResourcePropertyDocument beside a parked writer: %v", err)
		}
		if a, b := states[0].Attr(qStatusAttr), doc.Child(QJobState).Attr(qStatusAttr); a != b {
			t.Fatalf("the two reads disagree: %s, %s", a, b)
		}
		return states[0].Attr(qStatusAttr)
	}

	for _, write := range []effects{{touched: []int{0}}, {status: true}} { // a job's row, then the document
		before := jobJ(context.Background())
		r.mu.Lock()
		r.st.jobs[0].state = map[string]string{JobPending: JobRunning, JobRunning: JobCompleted}[before]
		after := r.st.jobs[0].state
		r.mu.Unlock()
		parked, release := home.arm()
		written := make(chan error, 1)
		go func() { written <- h.ss.persist(r, write) }()
		<-parked
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if got := jobJ(ctx); got != before {
			t.Fatalf("beside the parked write of %s a read shows %s, want the last state saved, %s", after, got, before)
		}
		cancel()
		close(release)
		if err := <-written; err != nil {
			t.Fatal(err)
		}
		if got := jobJ(context.Background()); got != after {
			t.Fatalf("after the write a read shows %s, want %s", got, after)
		}
	}
}
