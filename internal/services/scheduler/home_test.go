package scheduler

// Tests for jobSetHome, the persisted layout of a job set: whatever the
// transitions and wherever the journal is cut, reading a set back yields
// the one WS-ResourceProperties document the whole-document renderer
// (jobSetDocument, kept as the oracle) would have produced.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"uvacg/internal/procspawn"
	"uvacg/internal/resourcedb"
	"uvacg/internal/soap"
	"uvacg/internal/transport"
	"uvacg/internal/wsa"
	"uvacg/internal/wsrf"
	"uvacg/internal/wssec"
	"uvacg/internal/xmlutil"
)

// newBareService is a scheduler with no grid around it: nothing it would
// dispatch to, publish on or kill exists. Tests drive it with the core's
// step and the shell's persist.
func newBareService(t testing.TB, home wsrf.ResourceHome) *Service {
	t.Helper()
	s, err := New(Config{
		Address: "inproc://master",
		Home:    home,
		Client:  transport.NewClient().WithNetwork(transport.NewNetwork()),
		NIS:     wsa.NewEPR("inproc://master/NodeInfoService"),
		Broker:  wsa.NewEPR("inproc://master/NB"),
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// serve puts a bare service on a network of its own and returns a client
// that reaches it at its EPRs.
func serve(s *Service) *transport.Client {
	mux := soap.NewMux()
	mux.Handle(s.WSRF().Path(), s.WSRF().Dispatcher())
	network := transport.NewNetwork()
	network.Register("master", transport.NewServer(mux))
	return transport.NewClient().WithNetwork(network)
}

func memHome() wsrf.ResourceHome {
	return wsrf.NewStateHome(resourcedb.NewStore().MustTable("jobsets", resourcedb.BlobCodec{}))
}

// storedSet is a coreHarness whose state is a run's, stored through s:
// every event that asks for it is persisted the way perform would.
func storedSet(t testing.TB, s *Service, id string, spec *JobSetSpec) (*coreHarness, *run) {
	t.Helper()
	r := s.newRun(id, spec, wsa.NewEPR("inproc://client/files"), wsa.NewEPR("inproc://client/listener"), wssec.Credentials{}, SetRunning)
	if _, err := s.svc.CreateResource(id, jobSetDocument(r)); err != nil {
		t.Fatal(err)
	}
	h := newCoreHarness(t, spec)
	h.st = r.st
	h.after = func(ev event, fx effects) {
		if !fx.persist {
			return
		}
		if err := s.persist(r, fx, nil); err != nil {
			t.Fatalf("persist after %+v: %v", ev, err)
		}
	}
	return h, r
}

// viaCodec is doc as a reader of the store gets it: encoded and decoded.
func viaCodec(t testing.TB, doc *xmlutil.Element) *xmlutil.Element {
	t.Helper()
	data, err := resourcedb.BlobCodec{}.Encode(doc)
	if err != nil {
		t.Fatal(err)
	}
	out, err := resourcedb.BlobCodec{}.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestStoredSetReadsAsRenderedDocument: random DAGs under random
// interleavings of valid, stale, duplicated and reordered events — the
// FuzzJobSetCore generator — stored through persist. The oracle is the
// storage this one replaced: a single document, rendered whole by
// jobSetDocument when a transition changes the set, patched with the
// touched jobs' elements when it does not. After every event the home
// must read back exactly that document: element order, attributes, values.
func TestStoredSetReadsAsRenderedDocument(t *testing.T) {
	s := newBareService(t, memHome())
	sets := 0
	mk := func(tb testing.TB, spec *JobSetSpec) *coreHarness {
		sets++
		id := fmt.Sprintf("set-%d", sets)
		h, r := storedSet(tb, s, id, spec)
		oracle := jobSetDocument(r)
		persist := h.after
		h.after = func(ev event, fx effects) {
			if ev.kind == evDestroy {
				// The resource is gone when the core hears of it.
				if err := s.home.Destroy(id); err != nil && !errors.Is(err, wsrf.ErrNoSuchResource) {
					tb.Fatal(err)
				}
			}
			persist(ev, fx)
			switch fresh := jobSetDocument(r); {
			case fx.persist && fx.status:
				oracle = fresh
			case fx.persist:
				first := len(oracle.Children) - 1 - len(spec.Jobs) // the jobs sit before Topic, the last child
				for _, i := range fx.touched {
					oracle.Children[first+i] = fresh.Children[first+i]
				}
			}
			got, err := s.home.Load(id)
			if errors.Is(err, wsrf.ErrNoSuchResource) {
				return // destroyed
			}
			if err != nil {
				tb.Fatal(err)
			}
			if want := viaCodec(tb, oracle); !got.Equal(want) {
				tb.Fatalf("after %+v the home reads\n%s\nthe one-document storage would\n%s", ev, got, want)
			}
		}
		return h
	}
	inputs := append([][]byte(nil), fuzzCoreSeeds...)
	rng := rand.New(rand.NewSource(17))
	for len(inputs) < 400 {
		in := make([]byte, 12+rng.Intn(80))
		rng.Read(in)
		inputs = append(inputs, in)
	}
	ran := 0
	for i, in := range inputs {
		ok := t.Run(fmt.Sprint(i), func(t *testing.T) {
			fuzzCore(t, in, mk)
			ran++
		})
		if !ok {
			return
		}
	}
	if ran < 100 {
		t.Fatalf("only %d of %d inputs decoded to a valid DAG", ran, len(inputs))
	}
}

// TestJobStateIsAFunctionOfTheJob: a job that goes back to Pending —
// retried, or its set preempted — must not keep showing the dead
// attempt's node, working directory and exit code to a status reader,
// only the retries it consumed.
func TestJobStateIsAFunctionOfTheJob(t *testing.T) {
	type attrs map[xmlutil.QName]string
	dirOf := func(attempt string) string { return about(evDirectory, "j", attempt).dirEPR.String() }
	cases := []struct {
		name   string
		retry  int
		status string                       // the set's, at the end
		steps  func(h *coreHarness) []attrs // the JobState wanted after each stage
	}{
		{"retry, Pending, Completed", 1, SetCompleted, func(h *coreHarness) []attrs {
			a := h.reserve().attempt
			h.do(placedOn("node-a", "j", a))
			h.do(about(evRunAcked, "j", a))
			h.do(about(evStarted, "j", a))
			running := attrs{qStatusAttr: JobRunning, qNodeAttr: "node-a", qDirAttr: dirOf(a)}
			h.do(exited("j", a, 3))
			pending := attrs{qStatusAttr: JobPending, qAttemptAttr: "1"}
			b := h.reserve().attempt
			h.do(placedOn("node-a", "j", b))
			h.do(about(evRunAcked, "j", b))
			h.do(exited("j", b, 0))
			return []attrs{running, pending, {qStatusAttr: JobCompleted, qNodeAttr: "node-a", qDirAttr: dirOf(b), qAttemptAttr: "1", qExitAttr: "0"}}
		}},
		{"preempt, Queued", 0, SetQueued, func(h *coreHarness) []attrs {
			a := h.reserve().attempt
			h.do(placedOn("node-a", "j", a))
			h.do(about(evRunAcked, "j", a))
			h.do(about(evStarted, "j", a))
			running := attrs{qStatusAttr: JobRunning, qNodeAttr: "node-a", qDirAttr: dirOf(a)}
			h.do(event{kind: evPreempt})
			return []attrs{running, {qStatusAttr: JobPending}}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := newBareService(t, memHome())
			h, _ := storedSet(t, s, "set-1", oneJob(tc.retry))
			// What a reader polling after every write sees of the job, the
			// Dispatched stretch between Run response and started left out.
			var seen []attrs
			status := ""
			persist := h.after
			h.after = func(ev event, fx effects) {
				if !fx.persist {
					return
				}
				persist(ev, fx)
				doc, err := s.home.Load("set-1")
				if err != nil {
					t.Fatal(err)
				}
				status = doc.ChildText(QStatus)
				got := attrs(doc.Child(QJobState).Attrs)
				delete(got, qNameAttr)
				if got[qStatusAttr] != JobDispatched && (len(seen) == 0 || fmt.Sprint(seen[len(seen)-1]) != fmt.Sprint(got)) {
					seen = append(seen, got)
				}
			}
			if want := tc.steps(h); fmt.Sprint(seen) != fmt.Sprint(want) || status != tc.status {
				t.Fatalf("a reader saw the job as\n%v\nin a set ending %s, want\n%v\nin a set ending %s", seen, status, want, tc.status)
			}
		})
	}
}

// TestRowsAreNotResources: with rows in the home, the scheduler's
// resources are still exactly its job sets — nothing lists a row and an
// EPR naming one addresses nothing, whatever the operation.
func TestRowsAreNotResources(t *testing.T) {
	inner := memHome()
	s := newBareService(t, inner)
	client := serve(s)

	h, _ := storedSet(t, s, "set-1", oneJob(0))
	h.do(about(evRunAcked, "j", h.reserve().attempt))
	row := "set-1#j"
	if !inner.Exists(row) {
		t.Fatalf("no row %q under the scheduler's home: %v", row, inner.IDs())
	}
	if ids := s.WSRF().Home().IDs(); len(ids) != 1 || ids[0] != "set-1" {
		t.Fatalf("the home lists %v, want the one set", ids)
	}
	if s.WSRF().Home().Exists(row) {
		t.Fatal("a row exists as a resource")
	}

	ctx := context.Background()
	epr := s.WSRF().EPRFor(row)
	for action, body := range map[string]*xmlutil.Element{
		wsrf.ActionGetResourceProperty:         wsrf.GetResourcePropertyRequest(QJobState),
		wsrf.ActionGetResourcePropertyDocument: wsrf.GetResourcePropertyDocumentRequest(),
		wsrf.ActionDestroy:                     wsrf.DestroyRequest(),
		wsrf.ActionSetTerminationTime:          wsrf.SetTerminationTimeRequest(time.Now()),
		ActionCancel:                           CancelRequest(),
	} {
		_, err := client.Call(ctx, epr, action, body)
		if err == nil || !strings.Contains(err.Error(), "ResourceUnknownFault") {
			t.Errorf("%s on a row's EPR: %v, want ResourceUnknownFault", action, err)
		}
	}
	if err := s.WSRF().DestroyResource(row); !errors.Is(err, wsrf.ErrNoSuchResource) {
		t.Errorf("DestroyResource of a row: %v", err)
	}
	if !inner.Exists(row) {
		t.Fatal("an operation on the row's EPR removed the row")
	}
}

// TestDestroyRacingPersistLeavesNoRows: a job-level write that loses the
// race with the set's destruction — by the Destroy handler, the lifetime
// reaper or DestroyResource (Submit's undo) — must neither leave nor
// resurrect a row: after any destroy the home holds nothing naming the set.
func TestDestroyRacingPersistLeavesNoRows(t *testing.T) {
	inner := memHome()
	s := newBareService(t, inner)
	client := serve(s)
	ctx := context.Background()

	spec := &JobSetSpec{Name: "bag"}
	for i := 0; i < 8; i++ {
		spec.Jobs = append(spec.Jobs, JobSpec{Name: fmt.Sprintf("j%d", i), Executable: "local://x.app"})
	}
	destroyers := []func(id string) error{
		s.WSRF().DestroyResource,
		func(id string) error {
			_, err := client.Call(ctx, s.WSRF().EPRFor(id), wsrf.ActionDestroy, wsrf.DestroyRequest())
			return err
		},
		func(id string) error {
			err := s.WSRF().UpdateResource(id, func(doc *xmlutil.Element) error {
				doc.Append(xmlutil.NewElement(wsrf.QTerminationTime, time.Now().Add(-time.Hour).UTC().Format(time.RFC3339Nano)))
				return nil
			})
			if err == nil && wsrf.NewReaper(s.WSRF(), time.Hour).SweepOnce() != 1 {
				err = errors.New("the reaper did not destroy the expired set")
			}
			return err
		},
	}
	for n := 0; n < 60; n++ {
		id := fmt.Sprintf("set-%d", n)
		r := s.newRun(id, spec, wsa.EndpointReference{}, wsa.EndpointReference{}, wssec.Credentials{}, SetRunning)
		if _, err := s.svc.CreateResource(id, jobSetDocument(r)); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { // the events of a running set, each journaling its job
			defer wg.Done()
			for i := 0; ; i++ {
				k := i % len(spec.Jobs)
				r.mu.Lock()
				r.st.jobs[k].state, r.st.jobs[k].node = JobRunning, fmt.Sprint("node-", i)
				r.mu.Unlock()
				if err := s.persist(r, effects{persist: true, touched: []int{k}}, nil); err != nil {
					if !errors.Is(err, wsrf.ErrNoSuchResource) {
						t.Errorf("persist: %v", err)
					}
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			time.Sleep(time.Duration(n%5) * 100 * time.Microsecond)
			if err := destroyers[n%len(destroyers)](id); err != nil {
				t.Errorf("destroy: %v", err)
			}
		}()
		wg.Wait()
		for _, left := range inner.IDs() {
			if strings.HasPrefix(left, id) {
				t.Fatalf("after the destroy of %s the home still holds %q", id, left)
			}
		}
	}
}

// journaledHome is a home on a journaled store in dir that notes, after
// every mutation, how long the log has become: the record boundaries.
type journaledHome struct {
	wsrf.ResourceHome
	store *resourcedb.DurableStore
	cuts  []int64
}

func openJournaledHome(t testing.TB, dir string) *journaledHome {
	t.Helper()
	store, err := resourcedb.OpenDurable(dir, resourcedb.DurableOptions{CompactBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	return &journaledHome{ResourceHome: wsrf.NewStateHome(store.MustTable("jobsets", resourcedb.BlobCodec{})), store: store}
}

func (h *journaledHome) cut(err error) error {
	h.cuts = append(h.cuts, h.store.Stats().WALBytes)
	return err
}

func (h *journaledHome) Create(id string, doc *xmlutil.Element) error {
	return h.cut(h.ResourceHome.Create(id, doc))
}

func (h *journaledHome) Save(id string, doc *xmlutil.Element) error {
	return h.cut(h.ResourceHome.Save(id, doc))
}

// runToCompletion takes every job of h's set through Run response,
// started and a clean exit, in declaration order, failing the named job's
// first attempt.
func runToCompletion(h *coreHarness, failOnce string) {
	for res := h.reserve(); res != nil; res = h.reserve() {
		name := h.st.jobs[res.job].spec.Name
		h.do(about(evRunAcked, name, res.attempt))
		h.do(about(evStarted, name, res.attempt))
		code := 0
		if name == failOnce {
			code, failOnce = 1, ""
		}
		h.do(exited(name, res.attempt, code))
	}
}

// TestCrashCutAtEveryRecord journals a three-stage set with one retry and
// reopens the data-dir cut at every record boundary of the log — every
// place a crash can leave it. Whatever survives must be a set Recover can
// take up: readable by restoreRun, no verdict over a job still live, no
// completed job forgotten or moved, no consumed retry given back.
func TestCrashCutAtEveryRecord(t *testing.T) {
	dir := t.TempDir()
	home := openJournaledHome(t, dir)
	s := newBareService(t, home)
	spec := &JobSetSpec{Name: "chain", Jobs: []JobSpec{
		{Name: "a", Executable: "local://x.app"},
		{Name: "b", Executable: "local://x.app", After: []string{"a"}, Retry: RetryPolicy{Limit: 1}},
		{Name: "c", Executable: "local://x.app", After: []string{"b"}},
	}}
	h, _ := storedSet(t, s, "set-1", spec)
	runToCompletion(h, "b")
	h.want(SetCompleted, nil)
	if err := s.stampNotified("set-1", nil); err != nil {
		t.Fatal(err)
	}
	if err := home.store.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("log segments %v %v, want one", segs, err)
	}
	log, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	// Create, then per clean attempt three rows, the retry's rows, the
	// verdict (c's row, then the document) and the notified stamp.
	if len(home.cuts) < 12 || home.cuts[len(home.cuts)-1] != int64(len(log)) {
		t.Fatalf("record boundaries %v over a log of %d bytes", home.cuts, len(log))
	}

	completedAt := make(map[string]wsa.EndpointReference) // job → directory, once its Completed is on disk
	retries := make(map[string]int)
	for i, cut := range home.cuts {
		cutDir := t.TempDir()
		if err := os.WriteFile(filepath.Join(cutDir, filepath.Base(segs[0])), log[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		reopened := openJournaledHome(t, cutDir)
		s := newBareService(t, reopened)
		doc, err := s.WSRF().Home().Load("set-1")
		if err != nil {
			t.Fatalf("cut %d: %v", i, err)
		}
		r, err := s.restoreRun("set-1", doc, wssec.Credentials{})
		if err != nil {
			t.Fatalf("cut %d: restoreRun: %v", i, err)
		}
		v := ParseJobSetDocument(doc)
		if len(v.Jobs) != len(spec.Jobs) {
			t.Fatalf("cut %d: jobs %+v", i, v.Jobs)
		}
		for k, j := range v.Jobs {
			if TerminalSetStatus(v.Status) && !jobTerminal(j.Status) {
				t.Fatalf("cut %d: %s set over %s job %s", i, v.Status, j.Status, j.Name)
			}
			if dir, done := completedAt[j.Name]; done && (j.Status != JobCompleted || j.Dir.String() != dir.String()) {
				t.Fatalf("cut %d: job %s was journaled Completed in %s, now reads %s in %s", i, j.Name, dir, j.Status, j.Dir)
			}
			if j.Status == JobCompleted {
				if j.Dir.IsZero() {
					t.Fatalf("cut %d: completed job %s has no directory", i, j.Name)
				}
				completedAt[j.Name] = j.Dir
				if got := r.st.jobs[k]; got.state != JobCompleted || got.dirEPR.String() != j.Dir.String() {
					t.Fatalf("cut %d: restoreRun dropped completed job %s: %+v", i, j.Name, got)
				}
			}
			if j.Attempt < retries[j.Name] || r.st.jobs[k].retries != j.Attempt {
				t.Fatalf("cut %d: job %s has consumed %d retries (restored %d), had %d", i, j.Name, j.Attempt, r.st.jobs[k].retries, retries[j.Name])
			}
			retries[j.Name] = j.Attempt
		}
		reopened.store.Close()
	}
	if len(completedAt) != 3 || retries["b"] != 1 {
		t.Fatalf("the whole log reads completed %v retries %v", completedAt, retries)
	}
}

// TestRecoverFromDocumentsOnly: a data-dir written before rows existed
// holds whole documents and nothing else. Recover reads it as it always
// did — completed work kept, the rest re-run — and the set goes on in the
// new layout beside its old document.
func TestRecoverFromDocumentsOnly(t *testing.T) {
	var inner wsrf.ResourceHome
	h := newSSHarnessCfg(t, Greedy{}, nil, func(cfg *Config) { inner = cfg.Home }, "node-a")
	h.files.Publish("first.app", procspawn.BuildScript("write out.txt hello", "exit 0"))
	h.files.Publish("second.app", procspawn.BuildScript("read in.txt", "exit 0"))
	setEPR, topic, err := h.submit(t, twoJobSpec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := h.waitTerminal(t, topic); got != "completed" {
		t.Fatalf("initial run: %q", got)
	}

	// The old layout of this set, crashed mid-run: first Completed with
	// its directory, second still Running, all of it in the one document.
	id := setEPR.Property(wsrf.QResourceID)
	h.ss.sets.forgetAll()
	var doc *xmlutil.Element
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if doc, err = h.ss.WSRF().Home().Load(id); err != nil {
			t.Fatal(err)
		}
		if doc.Attr(qNotifiedAttr) == "true" { // the set's last write
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the completed set was never stamped notified")
		}
	}
	doc.Child(QStatus).Text = SetRunning
	delete(doc.Attrs, qNotifiedAttr)
	firstDir := ""
	for _, st := range doc.ChildrenNamed(QJobState) {
		if st.Attr(qNameAttr) == "first" {
			firstDir = st.Attr(qDirAttr)
		} else {
			st.SetAttr(qStatusAttr, JobRunning)
			delete(st.Attrs, qExitAttr)
		}
	}
	for _, stored := range inner.IDs() {
		if err := inner.Destroy(stored); err != nil {
			t.Fatal(err)
		}
	}
	if err := inner.Create(id, doc); err != nil {
		t.Fatal(err)
	}

	if resumed, err := h.ss.Recover(context.Background()); err != nil || resumed != 1 {
		t.Fatalf("Recover resumed %d sets: %v", resumed, err)
	}
	if got := h.waitTerminal(t, topic); got != "completed" {
		t.Fatalf("recovered run: %q", got)
	}
	doc, err = h.ss.WSRF().Home().Load(id)
	if err != nil {
		t.Fatal(err)
	}
	v := ParseJobSetDocument(doc)
	if v.Status != SetCompleted || v.Job("first").Dir.String() != firstDir || v.Job("second").Status != JobCompleted {
		t.Fatalf("recovered set reads %+v, want first kept in %s and second re-run", v, firstDir)
	}
	// Only the job that ran again has a row; first still reads from the document.
	if inner.Exists(id+"#first") || !inner.Exists(id+"#second") {
		t.Fatalf("rows after recovery: %v", inner.IDs())
	}
}

// TestJournalBytesPerJobFlatInN: what a job costs the journal must not
// depend on how many siblings it has. It did — every event rewrote the
// whole set, O(n²) bytes per set — and 128-job bags then cost eight times
// per job what 16-job bags do.
func TestJournalBytesPerJobFlatInN(t *testing.T) {
	perJob := func(n int) float64 {
		home := openJournaledHome(t, t.TempDir())
		s := newBareService(t, home)
		spec := &JobSetSpec{Name: "bag"}
		for i := 0; i < n; i++ {
			spec.Jobs = append(spec.Jobs, JobSpec{Name: fmt.Sprintf("j%03d", i), Executable: "local://x.app", Outputs: []string{"out.dat"}})
		}
		h, _ := storedSet(t, s, "set-1", spec)
		runToCompletion(h, "")
		h.want(SetCompleted, nil)
		if err := s.stampNotified("set-1", nil); err != nil {
			t.Fatal(err)
		}
		return float64(home.store.Stats().WAL.Bytes) / float64(n)
	}
	small, large := perJob(16), perJob(128)
	t.Logf("journal bytes per job: %.0f in a 16-job set, %.0f in a 128-job set", small, large)
	if large > 1.25*small {
		t.Fatalf("a job of a 128-job set journals %.0f bytes, of a 16-job set %.0f: not flat in n", large, small)
	}
}
