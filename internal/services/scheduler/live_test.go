package scheduler

// Tests for the live sets jobSetHome keeps: a set this process created
// reads as the store would return it, without a decode, until its last
// write.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"uvacg/internal/resourcedb"
	"uvacg/internal/wsrf"
	"uvacg/internal/xmlutil"
)

// faultyHome fails the mutation it is armed for: before it reaches the
// store, or after the store took it — a commit that failed to reach disk
// after the row was swapped in memory.
type faultyHome struct {
	wsrf.ResourceHome
	failIn int  // the mutation that fails, counting down; 0 fails none
	late   bool // whether the failing mutation reaches the store first
}

var errCommit = errors.New("commit failed")

func (h *faultyHome) mutate(do func() error) error {
	if h.failIn == 0 {
		return do()
	}
	if h.failIn--; h.failIn > 0 {
		return do()
	}
	if h.late {
		_ = do()
	}
	return errCommit
}

func (h *faultyHome) Create(id string, doc *xmlutil.Element) error {
	return h.mutate(func() error { return h.ResourceHome.Create(id, doc) })
}

func (h *faultyHome) Save(id string, doc *xmlutil.Element) error {
	return h.mutate(func() error { return h.ResourceHome.Save(id, doc) })
}

func (h *faultyHome) Destroy(id string) error {
	return h.mutate(func() error { return h.ResourceHome.Destroy(id) })
}

// oddNames are names as a caller may write them and a reader never reads
// them: padded, tabbed, with control characters and invalid UTF-8, two
// that read back alike, and markup.
var oddNames = []string{"j0", "j1", "j2", " pad ", "tab\there", "ctl\x01", "ctl\x02", "bad\xff", "ctl�", "a&b<c>", "é"}

// randomJob is a JobState as a writer renders it.
func randomJob(rng *rand.Rand, name string) *xmlutil.Element {
	job := (&xmlutil.Element{Name: QJobState}).SetAttr(qNameAttr, name)
	job.SetAttr(qStatusAttr, []string{JobPending, JobRunning, JobCompleted, " Running\x01"}[rng.Intn(4)])
	if rng.Intn(2) == 0 {
		job.SetAttr(qNodeAttr, oddNames[rng.Intn(len(oddNames))])
	}
	return job
}

// randomSetDocument is a job-set document of 1–6 jobs named from pool,
// now and then one of them twice.
func randomSetDocument(rng *rand.Rand, pool []string) *xmlutil.Element {
	doc := xmlutil.NewContainer(xmlutil.Q(NS, "JobSetState"),
		xmlutil.NewElement(QName, oddNames[rng.Intn(len(oddNames))]+"  "),
		xmlutil.NewElement(QStatus, "\n"+SetRunning),
	)
	for _, i := range rng.Perm(len(pool))[:1+rng.Intn(min(6, len(pool)))] {
		doc.Append(randomJob(rng, pool[i]))
	}
	if rng.Intn(8) == 0 { // a name twice
		doc.Append(randomJob(rng, doc.Children[2].Attr(qNameAttr)))
	}
	return doc.Append(xmlutil.NewElement(QTopic, " topic\x02 "))
}

// TestLiveSetLoadsAsStored: random sequences of creates, job-level and
// set-level writes, notified stamps, destroys and failing commits, over
// sets with plain names and with names that decoding trims or scrubs.
// After every step a Load through the home that keeps live sets must
// equal a Load through a fresh home over the same store, which has none.
func TestLiveSetLoadsAsStored(t *testing.T) {
	liveReads := map[bool]int{} // by whether the names were odd
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		store := wsrf.NewStateHome(resourcedb.NewStore().MustTable("jobsets", resourcedb.BlobCodec{}))
		faulty := &faultyHome{ResourceHome: store}
		home := newJobSetHome(faulty)
		pool := oddNames[:3]
		if seed%2 == 0 {
			pool = oddNames
		}
		var ids []string
		pick := func() string { return ids[rng.Intn(len(ids))] }
		for step := 0; step < 200; step++ {
			if rng.Intn(8) == 0 {
				faulty.failIn, faulty.late = 1+rng.Intn(3), rng.Intn(2) == 0
			}
			var op string
			var err error
			switch k := rng.Intn(20); {
			case k < 2 || len(ids) == 0:
				id := fmt.Sprintf("set-%d", len(ids))
				ids = append(ids, id)
				op, err = "create "+id, home.Create(id, randomSetDocument(rng, pool))
			case k < 11:
				id := pick()
				var jobs []*xmlutil.Element
				for n := 1 + rng.Intn(3); n > 0; n-- {
					jobs = append(jobs, randomJob(rng, pool[rng.Intn(len(pool))]))
				}
				if !home.Exists(id) {
					continue // persist writes no row for a set that is gone
				}
				op, err = "saveJobs "+id, home.saveJobs(id, jobs)
			case k < 17:
				id := pick()
				doc, lerr := home.Load(id)
				if lerr != nil {
					continue
				}
				doc.Child(QStatus).Text = []string{SetRunning, SetCompleted, " Failed "}[rng.Intn(3)]
				for _, c := range doc.ChildrenNamed(QJobState) {
					if rng.Intn(2) == 0 {
						c.SetAttr(qStatusAttr, JobCompleted)
					}
				}
				switch rng.Intn(4) {
				case 0:
					doc = randomSetDocument(rng, pool) // a caller's own document
				case 1:
					doc.SetAttr(qNotifiedAttr, "true")
				}
				op, err = "save "+id, home.Save(id, doc)
			default:
				id := pick()
				if !home.Exists(id) {
					continue
				}
				op, err = "destroy "+id, home.Destroy(id)
			}
			if err != nil && !errors.Is(err, errCommit) {
				t.Fatalf("seed %d step %d: %s: %v", seed, step, op, err)
			}
			fresh := newJobSetHome(store)
			for _, id := range ids {
				if home.liveOf(id) != nil {
					liveReads[seed%2 == 0]++
				}
				got, gerr := home.Load(id)
				want, werr := fresh.Load(id)
				if (gerr == nil) != (werr == nil) || gerr == nil && !got.Equal(want) {
					t.Fatalf("seed %d step %d, after %s (%v): %s reads\n%s (%v)\nthe store holds\n%s (%v)", seed, step, op, err, id, got, gerr, want, werr)
				}
			}
		}
	}
	if liveReads[false] < 1000 || liveReads[true] < 1000 {
		t.Fatalf("reads of a live set: %d of sets with plain names, %d with odd ones", liveReads[false], liveReads[true])
	}
}

// countingCodec is the blob codec, counting its decodes.
type countingCodec struct {
	resourcedb.BlobCodec
	decodes atomic.Int64
}

func (c *countingCodec) Decode(data []byte) (*xmlutil.Element, error) {
	c.decodes.Add(1)
	return c.BlobCodec.Decode(data)
}

// TestLiveSetReadsDecodeNothing: while a 64-job set runs, with a reader
// polling it, its status reads and its set-level writes decode no row of
// the store; once the notified stamp is on, the home keeps nothing of
// the set, which reads correctly through the store.
func TestLiveSetReadsDecodeNothing(t *testing.T) {
	codec := &countingCodec{}
	s := newBareService(t, wsrf.NewStateHome(resourcedb.NewStore().MustTable("jobsets", codec)))
	spec := &JobSetSpec{Name: "wide"}
	for i := 0; i < 64; i++ {
		spec.Jobs = append(spec.Jobs, JobSpec{Name: fmt.Sprintf("j%02d", i), Executable: "local://x.app"})
	}
	spec.Jobs[7].Retry.Limit = 1
	h, _ := storedSet(t, s, "set-1", spec)
	ctx := context.Background()
	rc := wsrf.NewResourceClient(serve(s), s.WSRF().EPRFor("set-1"))
	read := func() ([]*xmlutil.Element, error) {
		states, err := rc.GetProperty(ctx, QJobState)
		if err == nil && len(states) != len(spec.Jobs) {
			err = fmt.Errorf("%d jobs", len(states))
		}
		return states, err
	}
	persist := h.after
	h.after = func(ev event, fx effects) { // a read after every write
		persist(ev, fx)
		if _, err := read(); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // a monitoring portal, beside the writes
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if _, err := read(); err != nil {
					t.Errorf("GetResourceProperty(JobState): %v", err)
					return
				}
			}
		}
	}()
	runToCompletion(h, "j07")
	h.want(SetCompleted, nil)
	close(stop)
	wg.Wait()
	if n := codec.decodes.Load(); n != 0 {
		t.Fatalf("running a 64-job set beside its reader decoded %d rows", n)
	}
	states, err := read()
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range states {
		if st.Attr(qStatusAttr) != JobCompleted {
			t.Fatalf("a completed set reads job %s", st)
		}
	}
	if err := s.svc.UpdateResource("set-1", func(doc *xmlutil.Element) error {
		doc.Child(QTopic).Text = "renamed"
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if n := codec.decodes.Load(); n != 0 {
		t.Fatalf("a set-level UpdateResource decoded %d rows", n)
	}

	if err := s.stampNotified("set-1"); err != nil {
		t.Fatal(err)
	}
	s.home.mu.RLock()
	kept := len(s.home.live)
	s.home.mu.RUnlock()
	if kept != 0 {
		t.Fatalf("after the notified stamp the home keeps %d sets", kept)
	}
	doc, err := s.home.Load("set-1")
	if err != nil {
		t.Fatal(err)
	}
	v := ParseJobSetDocument(doc)
	if !v.Notified || v.Status != SetCompleted || len(v.Jobs) != len(spec.Jobs) || v.Job("j07").Attempt != 1 || doc.ChildText(QTopic) != "renamed" {
		t.Fatalf("the finished set reads through the store as %+v", v)
	}
	for _, j := range v.Jobs {
		if j.Status != JobCompleted || j.Dir.IsZero() {
			t.Fatalf("the finished set reads job %+v", j)
		}
	}
	if n := codec.decodes.Load(); n != 1+int64(len(spec.Jobs)) {
		t.Fatalf("a read of the finished set decoded %d rows, want its document and its %d rows", n, len(spec.Jobs))
	}
}

// existsCounting is a home that counts the Exists calls made of it.
type existsCounting struct {
	wsrf.ResourceHome
	exists int
}

func (h *existsCounting) Exists(id string) bool {
	h.exists++
	return h.ResourceHome.Exists(id)
}

// TestRowWriteAsksNoExists: a job's row write leaves the existence check
// to the store's Save, which makes it anyway; the row is created only
// when that Save finds none. Neither the first write of a row nor its
// rewrite asks the inner home whether the row exists.
func TestRowWriteAsksNoExists(t *testing.T) {
	inner := &existsCounting{ResourceHome: wsrf.NewStateHome(resourcedb.NewStore().MustTable("jobsets", resourcedb.BlobCodec{}))}
	home := newJobSetHome(inner)
	job := func(status string) *xmlutil.Element {
		return (&xmlutil.Element{Name: QJobState}).SetAttr(qNameAttr, "j0").SetAttr(qStatusAttr, status)
	}
	doc := xmlutil.NewContainer(xmlutil.Q(NS, "JobSetState"),
		xmlutil.NewElement(QName, "s"), xmlutil.NewElement(QStatus, SetRunning), job(JobPending), xmlutil.NewElement(QTopic, "t"))
	if err := home.Create("set-1", doc); err != nil {
		t.Fatal(err)
	}
	for _, status := range []string{JobRunning, JobCompleted} {
		inner.exists = 0
		if err := home.saveJobs("set-1", []*xmlutil.Element{job(status)}); err != nil {
			t.Fatal(err)
		}
		if inner.exists != 0 {
			t.Errorf("writing the row as %s asked Exists %d times", status, inner.exists)
		}
		got, err := newJobSetHome(inner.ResourceHome).Load("set-1")
		if err != nil {
			t.Fatal(err)
		}
		if v := ParseJobSetDocument(got); v.Job("j0").Status != status {
			t.Fatalf("after writing the row as %s the store reads %+v", status, v.Job("j0"))
		}
	}
}
