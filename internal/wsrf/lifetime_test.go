package wsrf

import (
	"context"
	"errors"
	"fmt"
	"log"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"uvacg/internal/resourcedb"
	"uvacg/internal/xmlutil"
)

func TestDestroyViaPortType(t *testing.T) {
	h := newHarness(t)
	rc := h.mustCreate(t, "job-1")
	ctx := context.Background()

	var destroyed []string
	var mu sync.Mutex
	h.svc.OnDestroy(func(id string) {
		mu.Lock()
		destroyed = append(destroyed, id)
		mu.Unlock()
	})

	if err := rc.Destroy(ctx); err != nil {
		t.Fatal(err)
	}
	if h.svc.Home().Exists("job-1") {
		t.Fatal("resource survived Destroy")
	}
	mu.Lock()
	if len(destroyed) != 1 || destroyed[0] != "job-1" {
		t.Fatalf("destroy hooks saw %v", destroyed)
	}
	mu.Unlock()

	// Destroying again faults: the resource is gone.
	if err := rc.Destroy(ctx); err == nil {
		t.Fatal("double destroy succeeded")
	}
	// The save-back suppression worked: Destroy must not resurrect the
	// row via the pipeline's save.
	if h.svc.Home().Exists("job-1") {
		t.Fatal("pipeline save resurrected destroyed resource")
	}
}

// waitGone waits for scheduled destruction to take id out of the home.
func waitGone(t *testing.T, home ResourceHome, id string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for home.Exists(id) {
		if time.Now().After(deadline) {
			t.Fatalf("%s outlived its termination time", id)
		}
		time.Sleep(time.Millisecond)
	}
}

// waiting counts the holders of id's lock and those waiting for it.
func (rl *resourceLocks) waiting(id string) int {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	if e := rl.locks[id]; e != nil {
		return e.refs
	}
	return 0
}

// setTermination runs SetTerminationTime on id as the pipeline does: under
// the resource's lock, handler then save.
func (s *Service) setTermination(id string, tt time.Time) error {
	defer s.LockResource(id)()
	return s.setTerminationLocked(id, tt)
}

// setTerminationLocked is setTermination for a caller holding id's lock.
func (s *Service) setTerminationLocked(id string, tt time.Time) error {
	doc, err := s.home.Load(id)
	if err != nil {
		return err
	}
	inv := &Invocation{Service: s, ResourceID: id, Doc: doc}
	if _, err := s.handleSetTerminationTime(context.Background(), inv, SetTerminationTimeRequest(tt)); err != nil {
		return err
	}
	return s.home.Save(id, inv.Doc)
}

// disarmAll stops every termination timer of s.
func (s *Service) disarmAll() {
	s.terms.mu.Lock()
	defer s.terms.mu.Unlock()
	for id := range s.terms.timers {
		s.terms.stop(id)
	}
}

// armed reports whether id has a termination timer.
func (s *Service) armed(id string) bool {
	s.terms.mu.Lock()
	defer s.terms.mu.Unlock()
	return s.terms.timers[id] != nil
}

// TestSetTerminationTimeArmsATimer: SetTerminationTime arms a timer
// that destroys the resource at that time and leaves an unscheduled one
// alone.
func TestSetTerminationTimeArmsATimer(t *testing.T) {
	h := newHarness(t)
	rc1 := h.mustCreate(t, "job-1")
	h.mustCreate(t, "job-2")
	ctx := context.Background()
	destroyed := make(chan string, 2)
	h.svc.OnDestroy(func(id string) { destroyed <- id })

	tt := time.Now().Add(50 * time.Millisecond)
	if err := rc1.SetTerminationTime(ctx, tt); err != nil {
		t.Fatal(err)
	}
	// Termination time is itself a readable resource property.
	if got, err := rc1.GetPropertyText(ctx, QTerminationTime); err != nil || got == "" {
		t.Fatalf("TerminationTime property: %q %v", got, err)
	}
	waitGone(t, h.svc.Home(), "job-1")
	if time.Now().Before(tt) {
		t.Fatal("resource destroyed before its termination time")
	}
	if id := <-destroyed; id != "job-1" {
		t.Fatalf("destroy hook saw %q", id)
	}
	if h.svc.armed("job-1") {
		t.Fatal("a destroyed resource keeps its timer")
	}
	if !h.svc.Home().Exists("job-2") {
		t.Fatal("unscheduled resource was destroyed")
	}
}

func TestSetTerminationTimeIndefinite(t *testing.T) {
	h := newHarness(t)
	rc := h.mustCreate(t, "job-1")
	ctx := context.Background()
	if err := rc.SetTerminationTime(ctx, time.Now().Add(time.Minute)); err != nil {
		t.Fatal(err)
	}
	// Clearing with the zero time removes the scheduled destruction.
	if err := rc.SetTerminationTime(ctx, time.Time{}); err != nil {
		t.Fatal(err)
	}
	doc, err := h.svc.LoadResource("job-1")
	if err != nil {
		t.Fatal(err)
	}
	if _, scheduled := TerminationTimeOf(doc); scheduled {
		t.Fatal("termination time not cleared")
	}
}

func TestSetTerminationTimeRejectsGarbage(t *testing.T) {
	h := newHarness(t)
	rc := h.mustCreate(t, "job-1")
	req := SetTerminationTimeRequest(time.Time{})
	req.Children[0].Text = "not-a-time"
	_, err := h.client.Call(context.Background(), rc.EPR(), ActionSetTerminationTime, req)
	if bf, ok := BaseFaultFromError(err); !ok || bf.ErrorCode != "UnableToSetTerminationTimeFault" {
		t.Fatalf("want UnableToSetTerminationTimeFault, got %v", err)
	}
}

// TestTerminationTimerHonorsExtendAndCancel: re-setting the termination
// time postpones the destruction, clearing it cancels the destruction,
// and destroying the resource another way disarms its timer.
func TestTerminationTimerHonorsExtendAndCancel(t *testing.T) {
	h := newHarness(t)
	rcExtended := h.mustCreate(t, "job-extended")
	rcCancelled := h.mustCreate(t, "job-cancelled")
	rcDestroyed := h.mustCreate(t, "job-destroyed")
	rcExpiring := h.mustCreate(t, "job-expiring")
	ctx := context.Background()
	soon := time.Now().Add(200 * time.Millisecond) // well after the writes below

	for _, rc := range []*ResourceClient{rcExtended, rcCancelled, rcDestroyed, rcExpiring} {
		if err := rc.SetTerminationTime(ctx, soon); err != nil {
			t.Fatal(err)
		}
	}
	if err := rcExtended.SetTerminationTime(ctx, soon.Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	if err := rcCancelled.SetTerminationTime(ctx, time.Time{}); err != nil {
		t.Fatal(err)
	}
	if err := rcDestroyed.Destroy(ctx); err != nil {
		t.Fatal(err)
	}
	if h.svc.armed("job-cancelled") || h.svc.armed("job-destroyed") {
		t.Fatal("a cancelled or destroyed resource keeps its timer")
	}
	waitGone(t, h.svc.Home(), "job-expiring")
	time.Sleep(20 * time.Millisecond) // past the superseded deadline too
	if !h.svc.Home().Exists("job-extended") {
		t.Fatal("extended resource destroyed at its superseded deadline")
	}
	if !h.svc.Home().Exists("job-cancelled") {
		t.Fatal("cancelled termination still destroyed the resource")
	}
	if !h.svc.armed("job-extended") {
		t.Fatal("the extension armed no timer")
	}
}

// TestExtendRacingTheFiringTimerKeepsTheResource: the timer fires while an
// extension holds the resource's lock. The extension commits first, so
// the fired timer, let in after it, must leave the resource alone.
func TestExtendRacingTheFiringTimerKeepsTheResource(t *testing.T) {
	h := newHarness(t)
	h.mustCreate(t, "job-1")
	release := h.svc.LockResource("job-1")
	if err := h.svc.setTerminationLocked("job-1", time.Now()); err != nil {
		release()
		t.Fatal(err)
	}
	// The timer fires at once and waits for the lock: a second holder of
	// its entry.
	deadline := time.Now().Add(5 * time.Second)
	for h.svc.locks.waiting("job-1") < 2 {
		if time.Now().After(deadline) {
			release()
			t.Fatal("the timer never came for the lock")
		}
		time.Sleep(time.Millisecond)
	}
	err := h.svc.setTerminationLocked("job-1", time.Now().Add(time.Hour))
	release()
	if err != nil {
		t.Fatal(err)
	}

	// The fired timer has the lock now; once it is through, the
	// resource's lock entry is gone.
	for h.svc.locks.waiting("job-1") > 0 {
		if time.Now().After(deadline) {
			t.Fatal("the fired timer never finished")
		}
		time.Sleep(time.Millisecond)
	}
	if !h.svc.Home().Exists("job-1") {
		t.Fatal("a timer that fired before the extension destroyed the resource")
	}
	if !h.svc.armed("job-1") {
		t.Fatal("the extension's timer is gone")
	}
}

// TestReopenedServiceDestroysWhatExpiredWhileClosed: a termination time
// that passed while the service was down fires as soon as a service over
// the same durable store enables the lifetime port type, and the destroy
// hooks registered before it see the destroy.
func TestReopenedServiceDestroysWhatExpiredWhileClosed(t *testing.T) {
	dir := t.TempDir()
	open := func() (*resourcedb.DurableStore, *Service) {
		ds, err := resourcedb.OpenDurable(dir, resourcedb.DurableOptions{})
		if err != nil {
			t.Fatal(err)
		}
		svc := MustService(ServiceConfig{Path: "/S", Address: "inproc://node-a", Home: NewStateHome(ds.MustTable("jobs", resourcedb.StructuredCodec{}))})
		return ds, svc
	}

	// What a process that went down left: two stored termination times,
	// one of them passed, and no timer.
	ds, svc := open()
	tt := time.Now()
	for id, when := range map[string]time.Time{"expiring": tt, "kept": tt.Add(time.Hour)} {
		doc := jobStateDoc("Running", 0)
		doc.Append(xmlutil.NewElement(QTerminationTime, when.UTC().Format(time.RFC3339Nano)))
		if _, err := svc.CreateResource(id, doc); err != nil {
			t.Fatal(err)
		}
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}

	ds, svc = open()
	defer ds.Close()
	destroyed := make(chan string, 2)
	svc.OnDestroy(func(id string) { destroyed <- id })
	svc.Enable(LifetimePortType{})
	select {
	case id := <-destroyed:
		if id != "expiring" {
			t.Fatalf("the reopened service destroyed %q", id)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a termination time that passed while the service was down never fired")
	}
	if svc.Home().Exists("expiring") || !svc.Home().Exists("kept") {
		t.Fatal("the start-up walk destroyed the wrong resource")
	}
	if !svc.armed("kept") {
		t.Fatal("the start-up walk armed no timer for a future termination time")
	}
}

// flakyDestroyHome refuses its first failures Destroys, or every one when
// failures is negative.
type flakyDestroyHome struct {
	ResourceHome
	failures int32
	tries    atomic.Int32
}

func (h *flakyDestroyHome) Destroy(id string) error {
	if n := h.tries.Add(1); h.failures < 0 || n <= h.failures {
		return errors.New("the store refuses the delete")
	}
	return h.ResourceHome.Destroy(id)
}

// lockedBuffer is a log destination tests read while timers write.
type lockedBuffer struct {
	mu  sync.Mutex
	buf strings.Builder
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

// lines returns the logged lines that contain every one of words.
func (b *lockedBuffer) lines(words ...string) []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	var out []string
next:
	for _, line := range strings.Split(b.buf.String(), "\n") {
		for _, w := range words {
			if !strings.Contains(line, w) {
				continue next
			}
		}
		out = append(out, line)
	}
	return out
}

// TestFailedExpiryDestroyIsRetriedOnce: a fired timer whose destroy fails
// logs it under the service's path and the resource's ID and tries once
// more destroyRetryDelay later. A retry that fails too is logged, arms no
// third timer, and leaves the resource and its stored time to the next
// start's walk.
func TestFailedExpiryDestroyIsRetriedOnce(t *testing.T) {
	logged := &lockedBuffer{}
	defer log.SetOutput(log.Writer())
	log.SetOutput(logged)

	for _, tc := range []struct {
		name     string
		failures int32
	}{{"fails-once", 1}, {"always-fails", -1}} {
		t.Run(tc.name, func(t *testing.T) {
			path := "/Flaky-" + tc.name
			inner := NewStateHome(resourcedb.NewStore().MustTable("r", resourcedb.StructuredCodec{}))
			home := &flakyDestroyHome{ResourceHome: inner, failures: tc.failures}
			svc := MustService(ServiceConfig{Path: path, Address: "inproc://node-a", Home: home})
			svc.Enable(LifetimePortType{})
			defer svc.disarmAll()
			if _, err := svc.CreateResource("r", jobStateDoc("Running", 0)); err != nil {
				t.Fatal(err)
			}
			if err := svc.setTermination("r", time.Now().Add(10*time.Millisecond)); err != nil {
				t.Fatal(err)
			}

			if tc.failures > 0 {
				waitGone(t, home, "r")
				if n := home.tries.Load(); n != 2 {
					t.Fatalf("the resource went after %d destroys, want 2", n)
				}
				if got := logged.lines(path, "resource r", "retrying"); len(got) != 1 {
					t.Fatalf("logged %q, want the failed destroy once", got)
				}
				return
			}
			deadline := time.Now().Add(5 * time.Second)
			for len(logged.lines(path, "resource r")) < 2 {
				if time.Now().After(deadline) {
					t.Fatalf("logged %q, want both failed destroys", logged.lines(path))
				}
				time.Sleep(time.Millisecond)
			}
			if n := home.tries.Load(); n != 2 || svc.armed("r") {
				t.Fatalf("after %d destroys the resource is armed=%v, want 2 and no third timer", n, svc.armed("r"))
			}
			doc, err := inner.Load("r")
			if err != nil {
				t.Fatalf("a resource whose destroy failed twice is gone: %v", err)
			}
			if _, ok := TerminationTimeOf(doc); !ok {
				t.Fatal("the resource lost the termination time the next start obeys")
			}
			// The next start's walk, over a store that deletes again.
			restarted := MustService(ServiceConfig{Path: path, Address: "inproc://node-a", Home: inner})
			restarted.Enable(LifetimePortType{})
			waitGone(t, inner, "r")
		})
	}
}

func TestTerminationTimeOfMalformed(t *testing.T) {
	doc := jobStateDoc("Running", 0)
	if _, ok := TerminationTimeOf(doc); ok {
		t.Fatal("doc without TT reported scheduled")
	}
	if _, ok := TerminationTimeOf(nil); ok {
		t.Fatal("nil doc reported scheduled")
	}
}

// newLifetimeService is the E9 rig: n resources in an in-memory store
// and a service over them, its lifetime port type not yet enabled. Every
// eighth resource is stored with termination time tt, unless tt is zero.
func newLifetimeService(tb testing.TB, n int, tt time.Time) (*Service, []string) {
	tb.Helper()
	svc := MustService(ServiceConfig{Path: "/S", Address: "inproc://bench", Home: NewStateHome(resourcedb.NewStore().MustTable("r", resourcedb.StructuredCodec{}))})
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("res-%06d", i)
		doc := xmlutil.NewContainer(xmlutil.Q(nsJob, "State"), xmlutil.NewElement(xmlutil.Q(nsJob, "Payload"), "x"))
		if i%8 == 0 && !tt.IsZero() {
			doc.Append(xmlutil.NewElement(QTerminationTime, tt.UTC().Format(time.RFC3339Nano)))
		}
		if _, err := svc.CreateResource(ids[i], doc); err != nil {
			tb.Fatal(err)
		}
	}
	return svc, ids
}

// BenchmarkE9_Lifetime measures scheduled destruction as resource
// populations grow: arm, one SetTerminationTime's timer work against a
// heap of n timers; walk, the start-up pass that arms the stored times of
// n resources (an eighth of them scheduled); fire, how late the timers of
// n/8 resources due at one instant destroy them (late-p50-us,
// late-p99-us; its ns/op is mostly the 20 ms it waits).
func BenchmarkE9_Lifetime(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("arm/resources=%d", n), func(b *testing.B) {
			svc, ids := newLifetimeService(b, n, time.Time{})
			far := time.Now().Add(time.Hour)
			for _, id := range ids {
				svc.arm(id, far)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				svc.arm(ids[i%n], far)
			}
			b.StopTimer()
			svc.disarmAll()
		})
		b.Run(fmt.Sprintf("walk/resources=%d", n), func(b *testing.B) {
			stored, _ := newLifetimeService(b, n, time.Now().Add(time.Hour))
			cfg := ServiceConfig{Path: "/S", Address: "inproc://bench", Home: stored.Home()}
			var walking time.Duration // Enable alone: not the disarm after it
			for i := 0; i < b.N; i++ {
				svc := MustService(cfg)
				start := time.Now()
				svc.Enable(LifetimePortType{})
				walking += time.Since(start)
				svc.disarmAll()
			}
			b.ReportMetric(float64(walking.Nanoseconds())/float64(b.N), "ns/op")
		})
		b.Run(fmt.Sprintf("fire/resources=%d", n), func(b *testing.B) {
			var late []time.Duration
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				svc, ids := newLifetimeService(b, n, time.Time{})
				svc.Enable(LifetimePortType{})
				tt := time.Now().Add(20 * time.Millisecond)
				var mu sync.Mutex
				done := make(chan struct{})
				left := (n + 7) / 8
				svc.OnDestroy(func(string) {
					mu.Lock()
					defer mu.Unlock()
					late = append(late, time.Since(tt))
					if left--; left == 0 {
						close(done)
					}
				})
				for k := 0; k < n; k += 8 {
					if err := svc.setTermination(ids[k], tt); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
				<-done
			}
			slices.Sort(late)
			b.ReportMetric(float64(late[len(late)/2].Microseconds()), "late-p50-us")
			b.ReportMetric(float64(late[len(late)*99/100].Microseconds()), "late-p99-us")
		})
	}
}

// TestLifetimeHarness keeps the E9 rig honest: the start-up walk arms the
// eighth of the resources stored with a termination time, and when that
// time comes their timers destroy exactly those.
func TestLifetimeHarness(t *testing.T) {
	tt := time.Now().Add(200 * time.Millisecond) // after the walk below
	svc, ids := newLifetimeService(t, 64, tt)
	destroyed := make(chan string, len(ids))
	svc.OnDestroy(func(id string) { destroyed <- id })
	svc.Enable(LifetimePortType{})
	for i, id := range ids {
		if svc.armed(id) != (i%8 == 0) {
			t.Fatalf("after the walk %s armed=%v", id, svc.armed(id))
		}
	}
	for range 8 {
		select {
		case id := <-destroyed:
			if i := slices.Index(ids, id); i%8 != 0 {
				t.Fatalf("%s destroyed, which has no termination time", id)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("a scheduled resource outlived its termination time")
		}
	}
	time.Sleep(10 * time.Millisecond)
	if n := len(svc.Home().IDs()); n != 56 || len(destroyed) != 0 {
		t.Fatalf("%d resources left and %d more destroyed; want 56 and 0", n, len(destroyed))
	}
}
