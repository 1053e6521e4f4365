package wsrf

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"testing"
	"time"

	"uvacg/internal/resourcedb"
	"uvacg/internal/soap"
	"uvacg/internal/transport"
	"uvacg/internal/wsa"
	"uvacg/internal/xmlutil"
)

const nsJob = "urn:uvacg:es"

var (
	qStatus  = xmlutil.Q(nsJob, "Status")
	qCPUTime = xmlutil.Q(nsJob, "CPUTime")
	qBanner  = xmlutil.Q(nsJob, "Banner")
	qIncr    = xmlutil.Q(nsJob, "Increment")
	qCreate  = xmlutil.Q(nsJob, "CreateJob")
	qCount   = xmlutil.Q(nsJob, "Counter")
)

const (
	actionIncrement = nsJob + "/Increment"
	actionCreate    = nsJob + "/CreateJob"
)

// countingHome wraps a home and counts load/save traffic so tests can
// assert the pipeline's database behaviour.
type countingHome struct {
	ResourceHome
	mu    sync.Mutex
	loads int
	saves int
}

func (h *countingHome) Load(id string) (*xmlutil.Element, error) {
	h.mu.Lock()
	h.loads++
	h.mu.Unlock()
	return h.ResourceHome.Load(id)
}

func (h *countingHome) Save(id string, doc *xmlutil.Element) error {
	h.mu.Lock()
	h.saves++
	h.mu.Unlock()
	return h.ResourceHome.Save(id, doc)
}

func (h *countingHome) counts() (int, int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.loads, h.saves
}

// testHarness hosts one job-like service on an inproc network.
type testHarness struct {
	svc    *Service
	home   *countingHome
	client *transport.Client
}

func jobStateDoc(status string, cpu int) *xmlutil.Element {
	return xmlutil.NewContainer(xmlutil.Q(nsJob, "JobState"),
		xmlutil.NewElement(qStatus, status),
		xmlutil.NewElement(qCPUTime, strconv.Itoa(cpu)),
	)
}

func newHarness(t *testing.T) *testHarness {
	t.Helper()
	store := resourcedb.NewStore()
	home := &countingHome{ResourceHome: NewStateHome(store.MustTable("jobs", resourcedb.StructuredCodec{}))}
	svc := MustService(ServiceConfig{Path: "/ExecutionService", Address: "inproc://node-a", Home: home})
	svc.Enable(ResourcePropertiesPortType{})
	svc.Enable(LifetimePortType{})

	// A computed property, the [ResourceProperty] getter of Fig. 2:
	// "At <time> the string is <some_data>" — here a banner derived
	// from the state.
	svc.RegisterProperty(qBanner, func(ctx context.Context, inv *Invocation) ([]*xmlutil.Element, error) {
		return []*xmlutil.Element{xmlutil.NewElement(qBanner, "job is "+inv.Property(qStatus))}, nil
	})

	// An author method mutating state (the wrapper must save it back).
	svc.RegisterMethod(actionIncrement, func(ctx context.Context, inv *Invocation, body *xmlutil.Element) (*xmlutil.Element, error) {
		n, _ := strconv.Atoi(inv.Property(qCPUTime))
		inv.SetProperty(qCPUTime, strconv.Itoa(n+1))
		return xmlutil.NewElement(qCount, strconv.Itoa(n+1)), nil
	})

	// A factory (service-level method, no resource addressed).
	svc.RegisterServiceMethod(actionCreate, func(ctx context.Context, inv *Invocation, body *xmlutil.Element) (*xmlutil.Element, error) {
		epr, err := svc.CreateResource("", jobStateDoc("Running", 0))
		if err != nil {
			return nil, err
		}
		return epr.Element(), nil
	})

	mux := soap.NewMux()
	mux.Handle(svc.Path(), svc.Dispatcher())
	network := transport.NewNetwork()
	network.Register("node-a", transport.NewServer(mux))
	return &testHarness{svc: svc, home: home, client: transport.NewClient().WithNetwork(network)}
}

func (h *testHarness) mustCreate(t *testing.T, id string) *ResourceClient {
	t.Helper()
	epr, err := h.svc.CreateResource(id, jobStateDoc("Running", 10))
	if err != nil {
		t.Fatal(err)
	}
	return NewResourceClient(h.client, epr)
}

func TestGetResourcePropertyStaticAndComputed(t *testing.T) {
	h := newHarness(t)
	rc := h.mustCreate(t, "job-1")
	ctx := context.Background()

	status, err := rc.GetPropertyText(ctx, qStatus)
	if err != nil {
		t.Fatal(err)
	}
	if status != "Running" {
		t.Errorf("status = %q", status)
	}
	banner, err := rc.GetPropertyText(ctx, qBanner)
	if err != nil {
		t.Fatal(err)
	}
	if banner != "job is Running" {
		t.Errorf("computed property = %q", banner)
	}
}

func TestGetResourcePropertyUnknownFaults(t *testing.T) {
	h := newHarness(t)
	rc := h.mustCreate(t, "job-1")
	_, err := rc.GetProperty(context.Background(), xmlutil.Q(nsJob, "Nope"))
	bf, ok := BaseFaultFromError(err)
	if !ok || bf.ErrorCode != "InvalidResourcePropertyQNameFault" {
		t.Fatalf("want InvalidResourcePropertyQNameFault, got %v", err)
	}
}

func TestGetMultipleResourceProperties(t *testing.T) {
	h := newHarness(t)
	rc := h.mustCreate(t, "job-1")
	got, err := rc.GetMultiple(context.Background(), qStatus, qCPUTime, qBanner)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("got %d properties", len(got))
	}
	if got[qCPUTime][0].Text != "10" {
		t.Errorf("cpu = %q", got[qCPUTime][0].Text)
	}
}

func TestQueryResourceProperties(t *testing.T) {
	h := newHarness(t)
	rc := h.mustCreate(t, "job-1")
	ctx := context.Background()

	matches, err := rc.Query(ctx, "/Status[text()='Running']")
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 1 {
		t.Fatalf("query matches = %d", len(matches))
	}
	// Computed properties are part of the queryable document.
	matches, err = rc.Query(ctx, "/Banner")
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 1 || matches[0].Text != "job is Running" {
		t.Fatalf("computed query = %v", matches)
	}
	// Invalid expression → typed fault.
	_, err = rc.Query(ctx, "/a[")
	if bf, ok := BaseFaultFromError(err); !ok || bf.ErrorCode != "InvalidQueryExpressionFault" {
		t.Fatalf("want InvalidQueryExpressionFault, got %v", err)
	}
}

func TestQueryRejectsForeignDialect(t *testing.T) {
	h := newHarness(t)
	rc := h.mustCreate(t, "job-1")
	q := xmlutil.NewElement(qQueryExpression, "/Status")
	q.SetAttr(qDialect, "http://www.w3.org/TR/1999/REC-xpath-19991116")
	_, err := h.client.Call(context.Background(), rc.EPR(), ActionQueryResourceProperties, xmlutil.NewContainer(qQueryRP, q))
	if bf, ok := BaseFaultFromError(err); !ok || bf.ErrorCode != "UnknownQueryExpressionDialectFault" {
		t.Fatalf("want UnknownQueryExpressionDialectFault, got %v", err)
	}
}

func TestSetResourceProperties(t *testing.T) {
	h := newHarness(t)
	rc := h.mustCreate(t, "job-1")
	ctx := context.Background()
	qOwner := xmlutil.Q(nsJob, "Owner")

	// Insert.
	if err := rc.Set(ctx, InsertComponent(xmlutil.NewElement(qOwner, "wasson"))); err != nil {
		t.Fatal(err)
	}
	if got, _ := rc.GetPropertyText(ctx, qOwner); got != "wasson" {
		t.Fatalf("after insert, owner = %q", got)
	}
	// Update.
	if err := rc.Set(ctx, UpdateComponent(xmlutil.NewElement(qStatus, "Exited"))); err != nil {
		t.Fatal(err)
	}
	if got, _ := rc.GetPropertyText(ctx, qStatus); got != "Exited" {
		t.Fatalf("after update, status = %q", got)
	}
	// Delete.
	if err := rc.Set(ctx, DeleteComponent(qOwner)); err != nil {
		t.Fatal(err)
	}
	if _, err := rc.GetProperty(ctx, qOwner); err == nil {
		t.Fatal("deleted property still readable")
	}
	// Computed properties are read-only.
	err := rc.Set(ctx, UpdateComponent(xmlutil.NewElement(qBanner, "nope")))
	if bf, ok := BaseFaultFromError(err); !ok || bf.ErrorCode != "UnableToModifyResourcePropertyFault" {
		t.Fatalf("want UnableToModifyResourcePropertyFault, got %v", err)
	}
}

func TestWrapperPipelineSavesOnlyChanges(t *testing.T) {
	h := newHarness(t)
	rc := h.mustCreate(t, "job-1")
	ctx := context.Background()

	// A pure read loads but must not save.
	if _, err := rc.GetPropertyText(ctx, qStatus); err != nil {
		t.Fatal(err)
	}
	loads, saves := h.home.counts()
	if loads != 1 || saves != 0 {
		t.Fatalf("after read: loads=%d saves=%d", loads, saves)
	}
	// A mutating method loads and saves.
	body, err := h.client.Call(ctx, rc.EPR(), actionIncrement, xmlutil.NewElement(qIncr, ""))
	if err != nil {
		t.Fatal(err)
	}
	if body.Text != "11" {
		t.Fatalf("increment returned %q", body.Text)
	}
	loads, saves = h.home.counts()
	if loads != 2 || saves != 1 {
		t.Fatalf("after write: loads=%d saves=%d", loads, saves)
	}
	// The change persisted.
	if got, _ := rc.GetPropertyText(ctx, qCPUTime); got != "11" {
		t.Fatalf("persisted cpu = %q", got)
	}
}

// TestReadMethodsTakeNoLockAndSaveNothing: a method registered as
// read-only — the four WS-ResourceProperties reads are — returns while a
// writer holds the resource, passes reply attachments through like any
// method, and whatever it does to the document it was handed is dropped.
func TestReadMethodsTakeNoLockAndSaveNothing(t *testing.T) {
	h := newHarness(t)
	const actionPeek = nsJob + "/Peek"
	h.svc.RegisterReadMethod(actionPeek, func(ctx context.Context, inv *Invocation, body *xmlutil.Element) (*xmlutil.Element, error) {
		inv.SetProperty(qStatus, "scribbled")
		return xmlutil.NewContainer(qCount, inv.Attach([]byte("payload"))), nil
	})
	rc := h.mustCreate(t, "job-1")
	ctx := context.Background()

	release := h.svc.LockResource("job-1") // a writer inside its journal commit
	read := make(chan error, 1)
	go func() {
		read <- func() error {
			resp, err := h.client.Invoke(ctx, rc.EPR(), actionPeek, soap.New(xmlutil.NewElement(qIncr, "")))
			if err != nil {
				return err
			}
			if data, err := resp.ContentBytes(resp.Body); err != nil || string(data) != "payload" {
				return fmt.Errorf("reply attachment = %q %v", data, err)
			}
			if _, err := rc.GetProperty(ctx, qStatus); err != nil {
				return err
			}
			if _, err := rc.GetDocument(ctx); err != nil {
				return err
			}
			if _, err := rc.GetMultiple(ctx, qStatus, qCPUTime); err != nil {
				return err
			}
			_, err = rc.Query(ctx, "/Status")
			return err
		}()
	}()
	select {
	case err := <-read:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("read-only methods waited for the resource's lock")
	}
	release()

	if loads, saves := h.home.counts(); loads != 5 || saves != 0 {
		t.Fatalf("five reads: loads=%d saves=%d", loads, saves)
	}
	if got, _ := rc.GetPropertyText(ctx, qStatus); got != "Running" {
		t.Fatalf("a read-only method's change was saved: status %q", got)
	}
	_, err := h.client.Call(ctx, h.svc.EPRFor("no-such-job"), actionPeek, xmlutil.NewElement(qIncr, ""))
	if bf, ok := BaseFaultFromError(err); !ok || bf.ErrorCode != "ResourceUnknownFault" {
		t.Fatalf("want ResourceUnknownFault, got %v", err)
	}
}

func TestInvokeUnknownResourceFaults(t *testing.T) {
	h := newHarness(t)
	ghost := h.svc.EPRFor("no-such-job")
	_, err := h.client.Call(context.Background(), ghost, ActionGetResourceProperty, GetResourcePropertyRequest(qStatus))
	bf, ok := BaseFaultFromError(err)
	if !ok || bf.ErrorCode != "ResourceUnknownFault" {
		t.Fatalf("want ResourceUnknownFault, got %v", err)
	}
}

func TestInvokeWithoutResourceIDFaults(t *testing.T) {
	h := newHarness(t)
	_, err := h.client.Call(context.Background(), h.svc.EPR(), ActionGetResourceProperty, GetResourcePropertyRequest(qStatus))
	if bf, ok := BaseFaultFromError(err); !ok || bf.ErrorCode != "ResourceUnknownFault" {
		t.Fatalf("want ResourceUnknownFault, got %v", err)
	}
}

func TestFactoryServiceMethod(t *testing.T) {
	h := newHarness(t)
	ctx := context.Background()
	body, err := h.client.Call(ctx, h.svc.EPR(), actionCreate, xmlutil.NewElement(qCreate, ""))
	if err != nil {
		t.Fatal(err)
	}
	epr, err := wsa.ParseEPR(body)
	if err != nil {
		t.Fatal(err)
	}
	if epr.Property(QResourceID) == "" {
		t.Fatal("factory EPR has no resource id")
	}
	rc := NewResourceClient(h.client, epr)
	if got, err := rc.GetPropertyText(ctx, qStatus); err != nil || got != "Running" {
		t.Fatalf("new resource: %q %v", got, err)
	}
}

func TestPerResourceSerialization(t *testing.T) {
	h := newHarness(t)
	rc := h.mustCreate(t, "job-1")
	ctx := context.Background()
	const workers, each = 8, 20
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, err := h.client.Call(ctx, rc.EPR(), actionIncrement, xmlutil.NewElement(qIncr, "")); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	got, err := rc.GetPropertyText(ctx, qCPUTime)
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprint(10 + workers*each)
	if got != want {
		t.Fatalf("lost updates: cpu = %s, want %s", got, want)
	}
}

func TestServiceConfigValidation(t *testing.T) {
	if _, err := NewService(ServiceConfig{Path: "bad", Address: "inproc://a"}); err == nil {
		t.Error("relative path accepted")
	}
	if _, err := NewService(ServiceConfig{Path: "/S"}); err == nil {
		t.Error("missing address accepted")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("MustService should panic on bad config")
			}
		}()
		MustService(ServiceConfig{})
	}()
}

func TestDuplicatePropertyProviderPanics(t *testing.T) {
	h := newHarness(t)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	h.svc.RegisterProperty(qBanner, nil)
}

func TestPortTypeNames(t *testing.T) {
	h := newHarness(t)
	got := h.svc.PortTypes()
	if len(got) != 2 || got[0] != "WS-ResourceProperties" || got[1] != "WS-ResourceLifetime" {
		t.Fatalf("port types = %v", got)
	}
}

func TestEPRForEmptyIDIsServiceEPR(t *testing.T) {
	h := newHarness(t)
	if !h.svc.EPRFor("").Equal(h.svc.EPR()) {
		t.Fatal("EPRFor(\"\") should be the service EPR")
	}
}

func TestUpdateResourceInternal(t *testing.T) {
	h := newHarness(t)
	rc := h.mustCreate(t, "job-1")
	err := h.svc.UpdateResource("job-1", func(doc *xmlutil.Element) error {
		doc.Child(qStatus).Text = "Exited"
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := rc.GetPropertyText(context.Background(), qStatus); got != "Exited" {
		t.Fatalf("status = %q", got)
	}
	if err := h.svc.UpdateResource("ghost", func(doc *xmlutil.Element) error { return nil }); err == nil {
		t.Fatal("update of missing resource should fail")
	}
}
