package wsrf_test

// The paper-reproduction rigs this package owns (EXPERIMENTS.md F1, E1,
// E2; E9's is in lifetime_test.go, inside the package): each assembles just enough of the testbed to exercise one
// claim from the paper's evaluation. `go test -run '^$' -bench .`
// regenerates their tables.

import (
	"context"
	"fmt"
	"strconv"
	"testing"

	"uvacg/internal/pipeline"
	"uvacg/internal/resourcedb"
	"uvacg/internal/soap"
	"uvacg/internal/transport"
	"uvacg/internal/wsa"
	"uvacg/internal/wsrf"
	"uvacg/internal/xmlutil"
)

// nsBench is the namespace the benchmark services use.
const nsBench = "urn:uvacg:bench"

const (
	// actionCustomGet is the bespoke (non-WSRF) state accessor used as
	// the E1 baseline: the "custom interfaces for manipulating state" §5
	// weighs standardized resource properties against.
	actionCustomGet = nsBench + "/CustomGet"
	// actionReadGet is the same accessor registered as a method that only
	// reads: load → dispatch, no lock, no change detection.
	actionReadGet = nsBench + "/ReadGet"
	// actionStatelessEcho dispatches with no resource behind it — the F1
	// baseline without the load/save pipeline.
	actionStatelessEcho = nsBench + "/StatelessEcho"
	// actionMutate increments a counter property (forces a save-back).
	actionMutate = nsBench + "/Mutate"
)

var (
	qProp0   = xmlutil.Q(nsBench, "Prop0")
	qCounter = xmlutil.Q(nsBench, "Counter")
	qBanner  = xmlutil.Q(nsBench, "Banner")
	qEcho    = xmlutil.Q(nsBench, "Echo")

	benchCtx = context.Background()
)

// propertyHarness hosts one WSRF resource with nprops state properties,
// a computed property, a custom accessor and a stateless echo — the
// E1/F1 rig.
type propertyHarness struct {
	client   *transport.Client
	server   *transport.Server
	service  *wsrf.Service
	resource wsa.EndpointReference
	rc       *wsrf.ResourceClient
}

func newPropertyHarness(tb testing.TB, nprops int) *propertyHarness {
	tb.Helper()
	store := resourcedb.NewStore()
	svc, err := wsrf.NewService(wsrf.ServiceConfig{
		Path:    "/BenchService",
		Address: "inproc://bench",
		Home:    wsrf.NewStateHome(store.MustTable("bench", resourcedb.StructuredCodec{})),
	})
	if err != nil {
		tb.Fatal(err)
	}
	svc.Enable(wsrf.ResourcePropertiesPortType{})
	svc.Enable(wsrf.SetResourcePropertiesPortType{})
	svc.Enable(wsrf.LifetimePortType{})
	svc.RegisterProperty(qBanner, func(ctx context.Context, inv *wsrf.Invocation) ([]*xmlutil.Element, error) {
		return []*xmlutil.Element{xmlutil.NewElement(qBanner, "state is "+inv.Property(qProp0))}, nil
	})
	customGet := func(ctx context.Context, inv *wsrf.Invocation, body *xmlutil.Element) (*xmlutil.Element, error) {
		return xmlutil.NewElement(qProp0, inv.Property(qProp0)), nil
	}
	svc.RegisterMethod(actionCustomGet, customGet)
	svc.RegisterReadMethod(actionReadGet, customGet)
	svc.RegisterMethod(actionMutate, func(ctx context.Context, inv *wsrf.Invocation, body *xmlutil.Element) (*xmlutil.Element, error) {
		n, _ := strconv.Atoi(inv.Property(qCounter))
		inv.SetProperty(qCounter, strconv.Itoa(n+1))
		return nil, nil
	})
	svc.RegisterServiceMethod(actionStatelessEcho, func(ctx context.Context, inv *wsrf.Invocation, body *xmlutil.Element) (*xmlutil.Element, error) {
		return body.Clone(), nil
	})

	doc := xmlutil.NewContainer(xmlutil.Q(nsBench, "State"), xmlutil.NewElement(qCounter, "0"))
	for i := 0; i < nprops; i++ {
		doc.Append(xmlutil.NewElement(xmlutil.Q(nsBench, fmt.Sprintf("Prop%d", i)), fmt.Sprintf("value-%d", i)))
	}
	epr, err := svc.CreateResource("bench-resource", doc)
	if err != nil {
		tb.Fatal(err)
	}

	mux := soap.NewMux()
	mux.Handle(svc.Path(), svc.Dispatcher())
	network := transport.NewNetwork()
	server := transport.NewServer(mux)
	network.Register("bench", server)
	client := transport.NewClient().WithNetwork(network)
	return &propertyHarness{
		client:   client,
		server:   server,
		service:  svc,
		resource: epr,
		rc:       wsrf.NewResourceClient(client, epr),
	}
}

// getProperty performs one standardized GetResourceProperty.
func (h *propertyHarness) getProperty(ctx context.Context) error {
	_, err := h.rc.GetProperty(ctx, qProp0)
	return err
}

// getMultiple4 fetches four properties in one round trip.
func (h *propertyHarness) getMultiple4(ctx context.Context) error {
	names := make([]xmlutil.QName, 4)
	for i := range names {
		names[i] = xmlutil.Q(nsBench, fmt.Sprintf("Prop%d", i))
	}
	_, err := h.rc.GetMultiple(ctx, names...)
	return err
}

// query evaluates one XPath-lite query over the properties document.
func (h *propertyHarness) query(ctx context.Context) error {
	_, err := h.rc.Query(ctx, "/Prop0[text()='value-0']")
	return err
}

// queryComputed queries a provider-computed property.
func (h *propertyHarness) queryComputed(ctx context.Context) error {
	_, err := h.rc.Query(ctx, "/Banner")
	return err
}

// customGet performs the bespoke accessor call (E1 baseline).
func (h *propertyHarness) customGet(ctx context.Context) error {
	_, err := h.client.Call(ctx, h.resource, actionCustomGet, xmlutil.NewElement(qEcho, ""))
	return err
}

// readGet is customGet through the read-only form of the pipeline.
func (h *propertyHarness) readGet(ctx context.Context) error {
	_, err := h.client.Call(ctx, h.resource, actionReadGet, xmlutil.NewElement(qEcho, ""))
	return err
}

// statelessEcho dispatches without the wrapper pipeline (F1 baseline).
func (h *propertyHarness) statelessEcho(ctx context.Context) error {
	_, err := h.client.Call(ctx, h.service.EPR(), actionStatelessEcho, xmlutil.NewElement(qEcho, "ping"))
	return err
}

// mutate runs a state-changing method (load + save through the DB).
func (h *propertyHarness) mutate(ctx context.Context) error {
	_, err := h.client.Call(ctx, h.resource, actionMutate, xmlutil.NewElement(qEcho, ""))
	return err
}

// setProperty performs one SetResourceProperties update.
func (h *propertyHarness) setProperty(ctx context.Context) error {
	return h.rc.Set(ctx, wsrf.UpdateComponent(xmlutil.NewElement(qProp0, "updated")))
}

// rediscoveryHarness is the E2 rig: n resources whose EPRs a client
// could lose, recoverable only through queries.
type rediscoveryHarness struct {
	service *wsrf.Service
	table   *resourcedb.Table
	eprs    []wsa.EndpointReference
}

// newRediscoveryHarness provisions n job-like resources, a quarter of
// them with Status "Running".
func newRediscoveryHarness(tb testing.TB, n int) *rediscoveryHarness {
	tb.Helper()
	store := resourcedb.NewStore()
	table := store.MustTable("jobs", resourcedb.StructuredCodec{})
	svc, err := wsrf.NewService(wsrf.ServiceConfig{
		Path:    "/ES",
		Address: "inproc://bench",
		Home:    wsrf.NewStateHome(table),
	})
	if err != nil {
		tb.Fatal(err)
	}
	h := &rediscoveryHarness{service: svc, table: table}
	for i := 0; i < n; i++ {
		status := "Exited"
		if i%4 == 0 {
			status = "Running"
		}
		doc := xmlutil.NewContainer(xmlutil.Q(nsBench, "JobState"),
			xmlutil.NewElement(xmlutil.Q(nsBench, "Status"), status),
			xmlutil.NewElement(xmlutil.Q(nsBench, "Owner"), "scientist"),
		)
		epr, err := svc.CreateResource(fmt.Sprintf("job-%06d", i), doc)
		if err != nil {
			tb.Fatal(err)
		}
		h.eprs = append(h.eprs, epr)
	}
	return h
}

// clientTableBytes reports the bytes a client must durably hold to keep
// every EPR (the §5 coupling concern: "the amount of state (in the form
// of EPRs) that the client is expected to maintain").
func (h *rediscoveryHarness) clientTableBytes() int {
	total := 0
	for _, epr := range h.eprs {
		total += len(epr.String())
	}
	return total
}

// rediscover recovers the EPRs of all Running jobs after a total
// client-side loss, via a database-backed property query.
func (h *rediscoveryHarness) rediscover() (int, error) {
	ids, err := h.table.QueryProperty("Status", "Running")
	if err != nil {
		return 0, err
	}
	recovered := make([]wsa.EndpointReference, 0, len(ids))
	for _, id := range ids {
		recovered = append(recovered, h.service.EPRFor(id))
	}
	return len(recovered), nil
}

// BenchmarkF1_WrapperPipeline measures the Fig. 1 wrapper's cost: every
// resource invocation pays an EPR resolution plus a database load (and
// a save when state changed) that a stateless dispatch does not.
func BenchmarkF1_WrapperPipeline(b *testing.B) {
	h := newPropertyHarness(b, 8)
	cases := map[string]func(context.Context) error{
		"stateless-dispatch": h.statelessEcho,
		"load-only-read":     h.customGet,
		"read-method":        h.readGet,
		"load-save-mutate":   h.mutate,
	}
	for name, fn := range cases {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := fn(benchCtx); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE1_PropertyAccess compares the standardized
// WS-ResourceProperties interface against a bespoke accessor on the
// same state (§5: does the canonical view of state cost anything?).
// The plain cases run with an empty interceptor chain; the chain cases
// re-run GetResourceProperty with the full pipeline (request-ID,
// deadline, metrics) engaged on both sides, to price the invocation
// substrate itself.
func BenchmarkE1_PropertyAccess(b *testing.B) {
	h := newPropertyHarness(b, 8)
	cases := []struct {
		name string
		fn   func(context.Context) error
	}{
		{"GetResourceProperty", h.getProperty},
		{"GetMultiple4", h.getMultiple4},
		{"QueryResourceProperties", h.query},
		{"QueryComputedProperty", h.queryComputed},
		{"SetResourceProperties", h.setProperty},
		{"CustomInterface", h.customGet},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := c.fn(benchCtx); err != nil {
					b.Fatal(err)
				}
			}
		})
	}

	hc := newPropertyHarness(b, 8)
	metrics := pipeline.NewMetrics()
	hc.client.Use(pipeline.ClientRequestID(), pipeline.ClientDeadline(), metrics.Interceptor())
	hc.server.Use(pipeline.ServerRequestID(), pipeline.ServerDeadline())
	b.Run("GetResourceProperty/pipeline", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := hc.getProperty(benchCtx); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE2_EPRRediscovery measures recovering lost client-side EPRs
// through a database query, and reports the EPR table size a client
// would otherwise need to keep durable (§5's coupling concern).
func BenchmarkE2_EPRRediscovery(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("resources=%d", n), func(b *testing.B) {
			h := newRediscoveryHarness(b, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				recovered, err := h.rediscover()
				if err != nil {
					b.Fatal(err)
				}
				if recovered == 0 {
					b.Fatal("nothing rediscovered")
				}
			}
			// After the loop: ResetTimer deletes user-reported metrics.
			b.ReportMetric(float64(h.clientTableBytes()), "eprtable-bytes")
		})
	}
}

// The tests below keep the rigs honest: every operation the benchmarks
// time must actually succeed and observe real effects.

func TestPropertyHarnessOps(t *testing.T) {
	h := newPropertyHarness(t, 4)
	for name, fn := range map[string]func(context.Context) error{
		"GetProperty":   h.getProperty,
		"GetMultiple":   h.getMultiple4,
		"Query":         h.query,
		"QueryComputed": h.queryComputed,
		"CustomGet":     h.customGet,
		"Stateless":     h.statelessEcho,
		"Mutate":        h.mutate,
		"SetProperty":   h.setProperty,
	} {
		if err := fn(benchCtx); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestRediscoveryHarness(t *testing.T) {
	h := newRediscoveryHarness(t, 40)
	recovered, err := h.rediscover()
	if err != nil {
		t.Fatal(err)
	}
	if recovered != 10 { // every fourth resource is Running
		t.Fatalf("recovered %d, want 10", recovered)
	}
	if h.clientTableBytes() == 0 {
		t.Fatal("EPR table size is zero")
	}
}
