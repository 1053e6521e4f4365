package soap

import (
	"context"
	"reflect"
	"testing"

	"uvacg/internal/xmlutil"
)

// Dispatch is DispatchCall for a server-side call described by its
// action alone.
func (d *Dispatcher) Dispatch(ctx context.Context, action string, req *Envelope) (*Envelope, error) {
	return d.DispatchCall(ctx, &CallInfo{Side: ServerSide, Action: action, Request: req})
}

func echoHandler(ctx context.Context, req *Envelope) (*Envelope, error) {
	return New(req.Body.Clone()), nil
}

func TestDispatcherRoutesByAction(t *testing.T) {
	d := NewDispatcher()
	d.Register("urn:Echo", echoHandler)
	d.Register("urn:Fail", func(ctx context.Context, req *Envelope) (*Envelope, error) {
		return nil, SenderFault("always fails")
	})

	req := New(xmlutil.NewElement(xmlutil.Q(nsT, "ping"), "hi"))
	resp, err := d.Dispatch(context.Background(), "urn:Echo", req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Body.Text != "hi" {
		t.Errorf("echo = %q", resp.Body.Text)
	}

	_, err = d.Dispatch(context.Background(), "urn:Fail", req)
	if f, ok := AsFault(err); !ok || f.Code != CodeSender {
		t.Fatalf("want sender fault, got %v", err)
	}

	_, err = d.Dispatch(context.Background(), "urn:Nope", req)
	if f, ok := AsFault(err); !ok || f.Code != CodeSender {
		t.Fatalf("unknown action should be a sender fault, got %v", err)
	}
}

// TestDispatcherVoidResponse: a void method's (nil, nil) comes through the
// interceptor chain as it left the handler; the transport sends it as the
// empty reply.
func TestDispatcherVoidResponse(t *testing.T) {
	d := NewDispatcher()
	d.Use(func(ctx context.Context, call *CallInfo, next Handler) (*Envelope, error) { return next(ctx, call) })
	d.Register("urn:Void", func(ctx context.Context, req *Envelope) (*Envelope, error) {
		return nil, nil
	})
	if resp, err := d.Dispatch(context.Background(), "urn:Void", &Envelope{}); resp != nil || err != nil {
		t.Fatalf("void = %+v, %v; want nil, nil", resp, err)
	}
}

// TestDispatchToEnvelopeFault: a dispatch error takes the fault form a
// transport server sends back on the wire.
func TestDispatchToEnvelopeFault(t *testing.T) {
	_, err := NewDispatcher().Dispatch(context.Background(), "urn:Missing", &Envelope{})
	if resp := FaultFromError(err).Envelope(); !IsFault(resp.Body) {
		t.Fatalf("want fault envelope, got body=%v", resp.Body)
	}
}

func TestDispatcherInterceptorOrder(t *testing.T) {
	d := NewDispatcher()
	var order []string
	mk := func(name string) Interceptor {
		return func(ctx context.Context, call *CallInfo, next Handler) (*Envelope, error) {
			order = append(order, name+"-in")
			resp, err := next(ctx, call)
			order = append(order, name+"-out")
			return resp, err
		}
	}
	d.Use(mk("outer"))
	d.Use(mk("inner"))
	d.Register("urn:Echo", echoHandler)
	if _, err := d.Dispatch(context.Background(), "urn:Echo", New(xmlutil.NewElement(xmlutil.Q(nsT, "p"), ""))); err != nil {
		t.Fatal(err)
	}
	want := []string{"outer-in", "inner-in", "inner-out", "outer-out"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("interceptor order = %v", order)
	}
}

func TestDispatcherInterceptorSeesCallInfo(t *testing.T) {
	d := NewDispatcher()
	var seen CallInfo
	d.Use(func(ctx context.Context, call *CallInfo, next Handler) (*Envelope, error) {
		seen = *call
		return next(ctx, call)
	})
	d.Register("urn:Echo", echoHandler)
	call := &CallInfo{
		Side:    ServerSide,
		Path:    "/Svc",
		Action:  "urn:Echo",
		Request: New(xmlutil.NewElement(xmlutil.Q(nsT, "p"), "x")),
	}
	if _, err := d.DispatchCall(context.Background(), call); err != nil {
		t.Fatal(err)
	}
	if seen.Path != "/Svc" || seen.Action != "urn:Echo" || seen.Side != ServerSide {
		t.Fatalf("interceptor saw %+v", seen)
	}
}

func TestChainShortCircuit(t *testing.T) {
	d := NewDispatcher()
	d.Use(func(ctx context.Context, call *CallInfo, next Handler) (*Envelope, error) {
		return nil, SenderFault("blocked")
	})
	reached := false
	d.Register("urn:Echo", func(ctx context.Context, req *Envelope) (*Envelope, error) {
		reached = true
		return nil, nil
	})
	_, err := d.Dispatch(context.Background(), "urn:Echo", &Envelope{})
	if f, ok := AsFault(err); !ok || f.Code != CodeSender {
		t.Fatalf("want sender fault, got %v", err)
	}
	if reached {
		t.Fatal("short-circuited interceptor must not reach the handler")
	}
}

func TestDispatcherRegistrationPanics(t *testing.T) {
	d := NewDispatcher()
	d.Register("urn:A", echoHandler)
	for name, fn := range map[string]func(){
		"duplicate": func() { d.Register("urn:A", echoHandler) },
		"empty":     func() { d.Register("", echoHandler) },
		"nil":       func() { d.Register("urn:B", nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestMux(t *testing.T) {
	m := NewMux()
	fss := NewDispatcher()
	es := NewDispatcher()
	m.Handle("/FileSystemService", fss)
	m.Handle("/ExecutionService", es)
	if d, ok := m.Lookup("/FileSystemService"); !ok || d != fss {
		t.Fatal("lookup failed")
	}
	if d, ok := m.Lookup("/ExecutionService"); !ok || d != es {
		t.Fatal("lookup failed")
	}
	if _, ok := m.Lookup("/Nope"); ok {
		t.Fatal("lookup of absent path should fail")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("duplicate path should panic")
			}
		}()
		m.Handle("/ExecutionService", es)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("relative path should panic")
			}
		}()
		m.Handle("nope", es)
	}()
}
