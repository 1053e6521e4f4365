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

// TestDispatcherVoidResponse: a void method's (nil, nil) comes back from
// the dispatcher as it left the handler; the transport sends it as the
// empty reply.
func TestDispatcherVoidResponse(t *testing.T) {
	d := NewDispatcher()
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

// TestChainOrder: interceptors added earlier run outermost, each around
// the terminal handler Bind is given, which is handed the call.
func TestChainOrder(t *testing.T) {
	var c Chain
	var order []string
	mk := func(name string) Interceptor {
		return func(ctx context.Context, call *CallInfo, next Handler) (*Envelope, error) {
			order = append(order, name+"-in")
			resp, err := next(ctx, call)
			order = append(order, name+"-out")
			return resp, err
		}
	}
	c.Use(mk("outer"))
	c.Use(mk("inner"))
	call := &CallInfo{Side: ServerSide, Path: "/Svc", Action: "urn:Echo", Request: New(xmlutil.NewElement(xmlutil.Q(nsT, "p"), ""))}
	_, err := c.Bind(func(ctx context.Context, got *CallInfo) (*Envelope, error) {
		if got != call {
			t.Errorf("the terminal handler got %+v, want the bound call", got)
		}
		order = append(order, "terminal")
		return nil, nil
	})(context.Background(), call)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"outer-in", "inner-in", "terminal", "inner-out", "outer-out"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("interceptor order = %v", order)
	}
}

func TestChainShortCircuit(t *testing.T) {
	var c Chain
	c.Use(func(ctx context.Context, call *CallInfo, next Handler) (*Envelope, error) {
		return nil, SenderFault("blocked")
	})
	reached := false
	_, err := c.Bind(func(ctx context.Context, call *CallInfo) (*Envelope, error) {
		reached = true
		return nil, nil
	})(context.Background(), &CallInfo{Action: "urn:Echo", Request: &Envelope{}})
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
