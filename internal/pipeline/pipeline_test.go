package pipeline

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
	"unsafe"

	"uvacg/internal/soap"
	"uvacg/internal/xmlutil"
)

var nsT = "urn:test"

func newCall(action string) *soap.CallInfo {
	return &soap.CallInfo{
		Side:    soap.ClientSide,
		Path:    "/Svc",
		Action:  action,
		Request: soap.New(xmlutil.NewElement(xmlutil.Q(nsT, "p"), "x")),
	}
}

func okTerminal(ctx context.Context, call *soap.CallInfo) (*soap.Envelope, error) {
	return soap.New(call.Request.Body.Clone()), nil
}

func TestDeadlineRoundTrip(t *testing.T) {
	want := time.Now().Add(90 * time.Second)
	ctx, cancel := context.WithDeadline(context.Background(), want)
	defer cancel()

	call := newCall("urn:Get")
	var serverSaw time.Time
	// Client stamps the header; the "server" side reads it from a fresh
	// background context, the situation the soap.tcp binding is in.
	_, err := ClientDeadline()(ctx, call, func(ctx context.Context, call *soap.CallInfo) (*soap.Envelope, error) {
		return ServerDeadline()(context.Background(), call, func(ctx context.Context, call *soap.CallInfo) (*soap.Envelope, error) {
			dl, ok := ctx.Deadline()
			if !ok {
				t.Fatal("server context has no deadline")
			}
			serverSaw = dl
			return nil, nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if d := serverSaw.Sub(want); d > time.Millisecond || d < -time.Millisecond {
		t.Fatalf("server deadline %v, want %v", serverSaw, want)
	}
}

func TestDeadlineAbsentMeansNone(t *testing.T) {
	call := newCall("urn:Get")
	_, err := ClientDeadline()(context.Background(), call, func(ctx context.Context, call *soap.CallInfo) (*soap.Envelope, error) {
		return ServerDeadline()(context.Background(), call, func(ctx context.Context, call *soap.CallInfo) (*soap.Envelope, error) {
			if _, ok := ctx.Deadline(); ok {
				t.Fatal("deadline appeared from nowhere")
			}
			return nil, nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDeadlineExpiredFaultsFast(t *testing.T) {
	call := newCall("urn:Get")
	call.Request.AddHeader(xmlutil.NewElement(xmlutil.Q(NS, "Deadline"),
		time.Now().Add(-time.Second).UTC().Format(time.RFC3339Nano)))
	reached := false
	_, err := ServerDeadline()(context.Background(), call, func(ctx context.Context, call *soap.CallInfo) (*soap.Envelope, error) {
		reached = true
		return nil, nil
	})
	if f, ok := soap.AsFault(err); !ok || f.Code != soap.CodeSender {
		t.Fatalf("want sender fault, got %v", err)
	}
	if reached {
		t.Fatal("expired call must not reach the handler")
	}
}

func TestDeadlineGarbageHeaderIgnored(t *testing.T) {
	call := newCall("urn:Get")
	call.Request.AddHeader(xmlutil.NewElement(xmlutil.Q(NS, "Deadline"), "not-a-time"))
	if _, err := ServerDeadline()(context.Background(), call, okTerminal); err != nil {
		t.Fatal(err)
	}
}

func TestRequestIDMintedAndPropagated(t *testing.T) {
	call := newCall("urn:Get")
	var downstream string
	_, err := ClientRequestID()(context.Background(), call, func(ctx context.Context, call *soap.CallInfo) (*soap.Envelope, error) {
		// Server hop lifts the header; a further client hop re-stamps
		// the same ID on a second message.
		return ServerRequestID()(context.Background(), call, func(ctx context.Context, _ *soap.CallInfo) (*soap.Envelope, error) {
			second := newCall("urn:Next")
			return ClientRequestID()(ctx, second, func(ctx context.Context, call *soap.CallInfo) (*soap.Envelope, error) {
				downstream = call.Request.HeaderText(xmlutil.Q(NS, "RequestID"))
				return nil, nil
			})
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	first := call.Request.HeaderText(xmlutil.Q(NS, "RequestID"))
	if first == "" {
		t.Fatal("no request ID stamped")
	}
	if downstream != first {
		t.Fatalf("downstream hop carries %q, want %q", downstream, first)
	}
}

func TestRequestIDHonorsCallerChoice(t *testing.T) {
	ctx := WithRequestID(context.Background(), "urn:uuid:chosen")
	call := newCall("urn:Get")
	if _, err := ClientRequestID()(ctx, call, okTerminal); err != nil {
		t.Fatal(err)
	}
	if got := call.Request.HeaderText(xmlutil.Q(NS, "RequestID")); got != "urn:uuid:chosen" {
		t.Fatalf("header = %q", got)
	}
}

// TestRetryFlakyTransportEventuallySucceeds: an idempotent call whose
// first two wire attempts fail succeeds on the third, after 2 ms and then
// 4 ms; one that keeps failing stops at the third attempt.
func TestRetryFlakyTransportEventuallySucceeds(t *testing.T) {
	for _, failures := range []int{retryAttempts - 1, retryAttempts} {
		p := RetryPolicy{Idempotent: IdempotentActions("urn:GetResourceProperty")}
		var sent []time.Time
		call := newCall("urn:GetResourceProperty")
		resp, err := Retry(p)(context.Background(), call, func(ctx context.Context, call *soap.CallInfo) (*soap.Envelope, error) {
			sent = append(sent, time.Now())
			if len(sent) <= failures {
				return nil, fmt.Errorf("transport: connection refused (attempt %d)", len(sent))
			}
			return okTerminal(ctx, call)
		})
		if failures < retryAttempts && (err != nil || resp == nil) {
			t.Fatalf("final attempt should succeed: %v", err)
		}
		if failures == retryAttempts && err == nil {
			t.Fatal("a call that failed every attempt succeeded")
		}
		if len(sent) != retryAttempts {
			t.Fatalf("%d failures: wire attempts = %d, want %d", failures, len(sent), retryAttempts)
		}
		// A timer never fires early: each wait is at least its backoff.
		for i, want := range []time.Duration{2 * time.Millisecond, 4 * time.Millisecond} {
			if waited := sent[i+1].Sub(sent[i]); waited < want {
				t.Fatalf("%d failures: attempt %d followed %v after the one before, want at least %v", failures, i+2, waited, want)
			}
		}
	}
}

func TestRetryNeverRepeatsNonIdempotentAction(t *testing.T) {
	p := RetryPolicy{
		Idempotent: IdempotentActions("urn:GetResourceProperty"),
	}
	calls := 0
	_, err := Retry(p)(context.Background(), newCall("urn:Run"), func(ctx context.Context, call *soap.CallInfo) (*soap.Envelope, error) {
		calls++
		return nil, errors.New("transport: broken pipe")
	})
	if err == nil {
		t.Fatal("expected the transport error through")
	}
	if calls != 1 {
		t.Fatalf("Run was attempted %d times; it must never be retried", calls)
	}
}

func TestRetryStopsOnFault(t *testing.T) {
	p := RetryPolicy{
		Idempotent: func(string) bool { return true },
	}
	calls := 0
	_, err := Retry(p)(context.Background(), newCall("urn:Get"), func(ctx context.Context, call *soap.CallInfo) (*soap.Envelope, error) {
		calls++
		return nil, soap.SenderFault("no such property")
	})
	if _, ok := soap.AsFault(err); !ok {
		t.Fatalf("fault should surface unchanged, got %v", err)
	}
	if calls != 1 {
		t.Fatalf("a fault is a definitive answer; attempted %d times", calls)
	}
}

func TestRetryStopsOnContextError(t *testing.T) {
	p := RetryPolicy{
		Idempotent: func(string) bool { return true },
	}
	for _, ctxErr := range []error{context.Canceled, context.DeadlineExceeded} {
		calls := 0
		_, err := Retry(p)(context.Background(), newCall("urn:Get"), func(ctx context.Context, call *soap.CallInfo) (*soap.Envelope, error) {
			calls++
			return nil, fmt.Errorf("transport: %w", ctxErr)
		})
		if !errors.Is(err, ctxErr) {
			t.Fatalf("want %v through, got %v", ctxErr, err)
		}
		if calls != 1 {
			t.Fatalf("%v: attempted %d times", ctxErr, calls)
		}
	}
}

// TestRetryAbortsWhenSleepCancelled: a caller that gives up as the
// first attempt fails is not sent a second: the backoff ends with the
// context, and the transport error, the informative one, comes back.
func TestRetryAbortsWhenSleepCancelled(t *testing.T) {
	p := RetryPolicy{Idempotent: func(string) bool { return true }}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	calls := 0
	_, err := Retry(p)(ctx, newCall("urn:Get"), func(ctx context.Context, call *soap.CallInfo) (*soap.Envelope, error) {
		calls++
		cancel()
		return nil, errors.New("transport: timeout")
	})
	if err == nil || err.Error() != "transport: timeout" || calls != 1 {
		t.Fatalf("cancelled backoff must abort: calls=%d err=%v", calls, err)
	}
}

func TestMetricsCountsAndFaults(t *testing.T) {
	m := NewMetrics()
	ic := m.Interceptor()
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := ic(ctx, newCall("urn:Get"), okTerminal); err != nil {
			t.Fatal(err)
		}
	}
	ic(ctx, newCall("urn:Get"), func(ctx context.Context, call *soap.CallInfo) (*soap.Envelope, error) {
		return nil, soap.SenderFault("nope")
	})
	ic(ctx, newCall("urn:Other"), okTerminal)

	snap := m.Snapshot()
	get := snap[Key{Path: "/Svc", Action: "urn:Get"}]
	if get.Calls != 4 || get.Faults != 1 {
		t.Fatalf("urn:Get stats = %+v", get)
	}
	other := snap[Key{Path: "/Svc", Action: "urn:Other"}]
	if other.Calls != 1 || other.Faults != 0 {
		t.Fatalf("urn:Other stats = %+v", other)
	}
	var total uint64
	for _, n := range get.Buckets {
		total += n
	}
	if total != 4 {
		t.Fatalf("histogram holds %d observations, want 4", total)
	}
	if get.Min > get.Max || get.Mean() == 0 {
		t.Fatalf("latency stats inconsistent: %+v", get)
	}
}

func TestMetricsDump(t *testing.T) {
	m := NewMetrics()
	m.Record(Key{Path: "/Scheduler", Action: "urn:Submit"}, 2*time.Millisecond, false)
	m.Record(Key{Path: "/Scheduler", Action: "urn:Submit"}, 40*time.Second, true)
	var buf bytes.Buffer
	m.Dump(&buf)
	out := buf.String()
	for _, want := range []string{"/Scheduler urn:Submit", "calls=2 faults=1", "<=3ms", ">10s"} {
		if !strings.Contains(out, want) {
			t.Fatalf("dump missing %q:\n%s", want, out)
		}
	}

	var empty bytes.Buffer
	NewMetrics().Dump(&empty)
	if !strings.Contains(empty.String(), "no calls recorded") {
		t.Fatalf("empty dump = %q", empty.String())
	}
}

// TestMetricsKeepCopiesOfKeys: the table outlives every call it counts,
// and a call's path and action are read from its message; the key the
// table keeps is a copy that points into none of the message's bytes.
func TestMetricsKeepCopiesOfKeys(t *testing.T) {
	msg := []byte("/Scheduler urn:uvacg:ss/Submit")
	key := Key{Path: unsafe.String(&msg[0], len("/Scheduler")), Action: unsafe.String(&msg[len("/Scheduler ")], len("urn:uvacg:ss/Submit"))}
	m := NewMetrics()
	m.Record(key, time.Millisecond, false)
	m.Record(key, time.Millisecond, false)
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(msg)))
	for k, s := range m.stats {
		if s.Calls != 2 {
			t.Fatalf("%v counts %d calls, want 2", k, s.Calls)
		}
		for _, v := range []string{k.Path, k.Action} {
			if at := uintptr(unsafe.Pointer(unsafe.StringData(v))); at >= lo && at < lo+uintptr(len(msg)) {
				t.Errorf("the table keeps %q as a view of the message", v)
			}
		}
	}
}
