package transport

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"uvacg/internal/pipeline"
	"uvacg/internal/soap"
	"uvacg/internal/wsa"
	"uvacg/internal/xmlutil"
)

// flakyTransport fails the first failures exchanges with a transient
// error, then delegates to the real binding.
type flakyTransport struct {
	inner    RoundTripper
	mu       sync.Mutex
	failures int
	attempts int
}

var errFlaky = errors.New("connection reset by peer")

func (f *flakyTransport) RoundTrip(ctx context.Context, addr string, request *Message) (*Message, error) {
	f.mu.Lock()
	f.attempts++
	fail := f.attempts <= f.failures
	f.mu.Unlock()
	if fail {
		return nil, errFlaky
	}
	return f.inner.RoundTrip(ctx, addr, request)
}

func (f *flakyTransport) Send(ctx context.Context, addr string, request *Message) error {
	f.mu.Lock()
	f.attempts++
	fail := f.attempts <= f.failures
	f.mu.Unlock()
	if fail {
		return errFlaky
	}
	return f.inner.Send(ctx, addr, request)
}

func (f *flakyTransport) tries() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.attempts
}

// retryRig wires a client with retry through a flaky binding to a
// service that records each arrival's MessageID.
func retryRig(t *testing.T, failures, maxAttempts int) (*Client, *flakyTransport, *[]string) {
	t.Helper()
	var mids []string
	var mu sync.Mutex
	d := soap.NewDispatcher()
	record := func(ctx context.Context, req *soap.Envelope) (*soap.Envelope, error) {
		info, _ := wsa.FromContext(ctx)
		mu.Lock()
		mids = append(mids, info.MessageID)
		mu.Unlock()
		return soap.New(xmlutil.NewElement(qPong, "ok")), nil
	}
	d.Register("urn:GetResourceProperty", record)
	d.Register("urn:Run", record)
	mux := soap.NewMux()
	mux.Handle("/Test", d)

	n := NewNetwork()
	n.Register("host-a", NewServer(mux))
	flaky := &flakyTransport{inner: &inprocTransport{network: n}, failures: failures}
	client := NewClient()
	client.RegisterScheme(SchemeInproc, flaky)
	client.Use(pipeline.Retry(pipeline.RetryPolicy{
		MaxAttempts: maxAttempts,
		Idempotent:  pipeline.IdempotentActions("urn:GetResourceProperty"),
		Sleep:       func(context.Context, time.Duration) error { return nil },
	}))
	return client, flaky, &mids
}

func TestRetryOverFlakyTransport(t *testing.T) {
	const n = 3
	client, flaky, mids := retryRig(t, n-1, n)
	body, err := client.Call(context.Background(), wsa.NewEPR("inproc://host-a/Test"), "urn:GetResourceProperty", xmlutil.NewElement(qPing, ""))
	if err != nil {
		t.Fatalf("idempotent call should survive %d transient failures: %v", n-1, err)
	}
	if body.Text != "ok" {
		t.Fatalf("got %v", body)
	}
	if got := flaky.tries(); got != n {
		t.Fatalf("wire attempts = %d, want %d", got, n)
	}
	// Only the final attempt reached the service, with a MessageID.
	if len(*mids) != 1 || (*mids)[0] == "" {
		t.Fatalf("service saw MessageIDs %v", *mids)
	}
}

func TestRetryRestampsMessageID(t *testing.T) {
	// Zero flaky failures but two separate calls through the chain must
	// carry distinct MessageIDs; with retries the same holds per
	// attempt because WS-Addressing is stamped in the terminal handler.
	client, _, mids := retryRig(t, 0, 3)
	svc := wsa.NewEPR("inproc://host-a/Test")
	for i := 0; i < 2; i++ {
		if _, err := client.Call(context.Background(), svc, "urn:GetResourceProperty", xmlutil.NewElement(qPing, "")); err != nil {
			t.Fatal(err)
		}
	}
	if len(*mids) != 2 || (*mids)[0] == (*mids)[1] {
		t.Fatalf("MessageIDs not fresh per attempt: %v", *mids)
	}
}

func TestRunNeverRetried(t *testing.T) {
	client, flaky, mids := retryRig(t, 1, 5)
	_, err := client.Call(context.Background(), wsa.NewEPR("inproc://host-a/Test"), "urn:Run", xmlutil.NewElement(qPing, ""))
	if !errors.Is(err, errFlaky) {
		t.Fatalf("want the transient error surfaced, got %v", err)
	}
	if got := flaky.tries(); got != 1 {
		t.Fatalf("Run crossed the wire %d times; it must never be retried", got)
	}
	if len(*mids) != 0 {
		t.Fatalf("failed Run still reached the service: %v", *mids)
	}
}
