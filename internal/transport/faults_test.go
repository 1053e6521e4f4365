package transport

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"
)

// handoffLog is a transport that records the order messages are handed
// to it.
type handoffLog struct {
	mu  sync.Mutex
	got []string
}

func (h *handoffLog) RoundTrip(_ context.Context, _ string, request *Message) (*Message, error) {
	return nil, h.Send(context.Background(), "", request)
}

func (h *handoffLog) Send(_ context.Context, _ string, request *Message) error {
	h.mu.Lock()
	h.got = append(h.got, string(request.Envelope))
	h.mu.Unlock()
	return nil
}

func (h *handoffLog) order() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]string(nil), h.got...)
}

// TestReorderHoldsOneWayUntilOvertaken: a reordered one-way message is
// handed on after the next message to the same address — the sender is
// told both hand-offs succeeded — other addresses do not release it, a
// message with no successor is late, not lost, and round trips are never
// held.
func TestReorderHoldsOneWayUntilOvertaken(t *testing.T) {
	inner := &handoffLog{}
	reorder := false
	ft := WrapFaults(inner, func(FaultOp, string) FaultDecision { return FaultDecision{Reorder: reorder} })
	ctx := context.Background()
	send := func(addr, msg string) {
		t.Helper()
		buf := []byte(msg)
		if err := ft.Send(ctx, addr, &Message{Envelope: buf}); err != nil {
			t.Fatal(err)
		}
		buf[0] = '!' // the sender may reuse its buffer at once
	}

	reorder = true
	send("inproc://a/x", "started")
	if _, err := ft.RoundTrip(ctx, "inproc://a/x", &Message{Envelope: []byte("call")}); err != nil {
		t.Fatal(err)
	}
	reorder = false
	send("inproc://b/x", "elsewhere")
	send("inproc://a/x", "exited")
	if got, want := strings.Join(inner.order(), " "), "call elsewhere exited started"; got != want {
		t.Fatalf("hand-off order %q, want %q", got, want)
	}

	reorder = true
	send("inproc://a/x", "lonely")
	if got := inner.order(); len(got) != 4 {
		t.Fatalf("held message handed on at once: %q", got)
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(inner.order()) != 5 {
		if time.Now().After(deadline) {
			t.Fatal("a held message with no successor was lost")
		}
		time.Sleep(time.Millisecond)
	}
	if got := inner.order()[4]; got != "lonely" {
		t.Fatalf("late message arrived as %q", got)
	}
}
