package transport

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

// FaultOp identifies the kind of exchange a fault decision applies to:
// a request-response round trip or a one-way hand-off. One-way messages
// are where drops hurt differently — the sender believes the message was
// handed over, so a dropped Send vanishes silently, exactly the failure
// mode the paper's notification path is exposed to.
type FaultOp int

const (
	// OpRoundTrip is a request-response exchange.
	OpRoundTrip FaultOp = iota
	// OpSend is a one-way hand-off.
	OpSend
)

// FaultDecision is the verdict on one outbound message. The zero value
// delivers the message untouched.
type FaultDecision struct {
	// Drop discards the message. A round trip fails with ErrInjectedDrop
	// (the request never reached the peer); a one-way send returns nil —
	// the hand-off "succeeded" but the message is gone, which is the
	// dangerous half of one-way semantics.
	Drop bool
	// Delay sleeps (context-aware) before the message moves.
	Delay time.Duration
	// Duplicate delivers the message twice. For a round trip both
	// requests reach the peer and the second reply is returned; services
	// must tolerate at-least-once delivery.
	Duplicate bool
	// Err, when non-nil, fails the exchange with this error without
	// delivering anything — the error-reply fault (a middlebox or stack
	// failing the call before it reaches the service).
	Err error
	// Reorder holds a one-way send back until the next one-way message
	// to the same address has been handed over (or 20 ms have passed, so
	// the last message of a burst is late, not lost): the sender is told
	// the hand-off succeeded, and the receiver is handed the two out of
	// order. Round trips ignore it.
	Reorder bool
}

// reorderHold bounds how long a reordered one-way message waits for a
// successor to overtake it.
const reorderHold = 20 * time.Millisecond

// FaultFunc decides the fate of one outbound message to addr. It is
// consulted once per exchange (before any duplicate), so implementations
// can keep per-route counters for deterministic replay.
type FaultFunc func(op FaultOp, addr string) FaultDecision

// ErrInjectedDrop is the error a dropped round trip fails with.
var ErrInjectedDrop = errors.New("transport: injected fault: message dropped")

// FaultingTransport wraps a RoundTripper and subjects every exchange to
// a FaultFunc verdict: the injectable hook point chaos harnesses build
// on. Construct with WrapFaults.
type FaultingTransport struct {
	inner  RoundTripper
	decide FaultFunc

	mu   sync.Mutex
	held map[string][]func() // addr → reordered sends waiting to be overtaken
}

// WrapFaults wraps inner with fault injection driven by decide.
func WrapFaults(inner RoundTripper, decide FaultFunc) *FaultingTransport {
	if inner == nil || decide == nil {
		panic("transport: WrapFaults with nil transport or decider")
	}
	return &FaultingTransport{inner: inner, decide: decide, held: make(map[string][]func())}
}

// verdict applies the non-delivery parts of a decision: delay, injected
// error, drop. It returns the decision for the caller to honour
// Duplicate, and done=true when the exchange must not proceed.
func (f *FaultingTransport) verdict(ctx context.Context, op FaultOp, addr string) (d FaultDecision, err error, done bool) {
	d = f.decide(op, addr)
	if d.Delay > 0 {
		t := time.NewTimer(d.Delay)
		defer t.Stop()
		select {
		case <-ctx.Done():
			return d, ctx.Err(), true
		case <-t.C:
		}
	}
	if d.Err != nil {
		return d, d.Err, true
	}
	if d.Drop {
		if op == OpSend {
			return d, nil, true // silently lost: the one-way hazard
		}
		return d, fmt.Errorf("%w (%s)", ErrInjectedDrop, addr), true
	}
	return d, nil, false
}

// RoundTrip implements RoundTripper.
func (f *FaultingTransport) RoundTrip(ctx context.Context, addr string, request *Message) (*Message, error) {
	d, err, done := f.verdict(ctx, OpRoundTrip, addr)
	if done {
		return nil, err
	}
	if d.Duplicate {
		if _, err := f.inner.RoundTrip(ctx, addr, request); err != nil {
			return nil, err
		}
	}
	return f.inner.RoundTrip(ctx, addr, request)
}

// Send implements RoundTripper.
func (f *FaultingTransport) Send(ctx context.Context, addr string, request *Message) error {
	d, err, done := f.verdict(ctx, OpSend, addr)
	if done {
		return err
	}
	if d.Reorder {
		f.hold(ctx, addr, request)
		return nil
	}
	if d.Duplicate {
		if err := f.inner.Send(ctx, addr, request); err != nil {
			return err
		}
	}
	err = f.inner.Send(ctx, addr, request)
	f.release(addr)
	return err
}

// hold parks a one-way message until release(addr) or reorderHold.
func (f *FaultingTransport) hold(ctx context.Context, addr string, request *Message) {
	// The sender has long returned and may reuse its envelope buffer;
	// attachment bytes are immutable by contract (soap.Attach).
	ctx = context.WithoutCancel(ctx)
	request = &Message{Envelope: append([]byte(nil), request.Envelope...), Attachments: request.Attachments}
	f.mu.Lock()
	f.held[addr] = append(f.held[addr], func() {
		// The sender was told the hand-off succeeded; a failure now is a
		// lost one-way message, which is what one-way means.
		_ = f.inner.Send(ctx, addr, request)
	})
	f.mu.Unlock()
	time.AfterFunc(reorderHold, func() { f.release(addr) })
}

// release delivers every message held for addr.
func (f *FaultingTransport) release(addr string) {
	f.mu.Lock()
	held := f.held[addr]
	delete(f.held, addr)
	f.mu.Unlock()
	for _, deliver := range held {
		deliver()
	}
}
