package pipeline

import (
	"context"
	"errors"
	"time"

	"uvacg/internal/soap"
)

// The one retry every grid host runs: three attempts, 2 ms before the
// second and 4 ms before the third, no jitter — the schedule the
// simulator's invariants are proven under, so a replayed seed retries on
// the same schedule and a shipped daemon retries as the simulator does.
const (
	retryAttempts  = 3
	retryBaseDelay = 2 * time.Millisecond
)

// RetryPolicy names what the retry interceptor may repeat. Only actions
// the Idempotent predicate admits are ever retried — a Run or Submit must
// reach the service at most once, while a property read or processor
// query can safely be repeated (the WSRF operations are pure state reads).
type RetryPolicy struct {
	// Idempotent reports whether an action is safe to re-send. Nil
	// means nothing is retried.
	Idempotent func(action string) bool
}

// IdempotentActions builds an Idempotent predicate admitting exactly
// the listed actions.
func IdempotentActions(actions ...string) func(string) bool {
	set := make(map[string]bool, len(actions))
	for _, a := range actions {
		set[a] = true
	}
	return func(action string) bool { return set[action] }
}

// retryable admits transient transport failures only: a SOAP fault is
// the service's considered answer (a WS-BaseFault would come back
// identically on every attempt), and a cancelled or expired context
// means the caller has stopped wanting the result.
func retryable(err error) bool {
	if err == nil {
		return false
	}
	var f *soap.Fault
	if errors.As(err, &f) {
		return false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	return true
}

// sleep waits d, or until ctx ends.
func sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Retry returns a client-side interceptor applying the one retry to the
// actions p admits. The terminal handler re-stamps WS-Addressing per
// attempt, so every retry carries a fresh MessageID. Install it outside
// the metrics interceptor when per-wire-attempt counts are wanted, inside
// when per-logical-call counts are.
func Retry(p RetryPolicy) soap.Interceptor {
	return func(ctx context.Context, call *soap.CallInfo, next soap.Handler) (*soap.Envelope, error) {
		if p.Idempotent == nil || !p.Idempotent(call.Action) {
			return next(ctx, call)
		}
		delay := retryBaseDelay
		for attempt := 1; ; attempt++ {
			resp, err := next(ctx, call)
			if err == nil || attempt >= retryAttempts || !retryable(err) {
				return resp, err
			}
			if sleepErr := sleep(ctx, delay); sleepErr != nil {
				// The caller gave up mid-backoff; the last transport
				// error is still the informative one.
				return nil, err
			}
			delay *= 2
		}
	}
}
