package pipeline

import (
	"context"
	"errors"
	"math/rand"
	"time"

	"uvacg/internal/soap"
)

// RetryPolicy configures the client-side retry interceptor. Only
// actions the Idempotent predicate admits are ever retried — a Run or
// Submit must reach the service at most once, while a property read or
// processor query can safely be repeated (the WSRF operations are pure
// state reads).
type RetryPolicy struct {
	// MaxAttempts bounds total attempts, first try included. Values
	// below 2 disable retry.
	MaxAttempts int
	// BaseDelay is the wait before the second attempt; each further
	// attempt doubles it (capped by MaxDelay). Defaults to 50ms.
	BaseDelay time.Duration
	// MaxDelay caps the backoff. Defaults to 2s.
	MaxDelay time.Duration
	// Jitter is the fraction of each delay randomized symmetrically
	// around it (0.2 → ±20%). Defaults to 0.2; negative disables.
	Jitter float64
	// Idempotent reports whether an action is safe to re-send. Nil
	// means nothing is retried.
	Idempotent func(action string) bool

	// Sleep and Rand are test seams; nil means real sleeping and
	// math/rand.
	Sleep func(ctx context.Context, d time.Duration) error
	Rand  func() float64
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

func defaultSleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Retry returns a client-side interceptor applying p. It numbers the
// attempts on call.Attempt (1-based); the terminal handler re-stamps
// WS-Addressing per attempt, so every retry carries a fresh MessageID.
// Install it outside the metrics interceptor when per-wire-attempt
// counts are wanted, inside when per-logical-call counts are.
func Retry(p RetryPolicy) soap.Interceptor {
	base := p.BaseDelay
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	maxDelay := p.MaxDelay
	if maxDelay <= 0 {
		maxDelay = 2 * time.Second
	}
	jitter := p.Jitter
	if jitter == 0 {
		jitter = 0.2
	}
	sleep := p.Sleep
	if sleep == nil {
		sleep = defaultSleep
	}
	rnd := p.Rand
	if rnd == nil {
		rnd = rand.Float64
	}
	return func(ctx context.Context, call *soap.CallInfo, next soap.Handler) (*soap.Envelope, error) {
		if p.MaxAttempts < 2 || p.Idempotent == nil || !p.Idempotent(call.Action) {
			return next(ctx, call)
		}
		delay := base
		var resp *soap.Envelope
		var err error
		for attempt := 1; ; attempt++ {
			call.Attempt = attempt
			resp, err = next(ctx, call)
			if err == nil || attempt >= p.MaxAttempts || !retryable(err) {
				return resp, err
			}
			d := delay
			if jitter > 0 {
				d += time.Duration(float64(d) * jitter * (2*rnd() - 1))
			}
			if sleepErr := sleep(ctx, d); sleepErr != nil {
				// The caller gave up mid-backoff; the last transport
				// error is still the informative one.
				return nil, err
			}
			if delay < maxDelay {
				delay *= 2
				if delay > maxDelay {
					delay = maxDelay
				}
			}
		}
	}
}
