package wssec

import (
	"context"
	"strings"
	"sync"
	"time"

	"uvacg/internal/soap"
)

// StaticAccounts is a machine's local account table, username to
// password (paper §4.2). A nil table knows no account.
type StaticAccounts map[string]string

// replayWindow is how far a token's Created may lie from the verifier's
// clock, either way, and so how long its nonce is remembered. Clients,
// the master and the nodes must keep their clocks within it of each
// other.
const replayWindow = 5 * time.Minute

// now is the verifier's clock; the package's tests set it.
var now = time.Now

// replayCache rejects reuse of (nonce, created) pairs inside the
// freshness window, the standard UsernameToken replay defence.
type replayCache struct {
	mu     sync.Mutex
	window time.Duration
	seen   map[string]time.Time
	swept  time.Time // when seen last lost its expired nonces
}

// newReplayCache builds a cache accepting tokens at most window old.
func newReplayCache(window time.Duration) *replayCache {
	return &replayCache{window: window, seen: make(map[string]time.Time)}
}

// check admits a token once; the second sight of a nonce, or a stale
// Created timestamp, is rejected.
func (rc *replayCache) check(nonce string, created, now time.Time) error {
	if created.IsZero() {
		return errStale
	}
	age := now.Sub(created)
	if age > rc.window || age < -rc.window {
		return errStale
	}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	// Expired nonces leave at most once a window, so the map holds two
	// windows of traffic at most and a check costs O(1) amortized. A
	// stale token is refused above whether or not its nonce is still here.
	if now.Sub(rc.swept) > rc.window {
		for n, t := range rc.seen {
			if now.Sub(t) > rc.window {
				delete(rc.seen, n)
			}
		}
		rc.swept = now
	}
	if _, dup := rc.seen[nonce]; dup {
		return errReplay
	}
	// Kept for two windows: a copy, not a view of the message's header.
	rc.seen[strings.Clone(nonce)] = created
	return nil
}

var (
	errStale  = soap.SenderFault("wssec: token outside freshness window")
	errReplay = soap.SenderFault("wssec: token replay detected")
)

type principalKey struct{}

// Principal is the authenticated account attached to a request context.
type Principal struct {
	Username string
	// Password is retained because the Execution Service must forward
	// the account credentials to ProcSpawn to launch the process as that
	// user (paper §4.2); a pure authentication layer would drop it.
	Password string
}

// PrincipalFrom recovers the authenticated principal, if any.
func PrincipalFrom(ctx context.Context) (Principal, bool) {
	p, ok := ctx.Value(principalKey{}).(Principal)
	return p, ok
}

// InterceptorFor scopes Interceptor(accounts) to specific WS-Addressing
// actions: listed actions get the full verification pipeline, all
// others pass through untouched. The testbed secures exactly the
// operations that carry account credentials (the ES Run and the SS
// Submit, paper §4.2) while service-to-service callbacks and standard
// WSRF property reads stay open.
func InterceptorFor(accounts StaticAccounts, actions ...string) soap.Interceptor {
	guarded := make(map[string]bool, len(actions))
	for _, a := range actions {
		guarded[a] = true
	}
	full := Interceptor(accounts)
	return func(ctx context.Context, call *soap.CallInfo, next soap.Handler) (*soap.Envelope, error) {
		if guarded[call.Action] {
			return full(ctx, call, next)
		}
		return next(ctx, call)
	}
}

// Interceptor builds a server-side soap.Interceptor enforcing accounts:
// it requires a UsernameToken and validates it against the account
// table, accepts each token once and only inside replayWindow, and
// attaches the Principal to the request context for the handler (the ES
// reads it to pick the spawn account).
func Interceptor(accounts StaticAccounts) soap.Interceptor {
	replay := newReplayCache(replayWindow)
	return func(ctx context.Context, call *soap.CallInfo, next soap.Handler) (*soap.Envelope, error) {
		tok, err := ExtractToken(call.Request)
		if err != nil {
			return nil, soap.SenderFault("wssec: authentication required: %v", err)
		}
		expected, ok := accounts[tok.Username]
		if !ok {
			return nil, soap.SenderFault("wssec: unknown account %q", tok.Username)
		}
		if err := tok.Verify(expected); err != nil {
			return nil, soap.SenderFault("wssec: %v", err)
		}
		if err := replay.check(tok.Nonce, tok.Created, now()); err != nil {
			return nil, err
		}
		// The verified plaintext password is what ProcSpawn needs.
		ctx = context.WithValue(ctx, principalKey{}, Principal{Username: tok.Username, Password: expected})
		return next(ctx, call)
	}
}
