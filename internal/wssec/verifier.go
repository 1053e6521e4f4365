package wssec

import (
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

// Verifier checks the UsernameToken of the requests a service secures
// against the machine's account table. The testbed secures exactly the
// operations that carry account credentials, the ES's Run and the SS's
// Submit (paper §4.2): their handlers call Verify first, and every other
// action, callbacks and WSRF property reads included, stays open.
type Verifier struct {
	accounts StaticAccounts
	replay   *replayCache
}

// NewVerifier builds a verifier over accounts with a nonce cache of its
// own. A nil table is no security: its verifier admits every request.
func NewVerifier(accounts StaticAccounts) *Verifier {
	return &Verifier{accounts: accounts, replay: newReplayCache(replayWindow)}
}

// Verify requires a UsernameToken in env's Security header, checks it
// against the table and accepts each token once, only inside
// replayWindow. It returns the account the request runs as: the user
// name copied out of the message, and the password from the table, which
// the ES hands ProcSpawn to launch the process as that user. A refusal is
// a Sender fault. Under a nil table it returns no credentials and no
// error.
func (v *Verifier) Verify(env *soap.Envelope) (Credentials, error) {
	if v.accounts == nil {
		return Credentials{}, nil
	}
	tok, err := ExtractToken(env)
	if err != nil {
		return Credentials{}, soap.SenderFault("wssec: authentication required: %v", err)
	}
	expected, ok := v.accounts[tok.Username]
	if !ok {
		return Credentials{}, soap.SenderFault("wssec: unknown account %q", tok.Username)
	}
	if err := tok.Verify(expected); err != nil {
		return Credentials{}, soap.SenderFault("wssec: %v", err)
	}
	if err := v.replay.check(tok.Nonce, tok.Created, now()); err != nil {
		return Credentials{}, err
	}
	return Credentials{Username: strings.Clone(tok.Username), Password: expected}, nil
}
