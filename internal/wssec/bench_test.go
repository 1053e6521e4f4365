package wssec

// EXPERIMENTS.md E10, the paper-reproduction rig this package owns.

import (
	"context"
	"fmt"
	"testing"
	"time"

	"uvacg/internal/soap"
	"uvacg/internal/xmlutil"
)

// securityHarness is the E10 rig: one representative request envelope
// pushed through each credential-protection level, including the
// server-side verification, so the measured cost is the full round
// trip a secured Run request pays.
type securityHarness struct {
	identity *Identity
	creds    Credentials
	verifier *Verifier
	body     *xmlutil.Element
}

func newSecurityHarness(tb testing.TB) *securityHarness {
	tb.Helper()
	id, err := NewIdentity("CN=ES/bench")
	if err != nil {
		tb.Fatal(err)
	}
	return &securityHarness{
		identity: id,
		creds:    Credentials{Username: "scientist", Password: "secret"},
		verifier: NewVerifier(StaticAccounts{"scientist": "secret"}),
		body:     xmlutil.NewElement(xmlutil.Q("urn:uvacg:bench", "RunJob"), "payload"),
	}
}

// plain serializes and parses the request with no security at all —
// the zero-cost floor.
func (h *securityHarness) plain(ctx context.Context) error {
	env := soap.New(h.body.Clone())
	data, err := env.Marshal()
	if err != nil {
		return err
	}
	_, err = soap.Unmarshal(data)
	return err
}

// roundTrip attaches credentials per mode, crosses the wire encoding,
// and verifies server-side. An encrypted header is opened before the
// verifier sees it, as a service holding the identity's key would.
func (h *securityHarness) roundTrip(ctx context.Context, digest, encrypt bool) error {
	env := soap.New(h.body.Clone())
	if err := AttachUsernameToken(env, h.creds, time.Now()); err != nil {
		return err
	}
	if !digest {
		asText(env, h.creds.Password)
	}
	if encrypt {
		if err := EncryptSecurityHeader(env, h.identity.Certificate()); err != nil {
			return err
		}
	}
	data, err := env.Marshal()
	if err != nil {
		return err
	}
	received, err := soap.Unmarshal(data)
	if err != nil {
		return err
	}
	if encrypt {
		if err := DecryptSecurityHeader(received, h.identity); err != nil {
			return err
		}
	}
	creds, err := h.verifier.Verify(received)
	if err == nil && creds != h.creds {
		err = fmt.Errorf("verified as %+v, want %+v", creds, h.creds)
	}
	return err
}

// securityMode is one credential-protection level E10 compares.
type securityMode struct {
	name string
	fn   func(context.Context) error
}

// modes lists the four levels, the last being the paper's full
// protection: UsernameToken hybrid-encrypted to the service certificate,
// decrypted and verified server-side.
func (h *securityHarness) modes() []securityMode {
	return []securityMode{
		{"no-security", h.plain},
		{"usernametoken-plain", func(ctx context.Context) error { return h.roundTrip(ctx, false, false) }},
		{"usernametoken-digest", func(ctx context.Context) error { return h.roundTrip(ctx, true, false) }},
		{"encrypted-token", func(ctx context.Context) error { return h.roundTrip(ctx, false, true) }},
	}
}

// BenchmarkE10_Security measures the per-request cost of each
// credential-protection level, including server-side verification
// (§4.2's encrypted WS-Security password profile).
func BenchmarkE10_Security(b *testing.B) {
	ctx := context.Background()
	for _, c := range newSecurityHarness(b).modes() {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := c.fn(ctx); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestSecurityHarnessModes keeps the rig honest: every mode must verify
// server-side and yield the account.
func TestSecurityHarnessModes(t *testing.T) {
	for _, c := range newSecurityHarness(t).modes() {
		if err := c.fn(context.Background()); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
	}
}
