package wssec

import (
	"strings"
	"testing"
	"time"
	"unsafe"

	"uvacg/internal/soap"
	"uvacg/internal/xmlutil"
)

var qBody = xmlutil.Q("urn:uvacg:test", "Run")

func newEnv() *soap.Envelope { return soap.New(xmlutil.NewElement(qBody, "payload")) }

// asText rewrites env's UsernameToken to carry password as text, the
// profile's other form: the grid never sends it, but Token.Verify
// accepts it from outside callers.
func asText(env *soap.Envelope, password string) {
	pw := env.Header(qSecurity).Child(qUsernameToken).Child(qPassword)
	pw.Text = password
	pw.SetAttr(qType, PasswordText)
}

func TestUsernameTokenPlainRoundTrip(t *testing.T) {
	env := newEnv()
	creds := Credentials{Username: "gridimp", Password: "s3cret"}
	if err := AttachUsernameToken(env, creds, time.Now()); err != nil {
		t.Fatal(err)
	}
	asText(env, creds.Password)
	data, err := env.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := soap.Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	tok, err := ExtractToken(back)
	if err != nil {
		t.Fatal(err)
	}
	if tok.Username != "gridimp" || tok.PasswordType != PasswordText {
		t.Fatalf("token = %+v", tok)
	}
	if err := tok.Verify("s3cret"); err != nil {
		t.Fatal(err)
	}
	if err := tok.Verify("wrong"); err == nil {
		t.Fatal("wrong password accepted")
	}
}

func TestUsernameTokenDigest(t *testing.T) {
	env := newEnv()
	if err := AttachUsernameToken(env, Credentials{Username: "u", Password: "pw"}, time.Now()); err != nil {
		t.Fatal(err)
	}
	tok, err := ExtractToken(env)
	if err != nil {
		t.Fatal(err)
	}
	if tok.PasswordType != PasswordDigest {
		t.Fatalf("type = %q", tok.PasswordType)
	}
	if tok.Password == "pw" {
		t.Fatal("digest form leaked plaintext password")
	}
	if err := tok.Verify("pw"); err != nil {
		t.Fatal(err)
	}
	if err := tok.Verify("other"); err == nil {
		t.Fatal("wrong password accepted under digest")
	}
}

func TestAttachUsernameTokenReplaces(t *testing.T) {
	env := newEnv()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(AttachUsernameToken(env, Credentials{Username: "a", Password: "1"}, time.Now()))
	must(AttachUsernameToken(env, Credentials{Username: "b", Password: "2"}, time.Now()))
	tok, err := ExtractToken(env)
	must(err)
	if tok.Username != "b" {
		t.Fatalf("stale token survived: %+v", tok)
	}
	n := 0
	for _, h := range env.Headers {
		if h.Name == qSecurity {
			n++
		}
	}
	if n != 1 {
		t.Fatalf("%d security headers", n)
	}
}

func TestAttachRequiresUsername(t *testing.T) {
	if err := AttachUsernameToken(newEnv(), Credentials{}, time.Now()); err == nil {
		t.Fatal("empty username accepted")
	}
}

func TestExtractTokenErrors(t *testing.T) {
	if _, err := ExtractToken(newEnv()); err == nil {
		t.Fatal("no header should error")
	}
	env := newEnv()
	env.AddHeader(xmlutil.NewContainer(qSecurity))
	if _, err := ExtractToken(env); err == nil {
		t.Fatal("empty security header should error")
	}
}

func TestEncryptDecryptSecurityHeader(t *testing.T) {
	service, err := NewIdentity("CN=ExecutionService/node-a")
	if err != nil {
		t.Fatal(err)
	}
	env := newEnv()
	creds := Credentials{Username: "labuser", Password: "hunter2"}
	if err := AttachUsernameToken(env, creds, time.Now()); err != nil {
		t.Fatal(err)
	}
	if err := EncryptSecurityHeader(env, service.Certificate()); err != nil {
		t.Fatal(err)
	}
	if !HasEncryptedHeader(env) {
		t.Fatal("no encrypted header present")
	}
	// Credentials must be opaque on the wire.
	data, err := env.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "hunter2") || strings.Contains(string(data), "labuser") {
		t.Fatal("credentials leaked in ciphertext envelope")
	}
	if _, err := ExtractToken(env); err == nil {
		t.Fatal("token readable while encrypted")
	}

	back, err := soap.Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := DecryptSecurityHeader(back, service); err != nil {
		t.Fatal(err)
	}
	tok, err := ExtractToken(back)
	if err != nil {
		t.Fatal(err)
	}
	if tok.Username != "labuser" || tok.Verify("hunter2") != nil {
		t.Fatalf("token corrupted: %+v", tok)
	}
}

func TestDecryptWithWrongIdentityFails(t *testing.T) {
	right, _ := NewIdentity("CN=right")
	wrong, _ := NewIdentity("CN=wrong")
	env := newEnv()
	if err := AttachUsernameToken(env, Credentials{Username: "u", Password: "p"}, time.Now()); err != nil {
		t.Fatal(err)
	}
	if err := EncryptSecurityHeader(env, right.Certificate()); err != nil {
		t.Fatal(err)
	}
	if err := DecryptSecurityHeader(env, wrong); err == nil {
		t.Fatal("decryption with wrong identity succeeded")
	}
}

func TestEncryptWithoutHeaderFails(t *testing.T) {
	id, _ := NewIdentity("CN=x")
	if err := EncryptSecurityHeader(newEnv(), id.Certificate()); err == nil {
		t.Fatal("expected error")
	}
	if err := DecryptSecurityHeader(newEnv(), id); err == nil {
		t.Fatal("expected error")
	}
}

func TestReplayCache(t *testing.T) {
	rc := newReplayCache(time.Minute)
	now := time.Now()
	if err := rc.check("n1", now, now); err != nil {
		t.Fatal(err)
	}
	if err := rc.check("n1", now, now); err == nil {
		t.Fatal("replay accepted")
	}
	if err := rc.check("n2", now.Add(-2*time.Minute), now); err == nil {
		t.Fatal("stale token accepted")
	}
	if err := rc.check("n3", now.Add(2*time.Minute), now); err == nil {
		t.Fatal("future token accepted")
	}
	if err := rc.check("n4", time.Time{}, now); err == nil {
		t.Fatal("zero Created accepted")
	}
	// Nonces age out, so a long-running service's cache stays bounded.
	later := now.Add(3 * time.Minute)
	if err := rc.check("n1", later, later); err != nil {
		t.Fatalf("expired nonce should be reusable: %v", err)
	}
	if len(rc.seen) != 1 {
		t.Fatalf("%d nonces kept after the window passed, want the one just seen", len(rc.seen))
	}
}

func TestCertificateFingerprintStable(t *testing.T) {
	id, _ := NewIdentity("CN=a")
	if id.Certificate().Fingerprint() != id.Certificate().Fingerprint() {
		t.Fatal("fingerprint unstable")
	}
	other, _ := NewIdentity("CN=a")
	if id.Certificate().Fingerprint() == other.Certificate().Fingerprint() {
		t.Fatal("distinct keys share a fingerprint")
	}
}

func TestNewIdentityRequiresSubject(t *testing.T) {
	if _, err := NewIdentity(""); err == nil {
		t.Fatal("empty subject accepted")
	}
}

func TestMiddlewareAuthenticates(t *testing.T) {
	v := NewVerifier(StaticAccounts{"labuser": "pw"})
	env := newEnv()
	if err := AttachUsernameToken(env, Credentials{Username: "labuser", Password: "pw"}, time.Now()); err != nil {
		t.Fatal(err)
	}
	creds, err := v.Verify(env)
	if err != nil {
		t.Fatal(err)
	}
	if creds != (Credentials{Username: "labuser", Password: "pw"}) {
		t.Fatalf("credentials = %+v", creds)
	}
	// A nil table is no security: every request passes, naming no account.
	if creds, err := NewVerifier(nil).Verify(newEnv()); err != nil || creds != (Credentials{}) {
		t.Fatalf("nil table: %+v, %v; want no credentials and no error", creds, err)
	}
}

// TestMiddlewareRejections: every refusal is a Sender fault whose reason
// names the package once.
func TestMiddlewareRejections(t *testing.T) {
	verify := NewVerifier(StaticAccounts{"u": "pw"}).Verify
	refused := func(t *testing.T, err error, says string) {
		t.Helper()
		f, ok := soap.AsFault(err)
		if !ok || f.Code != soap.CodeSender {
			t.Fatalf("got %v, want a Sender fault", err)
		}
		if !strings.HasPrefix(f.Reason, "wssec: ") || strings.Count(f.Reason, "wssec:") != 1 || !strings.Contains(f.Reason, says) {
			t.Fatalf("reason %q, want one \"wssec: \" prefix and %q", f.Reason, says)
		}
	}
	attach := func(t *testing.T, creds Credentials, created time.Time) *soap.Envelope {
		t.Helper()
		env := newEnv()
		if err := AttachUsernameToken(env, creds, created); err != nil {
			t.Fatal(err)
		}
		return env
	}

	t.Run("missing header", func(t *testing.T) {
		_, err := verify(newEnv())
		refused(t, err, "authentication required: no Security header")
	})
	t.Run("encrypted header only", func(t *testing.T) {
		// The verifier decrypts nothing: a token inside EncryptedData is
		// no token at all.
		service, err := NewIdentity("CN=ES")
		if err != nil {
			t.Fatal(err)
		}
		env := attach(t, Credentials{Username: "u", Password: "pw"}, time.Now())
		if err := EncryptSecurityHeader(env, service.Certificate()); err != nil {
			t.Fatal(err)
		}
		_, err = verify(env)
		refused(t, err, "authentication required")
	})
	t.Run("unknown account", func(t *testing.T) {
		_, err := verify(attach(t, Credentials{Username: "ghost", Password: "x"}, time.Now()))
		refused(t, err, `unknown account "ghost"`)
	})
	t.Run("wrong password", func(t *testing.T) {
		_, err := verify(attach(t, Credentials{Username: "u", Password: "bad"}, time.Now()))
		refused(t, err, `password digest mismatch for "u"`)
	})
	t.Run("replay", func(t *testing.T) {
		env := attach(t, Credentials{Username: "u", Password: "pw"}, time.Now())
		if _, err := verify(env.Clone()); err != nil {
			t.Fatalf("first use rejected: %v", err)
		}
		_, err := verify(env.Clone())
		refused(t, err, "replay")
	})
	t.Run("outside the window", func(t *testing.T) {
		created := time.Date(2005, 4, 4, 12, 0, 0, 0, time.UTC)
		defer func(clock func() time.Time) { now = clock }(now)
		for _, c := range []struct {
			skew time.Duration
			ok   bool
		}{{replayWindow - time.Second, true}, {-replayWindow + time.Second, true}, {replayWindow + time.Second, false}, {-replayWindow - time.Second, false}} {
			now = func() time.Time { return created.Add(c.skew) }
			_, err := verify(attach(t, Credentials{Username: "u", Password: "pw"}, created))
			if (err == nil) != c.ok {
				t.Errorf("verifier clock %v from Created: err %v, want accepted=%v", c.skew, err, c.ok)
			}
			if !c.ok {
				refused(t, err, "freshness window")
			}
		}
	})
}

// TestVerifierKeepsACopyOfTheUsername: the account Verify returns
// outlives the request (a run keeps it for its set's life, the ES until
// its job spawns), and the token's user name is read from the message.
// It is a copy that points into none of the message's bytes.
func TestVerifierKeepsACopyOfTheUsername(t *testing.T) {
	env := newEnv()
	if err := AttachUsernameToken(env, Credentials{Username: "labuser", Password: "pw"}, time.Now()); err != nil {
		t.Fatal(err)
	}
	data, err := env.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	req, err := soap.Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	creds, err := NewVerifier(StaticAccounts{"labuser": "pw"}).Verify(req)
	if err != nil {
		t.Fatal(err)
	}
	if creds.Username != "labuser" {
		t.Fatalf("credentials = %+v", creds)
	}
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(data)))
	if at := uintptr(unsafe.Pointer(unsafe.StringData(creds.Username))); at >= lo && at < lo+uintptr(len(data)) {
		t.Errorf("the verifier returns %q as a view of the message", creds.Username)
	}
}

// TestReplayCacheKeepsCopiesOfNonces: a nonce is kept for two windows,
// and it is read from a message's header; the cache keeps a copy that
// points into none of the message's bytes.
func TestReplayCacheKeepsCopiesOfNonces(t *testing.T) {
	msg := []byte("<Nonce>bm9uY2UtMQ==</Nonce>")
	nonce := unsafe.String(&msg[len("<Nonce>")], len("bm9uY2UtMQ=="))
	rc := newReplayCache(time.Minute)
	now := time.Now()
	if err := rc.check(nonce, now, now); err != nil {
		t.Fatal(err)
	}
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(msg)))
	for kept := range rc.seen {
		if at := uintptr(unsafe.Pointer(unsafe.StringData(kept))); at >= lo && at < lo+uintptr(len(msg)) {
			t.Errorf("the cache keeps %q as a view of the message", kept)
		}
	}
	if err := rc.check("bm9uY2UtMQ==", now, now); err == nil {
		t.Fatal("replay accepted")
	}
}
