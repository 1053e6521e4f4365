// Package wssec implements the WS-Security slice the testbed uses: the
// UsernameToken password profile, timestamps with a replay cache, and
// the server-side verifier that turns a token into the account a job
// runs as. In the paper the Execution Service receives the
// username/password "using a WS-Security password profile SOAP header,
// which is then encrypted using the X509 certificate" (paper §4.2).
// This reproduction distributes no certificates: every token it sends
// carries the password as a digest, Base64(SHA256(nonce || created ||
// password)), which the receiver checks against its own account table,
// so the password itself never crosses. The hybrid RSA/AES encryption of
// the header lives in the package's tests, where E10 prices it.
package wssec

import (
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/base64"
	"fmt"
	"time"

	"uvacg/internal/soap"
	"uvacg/internal/xmlutil"
)

// NS is the WS-Security (wsse) namespace.
const NS = "http://docs.oasis-open.org/wss/2004/01/oasis-200401-wss-wssecurity-secext-1.0.xsd"

// Password type URIs from the UsernameToken profile.
const (
	PasswordText   = NS + "#PasswordText"
	PasswordDigest = NS + "#PasswordDigest"
)

var (
	qSecurity      = xmlutil.Q(NS, "Security")
	qUsernameToken = xmlutil.Q(NS, "UsernameToken")
	qUsername      = xmlutil.Q(NS, "Username")
	qPassword      = xmlutil.Q(NS, "Password")
	qNonce         = xmlutil.Q(NS, "Nonce")
	qCreated       = xmlutil.Q(NS, "Created")
	qType          = xmlutil.Q("", "Type")
)

// Credentials carry the account a job should run under (paper §4.2: the
// request to the ES must contain the username/password of the account in
// which the job should be executed).
type Credentials struct {
	Username string
	Password string
}

// Token is a decoded UsernameToken header.
type Token struct {
	Username     string
	Password     string // digest or plain text, per Type
	PasswordType string
	Nonce        string
	Created      time.Time
}

// timeLayout is the WSS utility timestamp layout.
const timeLayout = time.RFC3339Nano

// AttachUsernameToken adds a wsse:Security header carrying creds, the
// password as Base64(SHA256(nonce || created || password)) per the
// password-digest profile.
func AttachUsernameToken(env *soap.Envelope, creds Credentials, now time.Time) error {
	if creds.Username == "" {
		return fmt.Errorf("wssec: empty username")
	}
	nonce := make([]byte, 16)
	if _, err := rand.Read(nonce); err != nil {
		return fmt.Errorf("wssec: nonce: %w", err)
	}
	nonceB64 := base64.StdEncoding.EncodeToString(nonce)
	created := now.UTC().Format(timeLayout)

	token := xmlutil.NewContainer(qUsernameToken,
		xmlutil.NewElement(qUsername, creds.Username),
		xmlutil.NewElement(qPassword, digestPassword(nonceB64, created, creds.Password)).SetAttr(qType, PasswordDigest),
		xmlutil.NewElement(qNonce, nonceB64),
		xmlutil.NewElement(qCreated, created),
	)
	env.RemoveHeader(qSecurity)
	env.AddHeader(xmlutil.NewContainer(qSecurity, token))
	return nil
}

func digestPassword(nonceB64, created, password string) string {
	h := sha256.New()
	h.Write([]byte(nonceB64))
	h.Write([]byte(created))
	h.Write([]byte(password))
	return base64.StdEncoding.EncodeToString(h.Sum(nil))
}

// ExtractToken decodes the UsernameToken from an envelope's Security
// header, if present. Its errors, and Token.Verify's, say what is wrong
// with the token and name no package: the Verifier's refusal carries the
// one "wssec:" prefix.
func ExtractToken(env *soap.Envelope) (Token, error) {
	sec := env.Header(qSecurity)
	if sec == nil {
		return Token{}, fmt.Errorf("no Security header")
	}
	ut := sec.Child(qUsernameToken)
	if ut == nil {
		return Token{}, fmt.Errorf("no UsernameToken in the Security header")
	}
	tok := Token{
		Username: ut.ChildText(qUsername),
		Nonce:    ut.ChildText(qNonce),
	}
	if pw := ut.Child(qPassword); pw != nil {
		tok.Password = pw.Text
		tok.PasswordType = pw.Attr(qType)
		if tok.PasswordType == "" {
			tok.PasswordType = PasswordText
		}
	}
	if created := ut.ChildText(qCreated); created != "" {
		t, err := time.Parse(timeLayout, created)
		if err != nil {
			return tok, fmt.Errorf("bad Created timestamp %q: %w", created, err)
		}
		tok.Created = t
	}
	if tok.Username == "" {
		return tok, fmt.Errorf("no Username in the UsernameToken")
	}
	return tok, nil
}

// Verify checks a token against the expected password, constant-time for
// both profiles.
func (t Token) Verify(expectedPassword string) error {
	switch t.PasswordType {
	case PasswordDigest:
		want := digestPassword(t.Nonce, t.Created.UTC().Format(timeLayout), expectedPassword)
		if !hmac.Equal([]byte(want), []byte(t.Password)) {
			return fmt.Errorf("password digest mismatch for %q", t.Username)
		}
	case PasswordText, "":
		if !hmac.Equal([]byte(expectedPassword), []byte(t.Password)) {
			return fmt.Errorf("password mismatch for %q", t.Username)
		}
	default:
		return fmt.Errorf("unsupported password type %q", t.PasswordType)
	}
	return nil
}
