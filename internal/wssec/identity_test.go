package wssec

// The paper's credential protection (§4.2) encrypts the UsernameToken to
// the receiving service's X.509 certificate. The grid distributes no
// certificates and sends digests instead; this file and encrypt_test.go
// keep the encrypting mechanism as E10's measured alternative. X.509 is
// simulated by bare RSA identities with a subject name.

import (
	"crypto/rand"
	"crypto/rsa"
	"crypto/sha256"
	"encoding/base64"
	"fmt"
	"math/big"
)

// Identity is a simulated X.509 identity: a subject name bound to an RSA
// keypair. Services publish the Certificate half; clients encrypt
// credential headers to it.
type Identity struct {
	subject string
	key     *rsa.PrivateKey
}

// Certificate is the public half of an Identity.
type Certificate struct {
	Subject string
	Key     *rsa.PublicKey
}

// NewIdentity generates a fresh identity. Key size is kept small (1024)
// because these are ephemeral simulation keys regenerated per process,
// not long-lived credentials.
func NewIdentity(subject string) (*Identity, error) {
	if subject == "" {
		return nil, fmt.Errorf("wssec: identity requires a subject")
	}
	key, err := rsa.GenerateKey(rand.Reader, 1024)
	if err != nil {
		return nil, fmt.Errorf("wssec: generate key: %w", err)
	}
	return &Identity{subject: subject, key: key}, nil
}

// Certificate returns the shareable public half.
func (id *Identity) Certificate() Certificate {
	return Certificate{Subject: id.subject, Key: &id.key.PublicKey}
}

// Fingerprint returns a short stable identifier for the certificate,
// used as the KeyInfo reference in encrypted headers.
func (c Certificate) Fingerprint() string {
	h := sha256.New()
	h.Write([]byte(c.Subject))
	h.Write(c.Key.N.Bytes())
	h.Write(big.NewInt(int64(c.Key.E)).Bytes())
	return base64.StdEncoding.EncodeToString(h.Sum(nil)[:12])
}
