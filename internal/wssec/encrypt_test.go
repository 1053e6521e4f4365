package wssec

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"crypto/rsa"
	"crypto/sha256"
	"encoding/base64"
	"fmt"

	"uvacg/internal/soap"
	"uvacg/internal/xmlutil"
)

// NSEnc is the XML Encryption namespace.
const NSEnc = "http://www.w3.org/2001/04/xmlenc#"

var (
	qEncryptedData = xmlutil.Q(NSEnc, "EncryptedData")
	qCipherValue   = xmlutil.Q(NSEnc, "CipherValue")
	qEncryptedKey  = xmlutil.Q(NSEnc, "EncryptedKey")
	qKeyInfo       = xmlutil.Q(NSEnc, "KeyInfo")
)

// EncryptSecurityHeader replaces the envelope's wsse:Security header with
// an EncryptedData block only the holder of cert's private key can open:
// a fresh AES-256-GCM content key encrypts the serialized header, and
// RSA-OAEP under cert encrypts the content key (standard XML-Encryption
// hybrid shape). This is the simulation of the paper's "encrypted using
// the X509 certificate" credential protection, which E10 prices.
func EncryptSecurityHeader(env *soap.Envelope, cert Certificate) error {
	sec := env.Header(qSecurity)
	if sec == nil {
		return fmt.Errorf("wssec: no Security header to encrypt")
	}
	plaintext, err := xmlutil.MarshalElement(sec)
	if err != nil {
		return err
	}
	contentKey := make([]byte, 32)
	if _, err := rand.Read(contentKey); err != nil {
		return err
	}
	block, err := aes.NewCipher(contentKey)
	if err != nil {
		return err
	}
	gcm, err := cipher.NewGCM(block)
	if err != nil {
		return err
	}
	nonce := make([]byte, gcm.NonceSize())
	if _, err := rand.Read(nonce); err != nil {
		return err
	}
	sealed := gcm.Seal(nonce, nonce, plaintext, nil)

	wrappedKey, err := rsa.EncryptOAEP(sha256.New(), rand.Reader, cert.Key, contentKey, nil)
	if err != nil {
		return fmt.Errorf("wssec: wrap content key: %w", err)
	}

	env.RemoveHeader(qSecurity)
	env.AddHeader(xmlutil.NewContainer(qEncryptedData,
		xmlutil.NewElement(qKeyInfo, cert.Fingerprint()),
		xmlutil.NewElement(qEncryptedKey, base64.StdEncoding.EncodeToString(wrappedKey)),
		xmlutil.NewElement(qCipherValue, base64.StdEncoding.EncodeToString(sealed)),
	))
	return nil
}

// DecryptSecurityHeader reverses EncryptSecurityHeader in place using the
// service's identity, restoring the plaintext wsse:Security header. It
// verifies the KeyInfo fingerprint so a header encrypted to a different
// identity fails fast rather than with an opaque OAEP error.
func DecryptSecurityHeader(env *soap.Envelope, id *Identity) error {
	enc := env.Header(qEncryptedData)
	if enc == nil {
		return fmt.Errorf("wssec: no EncryptedData header")
	}
	if fp := enc.ChildText(qKeyInfo); fp != "" && fp != id.Certificate().Fingerprint() {
		return fmt.Errorf("wssec: header encrypted for a different identity")
	}
	wrappedKey, err := base64.StdEncoding.DecodeString(enc.ChildText(qEncryptedKey))
	if err != nil {
		return fmt.Errorf("wssec: bad EncryptedKey: %w", err)
	}
	sealed, err := base64.StdEncoding.DecodeString(enc.ChildText(qCipherValue))
	if err != nil {
		return fmt.Errorf("wssec: bad CipherValue: %w", err)
	}
	contentKey, err := rsa.DecryptOAEP(sha256.New(), rand.Reader, id.key, wrappedKey, nil)
	if err != nil {
		return fmt.Errorf("wssec: unwrap content key: %w", err)
	}
	block, err := aes.NewCipher(contentKey)
	if err != nil {
		return err
	}
	gcm, err := cipher.NewGCM(block)
	if err != nil {
		return err
	}
	if len(sealed) < gcm.NonceSize() {
		return fmt.Errorf("wssec: ciphertext too short")
	}
	plaintext, err := gcm.Open(nil, sealed[:gcm.NonceSize()], sealed[gcm.NonceSize():], nil)
	if err != nil {
		return fmt.Errorf("wssec: decrypt: %w", err)
	}
	// The header owns plaintext from here: gcm.Open made it, and nothing
	// else holds it.
	sec, err := xmlutil.UnmarshalElement(plaintext)
	if err != nil {
		return fmt.Errorf("wssec: decrypted header is not XML: %w", err)
	}
	env.RemoveHeader(qEncryptedData)
	env.AddHeader(sec)
	return nil
}

// HasEncryptedHeader reports whether env carries an encrypted security
// header.
func HasEncryptedHeader(env *soap.Envelope) bool {
	return env.Header(qEncryptedData) != nil
}
