package transport

import "uvacg/internal/soap"

// SetMaxEnvelope lowers the envelope bound every binding holds messages
// to, and returns the function that restores it.
func SetMaxEnvelope(n int64) (restore func()) {
	maxEnvelope = n
	return func() { maxEnvelope = soap.MaxEnvelopeBytes }
}
