//go:build race

package wsa

// raceBuild: under the race detector crypto/rand.Read's buffer escapes,
// so NewMessageID's entropy costs an allocation of its own.
const raceBuild = true
