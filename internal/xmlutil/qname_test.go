package xmlutil

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestQNameString(t *testing.T) {
	cases := []struct {
		q    QName
		want string
	}{
		{Q("http://example.org/ns", "job"), "{http://example.org/ns}job"},
		{Q("", "local"), "local"},
	}
	for _, c := range cases {
		if got := c.q.String(); got != c.want {
			t.Errorf("String(%v) = %q, want %q", c.q, got, c.want)
		}
	}
}

func TestParseQName(t *testing.T) {
	q, err := ParseQName("{urn:uvacg}scheduler")
	if err != nil {
		t.Fatal(err)
	}
	if q.Space != "urn:uvacg" || q.Local != "scheduler" {
		t.Fatalf("got %+v", q)
	}
	q, err = ParseQName("bare")
	if err != nil {
		t.Fatal(err)
	}
	if q.Space != "" || q.Local != "bare" {
		t.Fatalf("got %+v", q)
	}
}

func TestParseQNameErrors(t *testing.T) {
	for _, bad := range []string{"", "{unclosed", "{ns}"} {
		if _, err := ParseQName(bad); err == nil {
			t.Errorf("ParseQName(%q): expected error", bad)
		}
	}
}

func TestQNameIsZero(t *testing.T) {
	if !(QName{}).IsZero() {
		t.Error("zero QName should report IsZero")
	}
	if Q("a", "b").IsZero() {
		t.Error("non-zero QName reported IsZero")
	}
}

// genIdent produces a plausible XML NCName for property testing.
func genIdent(r *rand.Rand) string {
	const letters = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
	const rest = letters + "0123456789-._"
	n := 1 + r.Intn(12)
	var b strings.Builder
	b.WriteByte(letters[r.Intn(len(letters))])
	for i := 1; i < n; i++ {
		b.WriteByte(rest[r.Intn(len(rest))])
	}
	return b.String()
}

func genNamespace(r *rand.Rand) string {
	return "urn:" + genIdent(r) + ":" + genIdent(r)
}

// TestQNameClarkRoundTrip property-checks String/ParseQName inversion.
func TestQNameClarkRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		q := Q(genNamespace(r), genIdent(r))
		back, err := ParseQName(q.String())
		return err == nil && back == q
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
