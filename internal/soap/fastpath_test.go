package soap

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"uvacg/internal/xmlutil"
)

// testEnvelope builds a request-shaped envelope with WS-A headers.
func fastTestEnvelope() *Envelope {
	wsa := "http://www.w3.org/2005/08/addressing"
	env := New(xmlutil.NewContainer(xmlutil.Q("urn:uvacg:sched", "Submit"),
		xmlutil.NewElement(xmlutil.Q("urn:uvacg:sched", "Document"), "<JobSet name=\"x\"/>")))
	env.AddHeader(xmlutil.NewElement(xmlutil.Q(wsa, "Action"), "urn:Submit"))
	env.AddHeader(xmlutil.NewElement(xmlutil.Q(wsa, "To"), "soap.tcp://h:1/p"))
	return env
}

// TestFastPathMatchesSlowPath pins the integration contract: Marshal and
// Unmarshal round-trip to the same envelope as the encoding/xml reference
// they fall back to (marshalSlow, xmlutil.UnmarshalElement → fromElement).
func TestFastPathMatchesSlowPath(t *testing.T) {
	env := fastTestEnvelope()

	fastBytes, err := env.Marshal()
	if err != nil {
		t.Fatalf("fast marshal: %v", err)
	}
	slowBytes, serr := env.marshalSlow()
	if serr != nil {
		t.Fatalf("slow marshal: %v", serr)
	}

	for _, wire := range [][]byte{fastBytes, slowBytes} {
		fast, err := Unmarshal(wire)
		if err != nil {
			t.Fatalf("fast unmarshal of %q: %v", wire, err)
		}
		root, serr := xmlutil.UnmarshalElement(wire)
		if serr != nil {
			t.Fatalf("slow parse of %q: %v", wire, serr)
		}
		slow, serr := fromElement(root)
		if serr != nil {
			t.Fatalf("slow unmarshal of %q: %v", wire, serr)
		}
		if !fast.Body.Equal(slow.Body) || len(fast.Headers) != len(slow.Headers) {
			t.Fatalf("decoders disagree on %q", wire)
		}
		for i := range fast.Headers {
			if !fast.Headers[i].Equal(slow.Headers[i]) {
				t.Fatalf("header %d disagrees on %q", i, wire)
			}
		}
		if !fast.Body.Equal(env.Body) {
			t.Fatalf("round trip lost the body: %s", fast.Body)
		}
	}
}

// TestMarshalOwnsItsBytes: Marshal encodes into pooled scratch, so what
// it returns must be a copy the next marshal cannot overwrite.
func TestMarshalOwnsItsBytes(t *testing.T) {
	env := fastTestEnvelope()
	first, err := env.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Clone(first)
	other := New(xmlutil.NewElement(xmlutil.Q("urn:x", "Other"), strings.Repeat("z", len(first))))
	if _, err := other.Marshal(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, want) {
		t.Fatalf("a later marshal overwrote an earlier result:\n got %q\nwant %q", first, want)
	}
}

// TestMarshalFallsBackOutsideFastShape forces a tree the fast encoder
// refuses (non-ASCII text) and checks Marshal still succeeds via
// encoding/xml.
func TestMarshalFallsBackOutsideFastShape(t *testing.T) {
	env := New(xmlutil.NewElement(xmlutil.Q("urn:x", "Op"), "héllo"))
	wire, err := env.Marshal()
	if err != nil {
		t.Fatalf("fallback marshal: %v", err)
	}
	back, err := Unmarshal(wire)
	if err != nil {
		t.Fatalf("unmarshal fallback bytes: %v", err)
	}
	if back.Body.Text != "héllo" {
		t.Fatalf("fallback round trip lost text: %q", back.Body.Text)
	}
}

func TestReadRejectsOversizedEnvelope(t *testing.T) {
	maxEnvelope = 1 << 10
	defer func() { maxEnvelope = MaxEnvelopeBytes }()

	big := "<Envelope xmlns=\"" + NS + "\"><Body><X>" +
		strings.Repeat("a", 2<<10) + "</X></Body></Envelope>"
	_, err := Read(strings.NewReader(big))
	if err == nil {
		t.Fatal("oversized envelope accepted")
	}
	if !errors.Is(err, ErrEnvelopeTooLarge) {
		t.Fatalf("error does not wrap ErrEnvelopeTooLarge: %v", err)
	}
	var f *Fault
	if !errors.As(err, &f) || f.Code != CodeSender {
		t.Fatalf("oversized envelope did not yield a Sender fault: %v", err)
	}

	// At exactly the bound the envelope must still parse.
	pad := 1<<10 - len("<Envelope xmlns=\""+NS+"\"><Body><X></X></Body></Envelope>")
	exact := "<Envelope xmlns=\"" + NS + "\"><Body><X>" +
		strings.Repeat("a", pad) + "</X></Body></Envelope>"
	if len(exact) != 1<<10 {
		t.Fatalf("test setup: envelope is %d bytes, want %d", len(exact), 1<<10)
	}
	if _, err := Read(strings.NewReader(exact)); err != nil {
		t.Fatalf("at-bound envelope rejected: %v", err)
	}
}
