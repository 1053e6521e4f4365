package soap

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"uvacg/internal/xmlutil"
)

var nsT = "urn:uvacg:test"

func testEnvelope() *Envelope {
	return New(xmlutil.NewContainer(xmlutil.Q(nsT, "RunJob"),
		xmlutil.NewElement(xmlutil.Q(nsT, "Executable"), "sim.exe"),
		xmlutil.NewElement(xmlutil.Q(nsT, "Args"), "-n 100"),
	)).AddHeader(xmlutil.NewElement(xmlutil.Q(nsT, "To"), "http://node-a/ES")).
		AddHeader(xmlutil.NewElement(xmlutil.Q(nsT, "Action"), "urn:Run"))
}

func TestEnvelopeRoundTrip(t *testing.T) {
	env := testEnvelope()
	data, err := env.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(data, []byte("<?xml")) {
		t.Error("missing XML declaration")
	}
	back, err := Unmarshal(data)
	if err != nil {
		t.Fatalf("unmarshal: %v\n%s", err, data)
	}
	if len(back.Headers) != 2 {
		t.Fatalf("want 2 headers, got %d", len(back.Headers))
	}
	if !back.Body.Equal(env.Body) {
		t.Fatalf("body mismatch:\n%s\n%s", env.Body, back.Body)
	}
}

func TestEnvelopeEmptyBodyRoundTrip(t *testing.T) {
	env := &Envelope{}
	data, err := env.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Body != nil {
		t.Fatalf("void response should have nil body, got %v", back.Body)
	}
}

func TestEnvelopeHeaderAccessors(t *testing.T) {
	env := testEnvelope()
	if got := env.HeaderText(xmlutil.Q(nsT, "Action")); got != "urn:Run" {
		t.Errorf("HeaderText = %q", got)
	}
	if env.Header(xmlutil.Q(nsT, "Missing")) != nil {
		t.Error("missing header should be nil")
	}
	if env.HeaderText(xmlutil.Q(nsT, "Missing")) != "" {
		t.Error("missing header text should be empty")
	}
	if n := env.RemoveHeader(xmlutil.Q(nsT, "To")); n != 1 {
		t.Errorf("RemoveHeader = %d", n)
	}
	if len(env.Headers) != 1 {
		t.Errorf("headers after removal = %d", len(env.Headers))
	}
}

func TestEnvelopeCloneIsDeep(t *testing.T) {
	env := testEnvelope()
	cp := env.Clone()
	cp.Headers[0].Text = "changed"
	cp.Body.Children[0].Text = "other.exe"
	if env.Headers[0].Text != "http://node-a/ES" {
		t.Error("clone header mutation leaked")
	}
	if env.Body.Children[0].Text != "sim.exe" {
		t.Error("clone body mutation leaked")
	}
}

func TestUnmarshalRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"not xml":     "garbage",
		"wrong root":  `<x xmlns="` + NS + `"/>`,
		"no body":     `<Envelope xmlns="` + NS + `"><Header/></Envelope>`,
		"two bodies":  `<Envelope xmlns="` + NS + `"><Body/><Body/></Envelope>`,
		"fat body":    `<Envelope xmlns="` + NS + `"><Body><a/><b/></Body></Envelope>`,
		"stray child": `<Envelope xmlns="` + NS + `"><Bogus/><Body/></Envelope>`,
	}
	for name, doc := range cases {
		if _, err := Unmarshal([]byte(doc)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

// TestNoNamespaceChildKeepsItsNamespace: a child in no namespace under
// a parent in one crosses the wire in no namespace. encoding/xml wrote
// such a tree without undeclaring the default, so the child came back in
// its parent's namespace.
func TestNoNamespaceChildKeepsItsNamespace(t *testing.T) {
	body := xmlutil.NewContainer(xmlutil.Q("urn:x", "a"), xmlutil.NewElement(xmlutil.Q("", "plain"), "t"))
	data, err := New(body).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Body.Equal(body) {
		t.Fatalf("%s came back as %s", body, back.Body)
	}
}

// TestNonASCIIEnvelopeRoundTrips: names, attribute values and text
// outside ASCII cross the wire through Marshal and Unmarshal unchanged.
func TestNonASCIIEnvelopeRoundTrips(t *testing.T) {
	op := xmlutil.NewContainer(xmlutil.Q("urn:x", "Opération"),
		xmlutil.NewElement(xmlutil.Q("urn:x", "Fichier"), "données.txt"),
		xmlutil.NewElement(xmlutil.Q("", "étape-日本"), "héllo ✓"))
	op.SetAttr(xmlutil.Q("", "nom"), "résultat")
	env := New(op).AddHeader(xmlutil.NewElement(xmlutil.Q(nsT, "To"), "soap.tcp://hôte:1/ES"))
	wire, err := env.Marshal()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	back, err := Unmarshal(wire)
	if err != nil {
		t.Fatalf("unmarshal: %v\n%s", err, wire)
	}
	if !back.Body.Equal(env.Body) {
		t.Fatalf("body changed on the wire:\n got %s\nwant %s", back.Body, env.Body)
	}
	if len(back.Headers) != 1 || !back.Headers[0].Equal(env.Headers[0]) {
		t.Fatalf("headers changed on the wire: %v", back.Headers)
	}
}

// TestMarshalOwnsItsBytes: Marshal encodes into pooled scratch, so what
// it returns must be a copy the next marshal cannot overwrite.
func TestMarshalOwnsItsBytes(t *testing.T) {
	first, err := testEnvelope().Marshal()
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

func genIdent(r *rand.Rand) string {
	const letters = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
	n := 1 + r.Intn(10)
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.WriteByte(letters[r.Intn(len(letters))])
	}
	return b.String()
}

func genElement(r *rand.Rand, depth int) *xmlutil.Element {
	e := &xmlutil.Element{Name: xmlutil.Q("urn:"+genIdent(r), genIdent(r))}
	if depth > 0 && r.Intn(2) == 0 {
		for i, n := 0, 1+r.Intn(3); i < n; i++ {
			e.Children = append(e.Children, genElement(r, depth-1))
		}
	} else {
		e.Text = genIdent(r)
	}
	return e
}

// TestEnvelopeRoundTripProperty: arbitrary headers and bodies survive the
// wire encoding.
func TestEnvelopeRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		env := New(genElement(r, 2))
		for i, n := 0, r.Intn(4); i < n; i++ {
			env.AddHeader(genElement(r, 1))
		}
		data, err := env.Marshal()
		if err != nil {
			return false
		}
		back, err := Unmarshal(data)
		if err != nil {
			return false
		}
		if len(back.Headers) != len(env.Headers) || !back.Body.Equal(env.Body) {
			return false
		}
		for i := range env.Headers {
			if !back.Headers[i].Equal(env.Headers[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
