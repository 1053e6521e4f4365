package soap

import (
	"testing"

	"uvacg/internal/xmlutil"
)

// sameEnvelope reports whether a and b hold Equal header blocks and
// bodies.
func sameEnvelope(a, b *Envelope) bool {
	if len(a.Headers) != len(b.Headers) || !a.Body.Equal(b.Body) {
		return false
	}
	for i := range a.Headers {
		if !a.Headers[i].Equal(b.Headers[i]) {
			return false
		}
	}
	return true
}

// TestReadBackIsWhatAReaderDecodes: the tree an in-process route hands
// its receiver is the tree Unmarshal reads from Marshal's bytes, and its
// size their length, on the envelopes where the two differ from the
// sender's tree — text the decoder trims, characters the encoder writes
// as U+FFFD, attributes set out of canonical order — and on the common
// ones. Each case but the last two is one a plain Clone gets wrong.
func TestReadBackIsWhatAReaderDecodes(t *testing.T) {
	q := func(local string) xmlutil.QName { return xmlutil.Q(nsT, local) }
	header := func(text string) *xmlutil.Element { return xmlutil.NewElement(q("To"), text) }
	cases := []struct {
		name string
		env  *Envelope
	}{
		{"leading and trailing white space", New(xmlutil.NewContainer(q("Run"),
			xmlutil.NewElement(q("Args"), " \t-n 100\r\n"),
			xmlutil.NewElement(q("Name"), " job-17 "))).AddHeader(header("  http://node-a/ES\n"))},
		{"control character", New(xmlutil.NewElement(q("Args"), "a\x01b").
			SetAttr(xmlutil.Q("", "mode"), "x\x1fy")).AddHeader(header("http://node-a/ES"))},
		{"invalid UTF-8", New(xmlutil.NewElement(xmlutil.Q("urn:\xff", "Name"), "caf\xe9 \xed\xa0\x80").
			SetAttr(xmlutil.Q("urn:\xfe", "k"), "\xc3")).AddHeader(header("http://node-a/ES"))},
		{"non-Char rune", New(xmlutil.NewElement(q("Name"), "end\uFFFE"))},
		{"empty body", New(nil).AddHeader(header("\n urn:uuid:one \n"))},
		{"attributes out of order", New(&xmlutil.Element{Name: q("Job"), Attrs: []xmlutil.Attr{
			{Name: xmlutil.Q("", "name"), Value: "w1"},
			{Name: xmlutil.Q("", "id"), Value: "first"},
			{Name: xmlutil.Q("", "id"), Value: "last"},
		}})},
		{"common", testEnvelope()},
		{"common, attributes and namespaces", notifyEnvelope("w03")},
	}
	for i, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			wire, err := c.env.Marshal()
			if err != nil {
				t.Fatal(err)
			}
			want, err := Unmarshal(wire)
			if err != nil {
				t.Fatal(err)
			}
			got, size, err := c.env.ReadBack()
			if err != nil {
				t.Fatal(err)
			}
			if !sameEnvelope(got, want) || size != len(wire) {
				t.Fatalf("read back %d bytes as\n%+v\n%+v\nwant %d bytes as\n%+v\n%+v", size, got.Headers, got.Body, len(wire), want.Headers, want.Body)
			}
			if clone := c.env.Clone(); sameEnvelope(clone, want) != (i >= len(cases)-2) {
				t.Fatalf("a plain clone reads the same: %v", sameEnvelope(clone, want))
			}
		})
	}
}

// TestReadBackRefusesWhatMarshalRefuses: a tree no encoding reads back
// is refused on the in-process route too.
func TestReadBackRefusesWhatMarshalRefuses(t *testing.T) {
	for name, env := range map[string]*Envelope{
		"bad name":   New(xmlutil.NewElement(xmlutil.Q(nsT, "not a name"), "")),
		"nil header": New(nil).AddHeader(nil),
		"xmlns attr": New(xmlutil.NewElement(xmlutil.Q(nsT, "A"), "").SetAttr(xmlutil.Q("", "xmlns"), "u")),
	} {
		if _, err := env.Marshal(); err == nil {
			t.Fatalf("%s: Marshal takes it", name)
		}
		if got, _, err := env.ReadBack(); err == nil {
			t.Errorf("%s: read back as %+v", name, got)
		}
	}
}

// TestReadBackSharesNothingWritable: writing the copy — header list, text,
// attributes, children — leaves the sender's envelope as it was, and
// writing the sender's leaves the copy.
func TestReadBackSharesNothingWritable(t *testing.T) {
	env := notifyEnvelope("w03")
	want, err := env.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := env.ReadBack()
	if err != nil {
		t.Fatal(err)
	}
	got.RemoveHeader(got.Headers[0].Name)
	got.Headers[0].Text = "changed"
	got.Body.SetAttr(xmlutil.Q("", "seen"), "yes")
	got.Body.Children[0].Append(xmlutil.NewElement(xmlutil.Q(nsT, "Extra"), ""))
	got.Body.Children[0].Children[0].SetAttr(xmlutil.Q("", "Dialect"), "Full")
	if after, _ := env.Marshal(); string(after) != string(want) {
		t.Fatalf("writing the copy changed the sender's envelope:\n%s\nwas\n%s", after, want)
	}
	copied, _ := got.Marshal()
	env.Body.Children[0].Children[0].Text = "changed too"
	if after, _ := got.Marshal(); string(after) != string(copied) {
		t.Fatal("writing the sender's envelope changed the copy")
	}
}
