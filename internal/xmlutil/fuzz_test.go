package xmlutil

import (
	"bytes"
	"encoding/xml"
	"errors"
	"strings"
	"testing"
	"unicode/utf8"
)

// refusal is an input encoding/xml reads that the codec refuses on
// purpose: the rule it applies, and a predicate that recognizes such an
// input from encoding/xml's own reading of it.
type refusal struct {
	rule  string
	seed  string
	match func(data []byte, toks []rawTok) bool
}

// refusals is every input encoding/xml reads and the codec does not.
var refusals = []refusal{
	{
		rule: "SOAP 1.1 §3, SOAP 1.2 Part 1 §5: a message carries no document type declaration",
		seed: `<!DOCTYPE a [<!ENTITY e "x">]><a/>`,
		match: func(_ []byte, toks []rawTok) bool {
			return anyTok(toks, func(t rawTok) bool { _, ok := t.tok.(xml.Directive); return ok })
		},
	},
	{
		rule: "SOAP 1.1 §3, SOAP 1.2 Part 1 §5: a message carries no processing instruction",
		seed: `<a><?pi data?></a>`,
		match: func(_ []byte, toks []rawTok) bool {
			return anyTok(toks, func(t rawTok) bool { _, ok := t.tok.(xml.ProcInst); return ok && t.depth > 0 })
		},
	},
	{
		rule: "XML 1.0 §3.1 [40]: attributes are separated by white space",
		seed: `<a b="1"c="2"/>`,
		match: func(data []byte, toks []rawTok) bool {
			return anyTok(toks, func(t rawTok) bool {
				_, ok := t.tok.(xml.StartElement)
				return ok && gluedAttrs(data[t.start:t.end])
			})
		},
	},
	{
		rule: "XML 1.0 §2.2 [2], §4.3.3: a UTF-8 document is UTF-8 encoded Chars throughout, where encoding/xml does not look too",
		seed: "<a/><!-- \x01 \xff -->",
		match: func(data []byte, _ []rawTok) bool {
			return !utf8.Valid(data) || strings.ContainsFunc(string(data), func(r rune) bool { return !isChar(r) })
		},
	},
	{
		rule: "Namespaces in XML 1.0 §3 [7]: an element or attribute name is a QName, an NCName either side of one colon",
		seed: `<a:1b :c="1" d:="2"/>`,
		match: func(_ []byte, toks []rawTok) bool {
			return anyTok(toks, func(t rawTok) bool {
				se, ok := t.tok.(xml.StartElement)
				if !ok {
					return false
				}
				// encoding/xml keeps a colon it could not split on in the
				// local name.
				bad := !isNCName(se.Name.Local)
				for _, a := range se.Attr {
					bad = bad || !isNCName(a.Name.Local)
				}
				return bad
			})
		},
	},
	{
		rule: "implementation bound: nesting deeper than maxDepth, which the recursive parser's stack is held to",
		seed: strings.Repeat("<d>", maxDepth+2) + strings.Repeat("</d>", maxDepth+2),
		match: func(_ []byte, toks []rawTok) bool {
			return anyTok(toks, func(t rawTok) bool { return t.depth > maxDepth })
		},
	},
}

// rawTok is one token of encoding/xml's reading, up to the root's end:
// the bytes it spans and its element depth (the root's start is 0).
type rawTok struct {
	tok        xml.Token
	start, end int64
	depth      int
}

func anyTok(toks []rawTok, f func(rawTok) bool) bool {
	for _, t := range toks {
		if f(t) {
			return true
		}
	}
	return false
}

// oracleTokens is what xml.Unmarshal reads of data: tokens up to the
// root's end element.
func oracleTokens(data []byte) []rawTok {
	dec := xml.NewDecoder(bytes.NewReader(data))
	var toks []rawTok
	depth := 0
	for {
		start := dec.InputOffset()
		tok, err := dec.Token()
		if err != nil {
			return toks
		}
		t := rawTok{tok: xml.CopyToken(tok), start: start, end: dec.InputOffset(), depth: depth}
		switch tok.(type) {
		case xml.StartElement:
			depth++
		case xml.EndElement:
			if depth--; depth == 0 {
				return append(toks, t)
			}
			t.depth = depth
		}
		toks = append(toks, t)
	}
}

// gluedAttrs reports whether a start tag's raw bytes hold an attribute
// value whose closing quote is followed by neither white space nor the
// tag's end.
func gluedAttrs(tag []byte) bool {
	for i := 0; i < len(tag); i++ {
		q := tag[i]
		if q != '"' && q != '\'' {
			continue
		}
		end := bytes.IndexByte(tag[i+1:], q)
		if end < 0 {
			return false
		}
		i += end + 1
		if i+1 < len(tag) && !strings.ContainsRune(" \t\r\n/>", rune(tag[i+1])) {
			return true
		}
	}
	return false
}

// FuzzCodecEquivalence is the codec's contract with encoding/xml:
//   - whatever encoding/xml reads, the codec reads to an Equal tree,
//     unless the input matches a listed refusal;
//   - whatever the codec reads, encoding/xml reads to an Equal tree too,
//     unless encoding/xml refuses a name XML 1.0's fifth edition admits
//     (encoding/xml carries the fourth edition's tables);
//   - every tree the codec reads encodes, decodes back Equal, and reads
//     the same under encoding/xml;
//   - an envelope's read-back copy (ReadBackEnvelope, what an in-process
//     route hands its receiver) is Equal to what its encoding decodes
//     to, for the tree the codec reads and for one whose strings are raw
//     pieces of the input.
func FuzzCodecEquivalence(f *testing.F) {
	// Captured wire envelopes from the services (scheduler submit,
	// WS-Addressing headers, notification delivery, resource property
	// responses, faults) plus shape-stressing constructions.
	seeds := []string{
		`<?xml version="1.0" encoding="UTF-8"?>` + "\n" + `<Envelope xmlns="http://www.w3.org/2003/05/soap-envelope"><Header><Action xmlns="http://www.w3.org/2005/08/addressing">http://uvacg/scheduler/Submit</Action><To xmlns="http://www.w3.org/2005/08/addressing">soap.tcp://127.0.0.1:9601/scheduler</To><MessageID xmlns="http://www.w3.org/2005/08/addressing">urn:uuid:7f2c</MessageID><ResourceID xmlns="http://uvacg/wsrf" IsReferenceParameter="true">jobset-42</ResourceID></Header><Body><Submit xmlns="http://uvacg/scheduler"><Document>&lt;JobSet&gt;&lt;/JobSet&gt;</Document></Submit></Body></Envelope>`,
		`<?xml version="1.0" encoding="UTF-8"?>` + "\n" + `<Envelope xmlns="http://www.w3.org/2003/05/soap-envelope"><Body><Notify xmlns="http://docs.oasis-open.org/wsn/b-2"><NotificationMessage><Topic Dialect="http://docs.oasis-open.org/wsn/t-1/TopicExpression/Simple">jobset-42/changed</Topic><Message><JobStatus xmlns="http://uvacg/scheduler"><Name>render-1</Name><State>Finished</State><Exit>0</Exit></JobStatus></Message></NotificationMessage></Notify></Body></Envelope>`,
		`<?xml version="1.0" encoding="UTF-8"?>` + "\n" + `<Envelope xmlns="http://www.w3.org/2003/05/soap-envelope"><Body><Fault><Code><Value>Sender</Value></Code><Reason><Text xml:lang="en">wrong shard: jobset maps to shard 3</Text></Reason><Detail><WrongShard xmlns="http://uvacg/scheduler" Shard="3"><Owner>soap.tcp://10.0.0.2:9601/scheduler</Owner></WrongShard></Detail></Fault></Body></Envelope>`,
		`<GetResourcePropertyResponse xmlns="http://docs.oasis-open.org/wsrf/rp-2"><Utilization xmlns="http://uvacg/nis">0.25</Utilization></GetResourcePropertyResponse>`,
		`<a b="1" c="&amp;x" xmlns:p="urn:p" p:d="q&#xA;r">mixed <b>child</b> tail</a>`,
		`<r xmlns="u1"><k xmlns="">plain<deep xmlns="u2">x</deep></k></r>`,
		`<m>cr` + "\r\n" + `lf` + "\r" + `solo</m>`,
		`<dup a='1' a="2"/>`,
		`<a><![CDATA[fallback]]></a>`,
		`<a>&unknown;</a>`,
		`<a>]]></a>`,
		"<a>caf\xc3\xa9</a>",
		`<u undeclared:x="1" xml:space="preserve"/>`,
		`<!DOCTYPE x><x/>`,
		// What the codec reads now that encoding/xml read for it before.
		`<a>&#0000000065;</a>`,
		`<?xml version='1.0'?><a/>`,
		`<!-- c --><a>x<!-- inside -->y</a><!-- after -->`,
		"<a><![CDATA[x\r\ny\rz]]></a>",
		"<données clé=\"été\">naïve — 日本 𝄞</données>",
		`<a>&#xE9;&#x1F600;&#xD800;</a>`,
		`<a xmlns="u"><xmlns/><p:xmlns xmlns:p="v"/></a>`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	for _, r := range refusals {
		f.Add([]byte(r.seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkReadBack(t, rough(data))
		got, err := UnmarshalElement(data)
		ref, refErr := oracleUnmarshal(data)
		switch {
		case err != nil && refErr == nil:
			toks := oracleTokens(data)
			for _, r := range refusals {
				if r.match(data, toks) {
					return
				}
			}
			t.Fatalf("encoding/xml reads %q, the codec refuses it (%v) and no listed refusal matches", data, err)
		case err != nil:
			return
		case refErr == nil && !got.Equal(ref):
			t.Fatalf("decode disagrees on %q:\n codec: %s\n ref:   %s", data, got, ref)
		case refErr != nil && !isNameError(refErr):
			t.Fatalf("the codec reads %q, encoding/xml refuses it: %v", data, refErr)
		}
		enc, err := MarshalElement(got)
		if err != nil {
			t.Fatalf("cannot encode what %q decodes to: %v", data, err)
		}
		back, err := UnmarshalElement(enc)
		if err != nil || !back.Equal(got) {
			t.Fatalf("encode round trip disagrees on %q:\n bytes: %q\n back: %s (%v)\n tree: %s", data, enc, back, err, got)
		}
		if ref, err := oracleUnmarshal(enc); err == nil && !ref.Equal(got) || err != nil && !isNameError(err) {
			t.Fatalf("encoding/xml reads the encoding %q of %q as %s (%v), want %s", enc, data, ref, err, got)
		}
		checkReadBack(t, got)
	})
}

// envelopeNS is the namespace checkReadBack's envelopes are in.
const envelopeNS = "http://www.w3.org/2003/05/soap-envelope"

// checkReadBack holds ReadBackEnvelope to the bytes MarshalEnvelope
// writes: for an envelope whose body is tree and whose header blocks are
// tree's children, both refuse it, or the copy is Equal to what those
// bytes decode to and its size is their length.
func checkReadBack(t *testing.T, tree *Element) {
	t.Helper()
	headers := tree.Children
	hs, body, size, err := ReadBackEnvelope(envelopeNS, headers, tree)
	wire, werr := MarshalEnvelope(envelopeNS, headers, tree)
	if (err == nil) != (werr == nil) {
		t.Fatalf("read back of %s: %v; marshal: %v", tree, err, werr)
	}
	if err != nil {
		return
	}
	root, err := UnmarshalElement(wire)
	if err != nil {
		t.Fatalf("cannot decode the envelope %q: %v", wire, err)
	}
	var wantHeaders []*Element
	if h := root.Child(Q(envelopeNS, "Header")); h != nil {
		wantHeaders = h.Children
	}
	wantBody := root.Child(Q(envelopeNS, "Body")).Children[0]
	same := len(hs) == len(wantHeaders) && body.Equal(wantBody) && size == len(wire)
	for i := 0; same && i < len(hs); i++ {
		same = hs[i].Equal(wantHeaders[i])
	}
	if !same {
		t.Fatalf("read back of %q (%d bytes) as %v %s, want %v %s", wire, size, hs, body, wantHeaders, wantBody)
	}
	got, err := ReadBack(tree)
	if err != nil {
		t.Fatalf("ReadBack of %s refuses what the envelope carried: %v", tree, err)
	}
	if want := viaElement(t, tree); !got.Equal(want) {
		t.Fatalf("ReadBack of %s is %s, want %s", tree, got, want)
	}
}

// viaElement is what a reader decodes from MarshalElement's bytes of e.
func viaElement(t *testing.T, e *Element) *Element {
	t.Helper()
	data, err := MarshalElement(e)
	if err != nil {
		t.Fatal(err)
	}
	out, err := UnmarshalElement(data)
	if err != nil {
		t.Fatalf("cannot decode %q: %v", data, err)
	}
	return out
}

// rough is a tree whose strings are raw pieces of data — text with the
// white space, control characters and invalid UTF-8 no decoded tree
// holds, namespaces as odd, and a name set twice out of canonical order —
// the trees a sender may build and a reader never sees.
func rough(data []byte) *Element {
	pieces := make([]string, 4)
	for i := range pieces {
		pieces[i] = string(data[i*len(data)/4 : (i+1)*len(data)/4])
	}
	return &Element{
		Name: Q(pieces[0], "r"),
		Text: pieces[1],
		Attrs: []Attr{
			{Name: Q(pieces[2], "b"), Value: pieces[3]},
			{Name: Q("", "a"), Value: pieces[0]},
			{Name: Q("", "a"), Value: pieces[1]},
		},
		Children: []*Element{
			{Name: Q("", "c"), Text: pieces[2]},
			{Name: Q(pieces[3], "d"), Text: pieces[3], Children: []*Element{
				{Name: Q(pieces[1], "e"), Text: string(data)},
			}},
		},
	}
}

// isNameError reports whether encoding/xml refused a name: one it reads
// by the fourth edition's tables where the codec reads the fifth's.
func isNameError(err error) bool {
	var syn *xml.SyntaxError
	return errors.As(err, &syn) && strings.HasPrefix(syn.Msg, "invalid XML name")
}

// TestRefusalSeedsAreRefused: each listed refusal's seed is one
// encoding/xml reads, the codec refuses, and the predicate recognizes.
func TestRefusalSeedsAreRefused(t *testing.T) {
	for _, r := range refusals {
		data := []byte(r.seed)
		if _, err := oracleUnmarshal(data); err != nil {
			t.Errorf("%s: encoding/xml refuses the seed %q: %v", r.rule, data, err)
		}
		if _, err := UnmarshalElement(data); err == nil {
			t.Errorf("%s: the codec reads the seed %q", r.rule, data)
		}
		if !r.match(data, oracleTokens(data)) {
			t.Errorf("%s: the predicate misses the seed %q", r.rule, data)
		}
	}
}
