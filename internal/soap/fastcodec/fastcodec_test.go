package fastcodec

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"strings"
	"sync"
	"testing"

	"uvacg/internal/xmlutil"
)

// sampleTree builds a realistic WS-Addressing-flavoured element tree.
func sampleTree() *xmlutil.Element {
	wsa := "http://www.w3.org/2005/08/addressing"
	fss := "urn:uvacg:fss"
	body := xmlutil.NewContainer(xmlutil.Q(fss, "Upload"))
	body.SetAttr(xmlutil.Q("", "mode"), "create")
	body.SetAttr(xmlutil.Q(wsa, "IsReferenceParameter"), "true")
	body.Append(
		xmlutil.NewElement(xmlutil.Q(fss, "Path"), "/scratch/job-42/input.dat"),
		xmlutil.NewElement(xmlutil.Q(fss, "Offset"), "1048576"),
		xmlutil.NewContainer(xmlutil.Q(fss, "Meta"),
			xmlutil.NewElement(xmlutil.Q(fss, "Checksum"), "a1b2c3&d4<e5>"),
			xmlutil.NewElement(xmlutil.Q(fss, "Owner"), `alice "the admin"`),
		),
	)
	return body
}

// xmlRoundTrip pushes a tree through the encoding/xml reference path.
func xmlRoundTrip(t *testing.T, e *xmlutil.Element) *xmlutil.Element {
	t.Helper()
	data, err := xmlutil.MarshalElement(e)
	if err != nil {
		t.Fatalf("reference marshal: %v", err)
	}
	out, err := xmlutil.UnmarshalElement(data)
	if err != nil {
		t.Fatalf("reference unmarshal: %v", err)
	}
	return out
}

func TestAppendElementMatchesEncodingXML(t *testing.T) {
	tree := sampleTree()
	fast, ok := AppendElement(nil, tree)
	if !ok {
		t.Fatal("fast encode refused a recognized tree")
	}
	// The fast bytes must decode — via the reference decoder — to the
	// same infoset the reference encoder round-trips to.
	got, err := xmlutil.UnmarshalElement(fast)
	if err != nil {
		t.Fatalf("encoding/xml rejected fast output %q: %v", fast, err)
	}
	want := xmlRoundTrip(t, tree)
	if !got.Equal(want) {
		t.Fatalf("fast encode diverges:\n fast: %s\n want: %s", got, want)
	}
}

func TestDecodeMatchesEncodingXML(t *testing.T) {
	docs := []string{
		`<Envelope xmlns="http://www.w3.org/2003/05/soap-envelope"><Header><Action xmlns="http://www.w3.org/2005/08/addressing">urn:op</Action></Header><Body><Run xmlns="urn:x"><Arg>a &amp; b</Arg><Arg>second</Arg></Run></Body></Envelope>`,
		`<a><b c="1" d="2&#xA;3">text</b>  padded  </a>`,
		`<p:root xmlns:p="urn:p" p:own="v"><p:kid/></p:root>`,
		`<r xmlns="u1"><k xmlns=""><deep xmlns="u2">x</deep></k></r>`,
		`<?xml version="1.0" encoding="UTF-8"?>` + "\n" + `<ok attr='si&#39;ngle'/>`,
		`<m>line1` + "\r\n" + `line2` + "\r" + `line3</m>`,
		`<u undeclared:x="1"><xml:lang xml:space="preserve"/></u>`,
		`<dup a="1" a="2"/>`,
		`<ws>   </ws>`,
		// Slab sizing counts "</" and "/>": text full of either only
		// over-estimates, and a lone <a/> is the shortest element there is.
		`<t>/>/>/>/>/>/>/>/>/>/> and a/>b</t>`,
		`<a/>`,
		`<w>` + strings.Repeat(`<k a="1"><g/></k>`, 100) + `</w>`,
	}
	for _, doc := range docs {
		fast, ok := Decode([]byte(doc))
		if !ok {
			t.Errorf("fast decode refused %q", doc)
			continue
		}
		want, err := xmlutil.UnmarshalElement([]byte(doc))
		if err != nil {
			t.Errorf("fast decode accepted %q but encoding/xml errors: %v", doc, err)
			continue
		}
		if !fast.Equal(want) {
			t.Errorf("decode diverges on %q:\n fast: %s\n want: %s", doc, fast, want)
		}
	}
}

func TestDecodeFallsBackOutsideRecognizedShape(t *testing.T) {
	docs := []string{
		`<a><![CDATA[raw]]></a>`,       // CDATA
		`<a><!-- comment --></a>`,      // comments
		`<a><?pi data?></a>`,           // PI past the prolog
		`<a>caf` + "\xc3\xa9" + `</a>`, // non-ASCII
		`<a>&unknown;</a>`,             // undefined entity
		`<a b="un<escaped"/>`,          // literal < in attr value
		`<a>]]&gt;ok but ]]> not</a>`,  // raw ]]> in char data
		`<a><b></a></b>`,               // mismatched end tags
		`<a`,                           // truncated
		``,                             // empty
		`<!DOCTYPE a><a/>`,             // doctype
		`<a ` + "\x00" + `="1"/>`,      // NUL byte
		strings.Repeat(`<d>`, 600) + strings.Repeat(`</d>`, 600), // too deep
		strings.Repeat(`<d>`, 40) + `</d>`,                       // opens more than it closes: outruns the sized slab
	}
	for _, doc := range docs {
		if _, ok := Decode([]byte(doc)); ok {
			t.Errorf("fast decode accepted out-of-shape input %q", doc)
		}
	}
}

func TestDecodeRoundTripsFastEncode(t *testing.T) {
	tree := sampleTree()
	fast, ok := AppendElement(nil, tree)
	if !ok {
		t.Fatal("fast encode refused sample tree")
	}
	got, ok := Decode(fast)
	if !ok {
		t.Fatalf("fast decode refused fast-encoded bytes %q", fast)
	}
	want := xmlRoundTrip(t, tree)
	if !got.Equal(want) {
		t.Fatalf("fast round trip diverges:\n got: %s\n want: %s", got, want)
	}
}

func TestAppendEnvelopeMatchesWrapperTree(t *testing.T) {
	const ns = "http://www.w3.org/2003/05/soap-envelope"
	wsa := "http://www.w3.org/2005/08/addressing"
	headers := []*xmlutil.Element{
		xmlutil.NewElement(xmlutil.Q(wsa, "Action"), "urn:uvacg:fss/Upload"),
		xmlutil.NewElement(xmlutil.Q(wsa, "MessageID"), "urn:uuid:1234"),
	}
	body := sampleTree()

	fast, ok := AppendEnvelope(nil, ns, headers, body)
	if !ok {
		t.Fatal("fast envelope encode refused recognized input")
	}
	if !bytes.HasPrefix(fast, []byte(Header)) {
		t.Fatalf("envelope missing prolog: %q", fast[:40])
	}

	// Reference form: materialize the wrapper tree and push it through
	// encoding/xml, then compare decoded infosets.
	env := xmlutil.NewContainer(xmlutil.Q(ns, "Envelope"),
		xmlutil.NewContainer(xmlutil.Q(ns, "Header"), headers...),
		xmlutil.NewContainer(xmlutil.Q(ns, "Body"), body))
	refBytes, err := xmlutil.MarshalElement(env)
	if err != nil {
		t.Fatalf("reference marshal: %v", err)
	}
	want, err := xmlutil.UnmarshalElement(refBytes)
	if err != nil {
		t.Fatalf("reference unmarshal: %v", err)
	}
	got, err := xmlutil.UnmarshalElement(fast)
	if err != nil {
		t.Fatalf("encoding/xml rejected fast envelope %q: %v", fast, err)
	}
	if !got.Equal(want) {
		t.Fatalf("fast envelope diverges:\n got: %s\n want: %s", got, want)
	}
}

func TestAppendEnvelopeEmptyBody(t *testing.T) {
	const ns = "http://www.w3.org/2003/05/soap-envelope"
	fast, ok := AppendEnvelope(nil, ns, nil, nil)
	if !ok {
		t.Fatal("fast envelope encode refused empty envelope")
	}
	got, err := xmlutil.UnmarshalElement(fast)
	if err != nil {
		t.Fatalf("encoding/xml rejected empty fast envelope: %v", err)
	}
	if got.Name != xmlutil.Q(ns, "Envelope") || len(got.Children) != 1 ||
		got.Children[0].Name != xmlutil.Q(ns, "Body") || len(got.Children[0].Children) != 0 {
		t.Fatalf("unexpected empty-envelope shape: %s", got)
	}
}

func TestEncodeFallsBackOutsideRecognizedShape(t *testing.T) {
	cases := map[string]*xmlutil.Element{
		"non-ascii text":   xmlutil.NewElement(xmlutil.Q("", "a"), "café"),
		"control text":     xmlutil.NewElement(xmlutil.Q("", "a"), "x\x01y"),
		"bad local":        xmlutil.NewElement(xmlutil.Q("", "bad name"), ""),
		"empty local":      xmlutil.NewElement(xmlutil.Q("", ""), ""),
		"prefixed local":   xmlutil.NewElement(xmlutil.Q("", "p:a"), ""),
		"xmlns attr":       xmlutil.NewElement(xmlutil.Q("", "a"), "").SetAttr(xmlutil.Q("", "xmlns"), "urn:x"),
		"xmlns-space attr": xmlutil.NewElement(xmlutil.Q("", "a"), "").SetAttr(xmlutil.Q("xmlns", "p"), "urn:x"),
		// encoding/xml cannot undeclare a default namespace, so the fast
		// path must not invent xmlns="" for a no-namespace child.
		"empty-ns child under ns parent": xmlutil.NewContainer(xmlutil.Q("urn:x", "a"),
			xmlutil.NewElement(xmlutil.Q("", "plain"), "t")),
		"nil": nil,
	}
	for name, tree := range cases {
		if _, ok := AppendElement(nil, tree); ok {
			t.Errorf("%s: fast encode accepted out-of-shape tree", name)
		}
	}
	deep := xmlutil.NewElement(xmlutil.Q("", "leaf"), "")
	for i := 0; i < 600; i++ {
		deep = xmlutil.NewContainer(xmlutil.Q("", "wrap"), deep)
	}
	if _, ok := AppendElement(nil, deep); ok {
		t.Error("fast encode accepted over-deep tree")
	}
}

// TestEncodeManyAttrSpaces exercises prefix interning past the static
// table.
func TestEncodeManyAttrSpaces(t *testing.T) {
	e := xmlutil.NewElement(xmlutil.Q("", "a"), "")
	for _, sp := range []string{"u0", "u1", "u2", "u3", "u4", "u5", "u6", "u7", "u8", "u9"} {
		e.SetAttr(xmlutil.Q("urn:"+sp, "k"), sp)
	}
	fast, ok := AppendElement(nil, e)
	if !ok {
		t.Fatal("fast encode refused many-space tree")
	}
	got, err := xmlutil.UnmarshalElement(fast)
	if err != nil {
		t.Fatalf("encoding/xml rejected fast output: %v", err)
	}
	if !got.Equal(xmlRoundTrip(t, e)) {
		t.Fatalf("many-space encode diverges: %s", got)
	}
}

// TestDecodeTrailingContentIgnored mirrors xml.Unmarshal, which stops
// reading at the root's end element.
func TestDecodeTrailingContentIgnored(t *testing.T) {
	doc := `<a>x</a> trailing <garbage`
	fast, ok := Decode([]byte(doc))
	if !ok {
		t.Fatal("fast decode refused doc with trailing content")
	}
	var want xmlutil.Element
	if err := xml.Unmarshal([]byte(doc), &want); err != nil {
		t.Fatalf("encoding/xml rejected it too: %v", err)
	}
	if !fast.Equal(&want) {
		t.Fatalf("diverges: %s vs %s", fast, &want)
	}
}

// TestDecodedTreeSurvivesLaterDecodes: the parser and its scratch stacks
// are pooled, the tree is not. A retained document must read the same
// after a thousand other documents — wider, deeper, with more attributes
// and namespace bindings than it has — went through the pool on several
// goroutines at once.
func TestDecodedTreeSurvivesLaterDecodes(t *testing.T) {
	docA := `<s:set xmlns:s="urn:s" s:id="A"><s:job name="gen" state="Completed"><s:dir>inproc://n/Files</s:dir></s:job><s:job name="sum"/>tail</s:set>`
	a, ok := Decode([]byte(docA))
	if !ok {
		t.Fatal("fast decode refused the retained document")
	}
	want := a.Clone()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 125; i++ {
				kids := strings.Repeat(fmt.Sprintf(`<o:k xmlns:o="urn:o%d" a="%d" b="x" c="y"><o:v>%d</o:v></o:k>`, g, i, i), 1+i%40)
				doc := fmt.Sprintf(`<other xmlns="urn:other" n="%d">%s</other>`, i, kids)
				got, ok := Decode([]byte(doc))
				if !ok || len(got.Children) != 1+i%40 {
					t.Errorf("decode %d/%d: ok=%v", g, i, ok)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if !a.Equal(want) {
		t.Fatalf("retained tree changed under later decodes:\n got: %s\nwant: %s", a, want)
	}
	if again, _ := Decode([]byte(docA)); !again.Equal(want) {
		t.Fatalf("re-decode through a used parser diverges: %s", again)
	}
}
