package xmlutil

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"unicode/utf8"
	"unsafe"
)

// sampleTree builds a realistic WS-Addressing-flavoured element tree.
func sampleTree() *Element {
	wsa := "http://www.w3.org/2005/08/addressing"
	fss := "urn:uvacg:fss"
	body := NewContainer(Q(fss, "Upload"))
	body.SetAttr(Q("", "mode"), "create")
	body.SetAttr(Q(wsa, "IsReferenceParameter"), "true")
	body.Append(
		NewElement(Q(fss, "Path"), "/scratch/job-42/input.dat"),
		NewElement(Q(fss, "Offset"), "1048576"),
		NewContainer(Q(fss, "Meta"),
			NewElement(Q(fss, "Checksum"), "a1b2c3&d4<e5>"),
			NewElement(Q(fss, "Owner"), `alice "the admin"`),
		),
	)
	return body
}

// oracleReads decodes data with encoding/xml, failing the test if it
// cannot.
func oracleReads(t *testing.T, data []byte) *Element {
	t.Helper()
	e, err := oracleUnmarshal(data)
	if err != nil {
		t.Fatalf("encoding/xml rejects %q: %v", data, err)
	}
	return e
}

func TestMarshalElementMatchesEncodingXML(t *testing.T) {
	tree := sampleTree()
	data, err := MarshalElement(tree)
	if err != nil {
		t.Fatal(err)
	}
	if got := oracleReads(t, data); !got.Equal(tree) {
		t.Fatalf("encoding/xml reads the encoding differently:\n got: %s\nwant: %s", got, tree)
	}
}

func TestDecodeMatchesEncodingXML(t *testing.T) {
	docs := []string{
		`<Envelope xmlns="http://www.w3.org/2003/05/soap-envelope"><Header><Action xmlns="http://www.w3.org/2005/08/addressing">urn:op</Action></Header><Body><Run xmlns="urn:x"><Arg>a &amp; b</Arg><Arg>second</Arg></Run></Body></Envelope>`,
		`<a><b c="1" d="2&#xA;3">text</b>  padded  </a>`,
		`<p:root xmlns:p="urn:p" p:own="v"><p:kid/></p:root>`,
		`<r xmlns="u1"><k xmlns=""><deep xmlns="u2">x</deep></k></r>`,
		header + `<ok attr='si&#39;ngle'/>`,
		`<m>line1` + "\r\n" + `line2` + "\r" + `line3</m>`,
		`<u undeclared:x="1"><xml:lang xml:space="preserve"/></u>`,
		`<dup a="1" a="2"/>`,
		`<ws>   </ws>`,
		// Slab sizing counts "</" and "/>": text full of either only
		// over-estimates, and a lone <a/> is the shortest element there is.
		`<t>/>/>/>/>/>/>/>/>/>/> and a/>b</t>`,
		`<a/>`,
		`<w>` + strings.Repeat(`<k a="1"><g/></k>`, 100) + `</w>`,
		// Nothing to rewrite, so values end at their quote and text at
		// its '<': a '>' or a lone ']' is ordinary content there.
		`<b x="[1]>0" y='"'>a]]b ]> c</b>`,
		`<b>a]]&gt;b</b>`,
		// What only encoding/xml read before.
		`<a>&#0000000065;&#x0000041;</a>`,
		`<?xml version='1.0'?><a/>`,
		`<?xml version="1.0" encoding="utf-8" standalone="yes"?>` + "\n<a/>",
		`<?xml encoding='Utf-8' version="1.0" ?><a/>`,
		`<?other data?><!-- before --><a>x<!-- inside -->y</a><!-- after -->`,
		`<a>one<![CDATA[ <two> & ` + "\r\n" + `three ]]>four</a>`,
		"\ufeff<a>after a byte-order mark</a>",
		"<a>café ✓ 𝄞</a>",
		"<données xmlns=\"urn:é\" clé=\"valeur\"><é:x xmlns:é=\"urn:ü\"/></données>",
		`<a>&#xE9;&#233;&#x1D11E;&#xD800;</a>`,
		"<a>\x7f</a>",
		`<a xmlns="u"><xmlns/><p:xmlns xmlns:p="v"/><xmlns:z/></a>`,
	}
	for _, doc := range docs {
		got, err := UnmarshalElement([]byte(doc))
		if err != nil {
			t.Errorf("decode refused %q: %v", doc, err)
			continue
		}
		if want := oracleReads(t, []byte(doc)); !got.Equal(want) {
			t.Errorf("decode diverges on %q:\n got: %s\nwant: %s", doc, got, want)
		}
	}
}

// TestDecodeRefusesWhatSOAPForbids: what the decoder does not read is an
// error naming where it stopped, not a fallback.
func TestDecodeRefusesWhatSOAPForbids(t *testing.T) {
	docs := []string{
		`<!DOCTYPE a><a/>`,              // a DTD (SOAP forbids it)
		`<a><!DOCTYPE b></a>`,           // the same inside the root
		`<a><?pi data?></a>`,            // PI inside the root (SOAP forbids it)
		`<a b="1"c="2"/>`,               // attributes not separated by white space
		`<a>&unknown;</a>`,              // undefined entity
		`<a>&#1;</a>`,                   // reference to no Char
		`<a>&#x110000;</a>`,             // past the last code point
		`<a>&#X41;</a>`,                 // uppercase X
		`<a b="un<escaped"/>`,           // literal < in attr value
		`<a b="un<esc&amp;aped"/>`,      // the same where a value needs rewriting
		`<a b="unterminated/>`,          // no closing quote
		`<a>]]&gt;ok but ]]> not</a>`,   // raw ]]> in char data
		`<a>raw ]]> alone</a>`,          // the same with nothing else to rewrite
		`<a><!-- a -- b --></a>`,        // "--" inside a comment
		`<a><![CDATA[open</a>`,          // unterminated CDATA
		`<a><b></a></b>`,                // mismatched end tags
		`<a`,                            // truncated
		``,                              // empty
		" \n\t",                         // whitespace only
		`<?xml version="1.1"?><a/>`,     // XML 1.1
		`<?xml encoding="latin1"?><a/>`, // not UTF-8
		`<?><a/>`,                       // PI without a target
		`<a ` + "\x00" + `="1"/>`,       // NUL byte
		"<a>caf\xe9</a>",                // invalid UTF-8
		"<a>\uffff</a>",                 // no Char
		"<a/><!-- \xff -->",             // invalid UTF-8 where encoding/xml does not look
		`<:a/>`,                         // not a QName
		`<a:/>`,                         // not a QName
		`<a:1b/>`,                       // local part is no NCName
		"<a\u00a0/>",                    // no NameChar
		strings.Repeat(`<d>`, 600) + strings.Repeat(`</d>`, 600), // too deep
		strings.Repeat(`<d>`, 40) + `</d>`,                       // opens more than it closes: outruns the sized slab
	}
	inputs := [][]byte{nil} // no bytes at all
	for _, doc := range docs {
		inputs = append(inputs, []byte(doc))
	}
	for _, data := range inputs {
		root, err := UnmarshalElement(data)
		if err == nil || root != nil {
			t.Errorf("decode accepted %q", data)
			continue
		}
		if !strings.Contains(err.Error(), "at byte") {
			t.Errorf("decode of %q: error %q does not say where", data, err)
		}
	}
}

func TestDecodeRoundTripsEncode(t *testing.T) {
	tree := sampleTree()
	data, err := MarshalElement(tree)
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalElement(data)
	if err != nil {
		t.Fatalf("decode refused encoded bytes %q: %v", data, err)
	}
	if !got.Equal(tree) {
		t.Fatalf("round trip diverges:\n got: %s\nwant: %s", got, tree)
	}
}

func TestEncodeEnvelopeMatchesWrapperTree(t *testing.T) {
	const ns = "http://www.w3.org/2003/05/soap-envelope"
	wsa := "http://www.w3.org/2005/08/addressing"
	headers := []*Element{
		NewElement(Q(wsa, "Action"), "urn:uvacg:fss/Upload"),
		NewElement(Q(wsa, "MessageID"), "urn:uuid:1234"),
	}
	body := sampleTree()

	data, err := MarshalEnvelope(ns, headers, body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(data, []byte(header)) {
		t.Fatalf("envelope missing prolog: %q", data[:40])
	}
	want := NewContainer(Q(ns, "Envelope"),
		NewContainer(Q(ns, "Header"), headers...),
		NewContainer(Q(ns, "Body"), body))
	if got := oracleReads(t, data); !got.Equal(want) {
		t.Fatalf("envelope diverges:\n got: %s\nwant: %s", got, want)
	}
}

func TestEncodeEnvelopeEmptyBody(t *testing.T) {
	const ns = "http://www.w3.org/2003/05/soap-envelope"
	data, err := MarshalEnvelope(ns, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := oracleReads(t, data)
	if got.Name != Q(ns, "Envelope") || len(got.Children) != 1 ||
		got.Children[0].Name != Q(ns, "Body") || len(got.Children[0].Children) != 0 {
		t.Fatalf("unexpected empty-envelope shape: %s", got)
	}
}

// TestEncodeRoundTripsUnusualTrees: non-ASCII text and names, bytes that
// are no XML Char, a no-namespace child under a namespaced parent and
// names that are xmlns encode, and both decoders read them back as the
// tree, with U+FFFD for what is no Char.
func TestEncodeRoundTripsUnusualTrees(t *testing.T) {
	cases := map[string]struct{ tree, want *Element }{
		"non-ascii text": {tree: NewElement(Q("", "a"), "café ✓")},
		"non-ascii names": {tree: NewContainer(Q("urn:é", "données"),
			NewElement(Q("urn:é", "clé"), "v")).SetAttr(Q("urn:ü", "été"), "x")},
		"control text":  {tree: NewElement(Q("", "a"), "x\x01y"), want: NewElement(Q("", "a"), "x\uFFFDy")},
		"invalid utf-8": {tree: NewElement(Q("", "a"), "x\xffy\uFFFE"), want: NewElement(Q("", "a"), "x\uFFFDy\uFFFD")},
		"empty-ns child under ns parent": {tree: NewContainer(Q("urn:x", "a"),
			NewElement(Q("", "plain"), "t"))},
		"element named xmlns": {tree: NewContainer(Q("urn:x", "a"),
			NewElement(Q("", "xmlns"), "t"), NewElement(Q("urn:y", "xmlns"), "u"))},
		"attribute named xmlns in a namespace": {tree: NewElement(Q("", "a"), "").SetAttr(Q("urn:x", "xmlns"), "v")},
	}
	for name, c := range cases {
		want := c.want
		if want == nil {
			want = c.tree
		}
		data, err := MarshalElement(c.tree)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if got, err := UnmarshalElement(data); err != nil || !got.Equal(want) {
			t.Errorf("%s: %q decodes to %s (%v), want %s", name, data, got, err, want)
		}
		if got := oracleReads(t, data); !got.Equal(want) {
			t.Errorf("%s: encoding/xml reads %q as %s, want %s", name, data, got, want)
		}
	}
}

func TestEncodeRefusesUnreadableTrees(t *testing.T) {
	cases := map[string]*Element{
		"bad local":        NewElement(Q("", "bad name"), ""),
		"empty local":      NewElement(Q("", ""), ""),
		"prefixed local":   NewElement(Q("", "p:a"), ""),
		"invalid name":     NewElement(Q("", "a\xff"), ""),
		"xmlns attr":       NewElement(Q("", "a"), "").SetAttr(Q("", "xmlns"), "urn:x"),
		"xmlns-space attr": NewElement(Q("", "a"), "").SetAttr(Q("xmlns", "p"), "urn:x"),
		"nil child":        NewContainer(Q("", "a"), nil),
		"nil":              nil,
	}
	deep := NewElement(Q("", "leaf"), "")
	for i := 0; i < 600; i++ {
		deep = NewContainer(Q("", "wrap"), deep)
	}
	cases["deep"] = deep
	for name, tree := range cases {
		if data, err := MarshalElement(tree); err == nil || data != nil {
			t.Errorf("%s: encoded an unreadable tree as %q", name, data)
		}
	}
}

// TestEncodeManyAttrSpaces exercises prefix interning past the static
// table.
func TestEncodeManyAttrSpaces(t *testing.T) {
	e := NewElement(Q("", "a"), "")
	for _, sp := range []string{"u0", "u1", "u2", "u3", "u4", "u5", "u6", "u7", "u8", "u9"} {
		e.SetAttr(Q("urn:"+sp, "k"), sp)
	}
	data, err := MarshalElement(e)
	if err != nil {
		t.Fatal(err)
	}
	if got := oracleReads(t, data); !got.Equal(e) {
		t.Fatalf("many-space encode diverges: %s", got)
	}
}

// TestNameCharsCoverEncodingXML: every character encoding/xml admits in
// a name, first or later, the codec admits there too (XML 1.0 fifth
// edition's name productions hold the fourth edition's tables that
// encoding/xml carries).
func TestNameCharsCoverEncodingXML(t *testing.T) {
	for r := rune(utf8.RuneSelf); r <= 0xFFFF; r++ {
		if !isChar(r) || r >= 0xD800 && r <= 0xDFFF {
			continue
		}
		for _, doc := range []string{"<" + string(r) + "/>", "<a" + string(r) + "/>"} {
			if _, err := oracleUnmarshal([]byte(doc)); err != nil {
				continue
			}
			if _, err := UnmarshalElement([]byte(doc)); err != nil {
				t.Errorf("encoding/xml reads %q (U+%04X), the codec refuses it: %v", doc, r, err)
			}
		}
	}
}

// TestDecodeTrailingContentIgnored mirrors xml.Unmarshal, which stops
// reading at the root's end element.
func TestDecodeTrailingContentIgnored(t *testing.T) {
	doc := `<a>x</a> trailing <garbage`
	got, err := UnmarshalElement([]byte(doc))
	if err != nil {
		t.Fatalf("decode refused doc with trailing content: %v", err)
	}
	if want := oracleReads(t, []byte(doc)); !got.Equal(want) {
		t.Fatalf("diverges: %s vs %s", got, want)
	}
}

// TestDecodeAliasesInput: the decoder copies none of its input. Every
// name, text and attribute value of a document with nothing to rewrite
// points into the bytes it was given, which is why those bytes belong to
// the tree once decoded.
func TestDecodeAliasesInput(t *testing.T) {
	data := []byte(header + `<s:Envelope xmlns:s="urn:s"><s:Header><a:To xmlns:a="urn:a" a:must="1">inproc://n/ES</a:To></s:Header>` +
		`<s:Body><Run xmlns="urn:es" job="j1"><Name>  gen  </Name><Dir/></Run></s:Body></s:Envelope>`)
	root, err := UnmarshalElement(data)
	if err != nil {
		t.Fatal(err)
	}
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(data)))
	hi := lo + uintptr(len(data))
	checked := 0
	inData := func(what, s string) {
		if s == "" {
			return
		}
		checked++
		if p := uintptr(unsafe.Pointer(unsafe.StringData(s))); p < lo || p+uintptr(len(s)) > hi {
			t.Errorf("%s %q is a copy, not a view of the input", what, s)
		}
	}
	var walk func(e *Element)
	walk = func(e *Element) {
		inData("namespace", e.Name.Space)
		inData("name", e.Name.Local)
		inData("text", e.Text)
		for _, a := range e.Attrs {
			inData("attribute namespace", a.Name.Space)
			inData("attribute name", a.Name.Local)
			inData("attribute value", a.Value)
		}
		for _, c := range e.Children {
			walk(c)
		}
	}
	walk(root)
	if checked < 20 {
		t.Fatalf("checked %d strings; the document has more", checked)
	}
}

// TestDecodedTreeSurvivesLaterDecodes: the parser and its scratch stacks
// are pooled, the tree is not. A retained document must read the same
// after a thousand other documents — wider, deeper, with more attributes
// and namespace bindings than it has — went through the pool on several
// goroutines at once.
func TestDecodedTreeSurvivesLaterDecodes(t *testing.T) {
	docA := `<s:set xmlns:s="urn:s" s:id="A"><s:job name="gen" state="Completed"><s:dir>inproc://n/Files</s:dir></s:job><s:job name="sum"/>tail</s:set>`
	a, err := UnmarshalElement([]byte(docA))
	if err != nil {
		t.Fatal(err)
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
				got, err := UnmarshalElement([]byte(doc))
				if err != nil || len(got.Children) != 1+i%40 {
					t.Errorf("decode %d/%d: %v", g, i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if !a.Equal(want) {
		t.Fatalf("retained tree changed under later decodes:\n got: %s\nwant: %s", a, want)
	}
	if again, _ := UnmarshalElement([]byte(docA)); !again.Equal(want) {
		t.Fatalf("re-decode through a used parser diverges: %s", again)
	}
}
