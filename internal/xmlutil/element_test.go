package xmlutil

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

var nsT = "urn:uvacg:test"

func sampleDoc() *Element {
	return NewContainer(Q(nsT, "props"),
		NewElement(Q(nsT, "Status"), "Running"),
		NewElement(Q(nsT, "CPUTime"), "42"),
		NewContainer(Q(nsT, "Node"),
			NewElement(Q(nsT, "Name"), "win-a"),
			NewElement(Q(nsT, "Speed"), "2800"),
		).SetAttr(Q("", "id"), "n1"),
		NewContainer(Q(nsT, "Node"),
			NewElement(Q(nsT, "Name"), "win-b"),
			NewElement(Q(nsT, "Speed"), "1400"),
		).SetAttr(Q("", "id"), "n2"),
	)
}

func TestElementMarshalRoundTrip(t *testing.T) {
	doc := sampleDoc()
	data, err := MarshalElement(doc)
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalElement(data)
	if err != nil {
		t.Fatalf("unmarshal %s: %v", data, err)
	}
	if !doc.Equal(back) {
		t.Fatalf("round trip mismatch:\n orig %s\n back %s", doc, back)
	}
}

func TestElementChildAccessors(t *testing.T) {
	doc := sampleDoc()
	if got := doc.ChildText(Q(nsT, "Status")); got != "Running" {
		t.Errorf("ChildText = %q", got)
	}
	if doc.Child(Q(nsT, "Missing")) != nil {
		t.Error("Child(missing) should be nil")
	}
	nodes := doc.ChildrenNamed(Q(nsT, "Node"))
	if len(nodes) != 2 {
		t.Fatalf("ChildrenNamed = %d nodes", len(nodes))
	}
	if nodes[1].Attr(Q("", "id")) != "n2" {
		t.Errorf("attr = %q", nodes[1].Attr(Q("", "id")))
	}
}

func TestElementCloneIsDeep(t *testing.T) {
	doc := sampleDoc()
	cp := doc.Clone()
	if !doc.Equal(cp) {
		t.Fatal("clone not equal")
	}
	cp.Children[0].Text = "Exited"
	cp.Children[2].SetAttr(Q("", "id"), "changed")
	if doc.Children[0].Text != "Running" {
		t.Error("mutating clone text leaked into original")
	}
	if doc.Children[2].Attr(Q("", "id")) != "n1" {
		t.Error("mutating clone attr leaked into original")
	}
}

func TestElementEqualNegativeCases(t *testing.T) {
	a := sampleDoc()
	b := sampleDoc()
	b.Children[1].Text = "43"
	if a.Equal(b) {
		t.Error("differing text should not be equal")
	}
	c := sampleDoc()
	c.Children = c.Children[:3]
	if a.Equal(c) {
		t.Error("differing child count should not be equal")
	}
	var nilElem *Element
	if a.Equal(nilElem) || nilElem.Equal(a) {
		t.Error("nil comparisons should be false")
	}
	if !nilElem.Equal(nil) {
		t.Error("nil == nil")
	}
}

func genElement(r *rand.Rand, depth int) *Element {
	e := &Element{Name: Q(genNamespace(r), genIdent(r))}
	for i := 0; i < r.Intn(3); i++ {
		e.SetAttr(Q("", genIdent(r)), genIdent(r))
	}
	if depth > 0 && r.Intn(2) == 0 {
		n := 1 + r.Intn(3)
		for i := 0; i < n; i++ {
			e.Children = append(e.Children, genElement(r, depth-1))
		}
	} else {
		e.Text = genIdent(r)
	}
	return e
}

// TestElementRoundTripProperty: marshal∘unmarshal is the identity on
// arbitrary trees (the invariant every SOAP payload relies on).
func TestElementRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		doc := genElement(r, 3)
		data, err := MarshalElement(doc)
		if err != nil {
			return false
		}
		back, err := UnmarshalElement(data)
		if err != nil {
			return false
		}
		return doc.Equal(back)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestElementCanonicalMarshal: serialization is deterministic even with
// multiple attributes set out of order.
func TestElementCanonicalMarshal(t *testing.T) {
	e := NewElement(Q(nsT, "x"), "v").
		SetAttr(Q("", "zeta"), "1").
		SetAttr(Q("", "alpha"), "2").
		SetAttr(Q("", "mid"), "3")
	first, err := MarshalElement(e)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		again, err := MarshalElement(e)
		if err != nil {
			t.Fatal(err)
		}
		if string(again) != string(first) {
			t.Fatalf("non-deterministic marshal:\n%s\n%s", first, again)
		}
	}
}

// TestSetAttrKeepsCanonicalOrder: whatever order attributes are set in,
// Attrs holds one per name in (Space, Local) order; setting a name again
// replaces its value.
func TestSetAttrKeepsCanonicalOrder(t *testing.T) {
	e := NewElement(Q(nsT, "x"), "").
		SetAttr(Q("urn:b", "k"), "1").
		SetAttr(Q("", "zeta"), "2").
		SetAttr(Q("urn:a", "z"), "3").
		SetAttr(Q("", "alpha"), "4").
		SetAttr(Q("urn:a", "k"), "5").
		SetAttr(Q("", "zeta"), "6")
	want := []Attr{
		{Q("", "alpha"), "4"}, {Q("", "zeta"), "6"},
		{Q("urn:a", "k"), "5"}, {Q("urn:a", "z"), "3"}, {Q("urn:b", "k"), "1"},
	}
	if !slices.Equal(e.Attrs, want) {
		t.Fatalf("Attrs = %v, want %v", e.Attrs, want)
	}
}
