package wsa

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"uvacg/internal/soap"
	"uvacg/internal/xmlutil"
)

// Allocation pins for the per-message EPR work: every job EPR, producer
// reference and addressed call passes through these.

// oneProperty is the shape of every EPR the grid passes: an address and
// one ResourceID.
var oneProperty = NewEPR("http://node-a:8701/ExecutionService").WithProperty(qRID, "job-42")

func pinAllocs(t *testing.T, what string, most float64, f func()) {
	t.Helper()
	if got := testing.AllocsPerRun(200, f); got > most {
		t.Errorf("%s allocates %.1f times, want <= %.0f", what, got, most)
	}
}

func TestParseEPRAllocs(t *testing.T) {
	el := oneProperty.Element()
	pinAllocs(t, "ParseEPR of a one-property EPR", 1, func() {
		if _, err := ParseEPR(el); err != nil {
			t.Fatal(err)
		}
	})
}

// bytesPerRun is the heap bytes f allocates a call, over many calls.
func bytesPerRun(f func()) uint64 {
	const runs = 1000
	f() // warm up
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / runs
}

var sink EndpointReference

func TestWithPropertyAllocs(t *testing.T) {
	base := NewEPR("http://node-a:8701/ExecutionService")
	set := func() { sink = base.WithProperty(qRID, "job-42") }
	pinAllocs(t, "WithProperty", 1, set)
	// One property's worth: a one-entry map took a whole group of slots.
	if got := bytesPerRun(set); got > 64 {
		t.Errorf("WithProperty allocates %d bytes a call, want <= 64", got)
	}
}

func TestEPRStringAllocs(t *testing.T) {
	two := oneProperty.WithProperty(qDir, "jobs/7")
	pinAllocs(t, "String", 1, func() { _ = two.String() })
}

func TestNewMessageIDAllocs(t *testing.T) {
	most := 1.0 // the string
	if raceBuild {
		most++
	}
	pinAllocs(t, "NewMessageID", most, func() { _ = NewMessageID() })
}

func TestExtractAllocatesNoMap(t *testing.T) {
	env := Apply(soap.New(xmlutil.NewElement(xmlutil.Q(nsR, "Kill"), "")), oneProperty, "urn:uvacg:es/Kill")
	// The one allocation is the property list's array.
	pinAllocs(t, "Extract of one reference header", 1, func() {
		if _, err := Extract(env); err != nil {
			t.Fatal(err)
		}
	})
}

// TestReferenceHeadersAreDeterministic: an EPR with two properties binds
// its header blocks in one order, so the same call encodes to the same
// bytes every time, and every form of the EPR reads back as itself.
func TestReferenceHeadersAreDeterministic(t *testing.T) {
	epr := NewEPR("http://node-a:8701/FileSystemService").
		WithProperty(qRID, "dir-42").
		WithProperty(qDir, "jobs/7")
	var first []byte
	for i := 0; i < 50; i++ {
		env := Apply(soap.New(xmlutil.NewElement(xmlutil.Q(nsR, "Read"), "")), epr, "urn:uvacg:fss/Read")
		env.Header(qMessageID).Text = "urn:uuid:00000000-0000-4000-8000-000000000001"
		data, err := env.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = data
		} else if !bytes.Equal(data, first) {
			t.Fatalf("encoding %d differs from the first:\n%s\n%s", i, data, first)
		}
	}
	back, err := soap.Unmarshal(first)
	if err != nil {
		t.Fatal(err)
	}
	info, err := Extract(back)
	if err != nil {
		t.Fatal(err)
	}
	if !info.To.Equal(epr) {
		t.Errorf("Extract: %v, want %v", info.To, epr)
	}
	if parsed, err := ParseEPR(epr.Element()); err != nil || !parsed.Equal(epr) {
		t.Errorf("ParseEPR: %v, %v; want %v", parsed, err, epr)
	}
	if parsed, err := ParseEPRString(epr.String()); err != nil || !parsed.Equal(epr) {
		t.Errorf("ParseEPRString: %v, %v; want %v", parsed, err, epr)
	}
}

// TestLastPropertyOfANameWins: a repeated name keeps its last value in
// every form that can carry it twice, as a map did.
func TestLastPropertyOfANameWins(t *testing.T) {
	want := NewEPR("http://x/S").WithProperty(qRID, "second")
	if got := NewEPR("http://x/S").WithProperty(qRID, "first").WithProperty(qRID, "second"); !got.Equal(want) {
		t.Errorf("WithProperty: %v", got)
	}
	el := xmlutil.NewContainer(qEPR, xmlutil.NewElement(qAddress, "http://x/S"),
		xmlutil.NewContainer(qRefProps, xmlutil.NewElement(qRID, "first"), xmlutil.NewElement(qRID, "second")))
	if got, err := ParseEPR(el); err != nil || !got.Equal(want) {
		t.Errorf("ParseEPR: %v, %v", got, err)
	}
	if got, err := ParseEPRString("http://x/S?{" + nsR + "}ResourceID=first&{" + nsR + "}ResourceID=second"); err != nil || !got.Equal(want) {
		t.Errorf("ParseEPRString: %v, %v", got, err)
	}
	env := soap.New(nil)
	env.AddHeader(xmlutil.NewElement(qAction, "urn:a"))
	env.AddHeader(xmlutil.NewElement(qTo, "http://x/S"))
	env.AddHeader(refPropHeader(Property{Name: qRID, Value: "first"}))
	env.AddHeader(refPropHeader(Property{Name: qRID, Value: "second"}))
	if info, err := Extract(env); err != nil || !info.To.Equal(want) {
		t.Errorf("Extract: %v, %v", info.To, err)
	}
}

// TestManyReferencePropertiesReadInLinearithmicTime: a peer's envelope
// may carry as many reference-property headers as MaxEnvelopeBytes
// holds, and Extract runs before any check of who sent it; so do the
// EPR parsers on what they are given. Reading 100 000 properties is one
// sort, well inside the bound, where a sorted insert per property (10^10
// comparisons and moves) is far outside it.
func TestManyReferencePropertiesReadInLinearithmicTime(t *testing.T) {
	const n = 100_000
	env := soap.New(nil)
	env.AddHeader(xmlutil.NewElement(qAction, "urn:a"))
	env.AddHeader(xmlutil.NewElement(qTo, "http://x/S"))
	props := xmlutil.NewContainer(qRefProps)
	var str strings.Builder
	str.WriteString("http://x/S")
	for i := n; i > 0; i-- { // descending: every insert would go first
		name := xmlutil.Q(nsR, fmt.Sprintf("P%06d", i))
		env.AddHeader(refPropHeader(Property{Name: name, Value: "v"}))
		props.Append(xmlutil.NewElement(name, "v"))
		if i == n {
			str.WriteByte('?')
		} else {
			str.WriteByte('&')
		}
		fmt.Fprintf(&str, "{%s}P%06d=v", nsR, i)
	}
	el := xmlutil.NewContainer(qEPR, xmlutil.NewElement(qAddress, "http://x/S"), props)
	const bound = 5 * time.Second
	for _, c := range []struct {
		name string
		read func() (EndpointReference, error)
	}{
		{"Extract", func() (EndpointReference, error) {
			info, err := Extract(env)
			return info.To, err
		}},
		{"ParseEPR", func() (EndpointReference, error) { return ParseEPR(el) }},
		{"ParseEPRString", func() (EndpointReference, error) { return ParseEPRString(str.String()) }},
	} {
		start := time.Now()
		epr, err := c.read()
		took := time.Since(start)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if took > bound {
			t.Errorf("%s of %d reference properties took %v, want <= %v", c.name, n, took, bound)
		}
		p := epr.ReferenceProperties
		if len(p) != n || p[0].Name.Local != "P000001" || p[n-1].Name.Local != fmt.Sprintf("P%06d", n) {
			t.Errorf("%s read %d properties, want %d in name order", c.name, len(p), n)
		}
	}
}
