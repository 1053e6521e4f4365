package wsa

import (
	"math/rand"
	"regexp"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"uvacg/internal/xmlutil"
)

var (
	nsR  = "urn:uvacg:wsrf"
	qRID = xmlutil.Q(nsR, "ResourceID")
	qDir = xmlutil.Q(nsR, "Directory")
)

func TestEPRElementRoundTrip(t *testing.T) {
	epr := NewEPR("http://node-a:8080/FileSystemService").
		WithProperty(qRID, "dir-42").
		WithProperty(qDir, "jobs/7")
	back, err := ParseEPR(epr.Element())
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(epr) {
		t.Fatalf("round trip mismatch: %v vs %v", back, epr)
	}
}

func TestEPRNoPropsRoundTrip(t *testing.T) {
	epr := NewEPR("soap.tcp://client:9000/files")
	back, err := ParseEPR(epr.Element())
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(epr) || back.ReferenceProperties != nil {
		t.Fatalf("got %v", back)
	}
}

func TestEPRWithPropertyIsCopyOnWrite(t *testing.T) {
	base := NewEPR("http://x/S").WithProperty(qRID, "a")
	derived := base.WithProperty(qRID, "b")
	if base.Property(qRID) != "a" {
		t.Error("WithProperty mutated the receiver")
	}
	if derived.Property(qRID) != "b" {
		t.Error("derived property lost")
	}
}

func TestEPREqual(t *testing.T) {
	a := NewEPR("http://x/S").WithProperty(qRID, "1")
	b := NewEPR("http://x/S").WithProperty(qRID, "1")
	c := NewEPR("http://x/S").WithProperty(qRID, "2")
	d := NewEPR("http://y/S").WithProperty(qRID, "1")
	e := a.WithProperty(qDir, "z")
	if !a.Equal(b) {
		t.Error("identical EPRs unequal")
	}
	for name, other := range map[string]EndpointReference{"value": c, "address": d, "extra prop": e} {
		if a.Equal(other) {
			t.Errorf("%s: should be unequal", name)
		}
	}
}

func TestEPRStringCanonical(t *testing.T) {
	a := NewEPR("http://x/S").WithProperty(qRID, "1").WithProperty(qDir, "d")
	b := NewEPR("http://x/S").WithProperty(qDir, "d").WithProperty(qRID, "1")
	if a.String() != b.String() {
		t.Fatalf("String not canonical: %q vs %q", a.String(), b.String())
	}
	if !strings.HasPrefix(a.String(), "http://x/S?") {
		t.Errorf("String = %q", a.String())
	}
}

func TestEPRIsZero(t *testing.T) {
	if !(EndpointReference{}).IsZero() {
		t.Error("zero EPR should report IsZero")
	}
	if NewEPR("http://x").IsZero() {
		t.Error("addressed EPR is not zero")
	}
}

func TestParseEPRErrors(t *testing.T) {
	if _, err := ParseEPR(nil); err == nil {
		t.Error("nil element")
	}
	noAddr := xmlutil.NewContainer(qEPR)
	if _, err := ParseEPR(noAddr); err == nil {
		t.Error("missing address")
	}
}

func TestNewMessageIDFormat(t *testing.T) {
	re := regexp.MustCompile(`^urn:uuid:[0-9a-f]{8}-[0-9a-f]{4}-4[0-9a-f]{3}-[89ab][0-9a-f]{3}-[0-9a-f]{12}$`)
	seen := make(map[string]bool)
	for i := 0; i < 100; i++ {
		id := NewMessageID()
		if !re.MatchString(id) {
			t.Fatalf("bad message id %q", id)
		}
		if seen[id] {
			t.Fatalf("duplicate message id %q", id)
		}
		seen[id] = true
	}
}

// TestEPRRoundTripProperty: element form is lossless for arbitrary
// property sets.
func TestEPRRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		const letters = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
		const valueChars = letters + "0123456789:/.-_"
		genStr := func(chars string, min, max int) string {
			n := min + r.Intn(max-min+1)
			var b strings.Builder
			for i := 0; i < n; i++ {
				b.WriteByte(chars[r.Intn(len(chars))])
			}
			return b.String()
		}
		epr := NewEPR("http://host/Svc")
		for i, n := 0, r.Intn(5); i < n; i++ {
			epr = epr.WithProperty(xmlutil.Q(nsR, genStr(letters, 1, 12)), genStr(valueChars, 0, 24))
		}
		data, err := xmlutil.MarshalElement(epr.Element())
		if err != nil {
			return false
		}
		el, err := xmlutil.UnmarshalElement(data)
		if err != nil {
			return false
		}
		back, err := ParseEPR(el)
		if err != nil {
			return false
		}
		return back.Equal(epr)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestParseEPRStringRoundTrip(t *testing.T) {
	orig := NewEPR("http://host:8700/SchedulerService").
		WithProperty(qRID, "abc-123").
		WithProperty(qDir, "jobs/7")
	back, err := ParseEPRString(orig.String())
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(orig) {
		t.Fatalf("round trip: %v vs %v", back, orig)
	}
	// Plain addresses work too.
	plain, err := ParseEPRString("http://host/S")
	if err != nil || !plain.Equal(NewEPR("http://host/S")) {
		t.Fatalf("plain: %v %v", plain, err)
	}
	// Malformed forms are rejected.
	for _, bad := range []string{"", "http://h/S?novalue", "http://h/S?{unclosed=x"} {
		if _, err := ParseEPRString(bad); err == nil {
			t.Errorf("ParseEPRString(%q): expected error", bad)
		}
	}
}

// pointsInto reports whether s is a view of buf's bytes.
func pointsInto(s string, buf []byte) bool {
	if s == "" || len(buf) == 0 {
		return false
	}
	p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(buf)))
	return p >= lo && p < lo+uintptr(len(buf))
}

// TestOwnSharesNoBytes: an EPR parsed from a message points into the
// message's bytes; Own's copy names the same resource and points into
// none of them.
func TestOwnSharesNoBytes(t *testing.T) {
	epr := NewEPR("http://node-a:8080/FileSystemService").WithProperty(qRID, "dir-42").WithProperty(qDir, "jobs/7")
	data, err := xmlutil.MarshalElement(epr.Element())
	if err != nil {
		t.Fatal(err)
	}
	el, err := xmlutil.UnmarshalElement(data)
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseEPR(el)
	if err != nil {
		t.Fatal(err)
	}
	if !pointsInto(parsed.Address, data) {
		t.Fatal("the parsed EPR is a copy already: the test reads nothing")
	}
	owned := parsed.Own()
	if !owned.Equal(epr) {
		t.Fatalf("Own = %v, want %v", owned, epr)
	}
	strs := []string{owned.Address}
	for _, p := range owned.ReferenceProperties {
		strs = append(strs, p.Name.Space, p.Name.Local, p.Value)
	}
	for _, s := range strs {
		if pointsInto(s, data) {
			t.Errorf("Own kept %q as a view of the message", s)
		}
	}
	if !(EndpointReference{}).Own().IsZero() {
		t.Error("the zero EPR's copy is not zero")
	}
}
