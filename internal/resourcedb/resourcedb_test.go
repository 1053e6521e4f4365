package resourcedb

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"uvacg/internal/xmlutil"
)

var nsT = "urn:uvacg:test"

func jobDoc(status string, cpu int) *xmlutil.Element {
	return xmlutil.NewContainer(xmlutil.Q(nsT, "JobState"),
		xmlutil.NewElement(xmlutil.Q(nsT, "Status"), status),
		xmlutil.NewElement(xmlutil.Q(nsT, "CPUTime"), fmt.Sprint(cpu)),
		xmlutil.NewContainer(xmlutil.Q(nsT, "Files"),
			xmlutil.NewElement(xmlutil.Q(nsT, "File"), "in.dat").SetAttr(xmlutil.Q("", "role"), "input"),
			xmlutil.NewElement(xmlutil.Q(nsT, "File"), "out.dat").SetAttr(xmlutil.Q("", "role"), "output"),
		),
	)
}

func codecs() map[string]Codec {
	return map[string]Codec{"structured": StructuredCodec{}, "blob": BlobCodec{}}
}

func TestCodecRoundTrip(t *testing.T) {
	for name, codec := range codecs() {
		t.Run(name, func(t *testing.T) {
			doc := jobDoc("Running", 12)
			data, err := codec.Encode(doc)
			if err != nil {
				t.Fatal(err)
			}
			back, err := codec.Decode(data)
			if err != nil {
				t.Fatal(err)
			}
			if !doc.Equal(back) {
				t.Fatalf("round trip mismatch:\n%s\n%s", doc, back)
			}
		})
	}
}

func genElement(r *rand.Rand, depth int) *xmlutil.Element {
	const letters = "abcdefghijklmnopqrstuvwxyz"
	ident := func() string {
		n := 1 + r.Intn(8)
		var b strings.Builder
		for i := 0; i < n; i++ {
			b.WriteByte(letters[r.Intn(len(letters))])
		}
		return b.String()
	}
	e := &xmlutil.Element{Name: xmlutil.Q("urn:"+ident(), ident())}
	for i := 0; i < r.Intn(3); i++ {
		e.SetAttr(xmlutil.Q("", ident()), ident())
	}
	if depth > 0 && r.Intn(2) == 0 {
		for i, n := 0, 1+r.Intn(4); i < n; i++ {
			e.Children = append(e.Children, genElement(r, depth-1))
		}
	} else {
		e.Text = ident()
	}
	return e
}

// TestCodecRoundTripProperty: both codecs are lossless on arbitrary
// nested documents — the §5 concern that "a service can have an
// arbitrary structure to its Resource state, and yet WSRF.NET must be
// able to operate on it effectively".
func TestCodecRoundTripProperty(t *testing.T) {
	for name, codec := range codecs() {
		t.Run(name, func(t *testing.T) {
			f := func(seed int64) bool {
				r := rand.New(rand.NewSource(seed))
				doc := genElement(r, 4)
				data, err := codec.Encode(doc)
				if err != nil {
					return false
				}
				back, err := codec.Decode(data)
				if err != nil {
					return false
				}
				return doc.Equal(back)
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestStructuredCodecRejectsCorruption(t *testing.T) {
	codec := StructuredCodec{}
	data, err := codec.Encode(jobDoc("Running", 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := codec.Decode(nil); err == nil {
		t.Error("empty row accepted")
	}
	if _, err := codec.Decode(data[:len(data)/2]); err == nil {
		t.Error("truncated row accepted")
	}
	if _, err := codec.Encode(nil); err == nil {
		t.Error("nil document accepted")
	}
}

func TestTablePutGetDelete(t *testing.T) {
	for name, codec := range codecs() {
		t.Run(name, func(t *testing.T) {
			tbl := NewTable("jobs", codec)
			if err := tbl.Put("j1", jobDoc("Running", 5)); err != nil {
				t.Fatal(err)
			}
			doc, ok, err := tbl.Get("j1")
			if err != nil || !ok {
				t.Fatalf("Get: %v %v", ok, err)
			}
			if got := doc.ChildText(xmlutil.Q(nsT, "Status")); got != "Running" {
				t.Errorf("status = %q", got)
			}
			if !tbl.Exists("j1") || tbl.Exists("j2") {
				t.Error("Exists misreports")
			}
			// Overwrite changes visible state.
			if err := tbl.Put("j1", jobDoc("Exited", 30)); err != nil {
				t.Fatal(err)
			}
			doc, _, _ = tbl.Get("j1")
			if got := doc.ChildText(xmlutil.Q(nsT, "Status")); got != "Exited" {
				t.Errorf("after overwrite, status = %q", got)
			}
			if ok, err := tbl.Delete("j1"); err != nil || !ok {
				t.Errorf("delete: %v %v", ok, err)
			}
			if ok, err := tbl.Delete("j1"); err != nil || ok {
				t.Errorf("double delete: %v %v", ok, err)
			}
			if _, ok, _ := tbl.Get("j1"); ok {
				t.Error("row survived delete")
			}
		})
	}
}

func TestTableRejectsEmptyID(t *testing.T) {
	tbl := NewTable("jobs", BlobCodec{})
	if err := tbl.Put("", jobDoc("Running", 1)); err == nil {
		t.Fatal("empty id accepted")
	}
}

func TestTableIDsSorted(t *testing.T) {
	tbl := NewTable("jobs", StructuredCodec{})
	for _, id := range []string{"c", "a", "b"} {
		if err := tbl.Put(id, jobDoc("Running", 1)); err != nil {
			t.Fatal(err)
		}
	}
	if got := tbl.IDs(); !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Fatalf("IDs = %v", got)
	}
	if tbl.Len() != 3 {
		t.Fatalf("Len = %d", tbl.Len())
	}
}

func TestQueryPropertyBothCodecs(t *testing.T) {
	for name, codec := range codecs() {
		t.Run(name, func(t *testing.T) {
			tbl := NewTable("jobs", codec)
			mustPut := func(id, status string) {
				t.Helper()
				if err := tbl.Put(id, jobDoc(status, 1)); err != nil {
					t.Fatal(err)
				}
			}
			mustPut("j1", "Running")
			mustPut("j2", "Exited")
			mustPut("j3", "Running")
			got, err := tbl.QueryProperty("Status", "Running")
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, []string{"j1", "j3"}) {
				t.Fatalf("query = %v", got)
			}
			// Query must track overwrites (index maintenance).
			mustPut("j1", "Exited")
			got, err = tbl.QueryProperty("Status", "Running")
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, []string{"j3"}) {
				t.Fatalf("after overwrite, query = %v", got)
			}
			// And deletes.
			if _, err := tbl.Delete("j3"); err != nil {
				t.Fatal(err)
			}
			got, err = tbl.QueryProperty("Status", "Running")
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != 0 {
				t.Fatalf("after delete, query = %v", got)
			}
		})
	}
}

func TestScanPredicate(t *testing.T) {
	tbl := NewTable("jobs", BlobCodec{})
	for i := 0; i < 5; i++ {
		if err := tbl.Put(fmt.Sprintf("j%d", i), jobDoc("Running", i*10)); err != nil {
			t.Fatal(err)
		}
	}
	got, err := tbl.Scan(func(id string, doc *xmlutil.Element) bool {
		return doc.ChildText(xmlutil.Q(nsT, "CPUTime")) >= "20"
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []string{"j2", "j3", "j4"}) {
		t.Fatalf("scan = %v", got)
	}
}

func TestTableConcurrentAccess(t *testing.T) {
	tbl := NewTable("jobs", StructuredCodec{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				id := fmt.Sprintf("j%d-%d", g, i)
				if err := tbl.Put(id, jobDoc("Running", i)); err != nil {
					t.Error(err)
					return
				}
				if _, ok, err := tbl.Get(id); !ok || err != nil {
					t.Errorf("lost row %s: %v", id, err)
					return
				}
				if _, err := tbl.QueryProperty("Status", "Running"); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if tbl.Len() != 400 {
		t.Fatalf("Len = %d", tbl.Len())
	}
}

func TestStoreTables(t *testing.T) {
	s := NewStore()
	tbl := s.MustTable("jobs", StructuredCodec{})
	if got, ok := s.Table("jobs"); !ok || got != tbl {
		t.Fatal("lookup failed")
	}
	if same := s.MustTable("jobs", BlobCodec{}); same != tbl {
		t.Fatal("MustTable should return existing table")
	}
	s.MustTable("dirs", BlobCodec{})
	if _, ok := s.Table("ghost"); ok || len(s.tables) != 2 {
		t.Fatalf("%d tables, want jobs and dirs", len(s.tables))
	}
}
