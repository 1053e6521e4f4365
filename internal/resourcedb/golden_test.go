package resourcedb

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"uvacg/internal/xmlutil"
)

// goldenDoc is a job-set document shaped as the scheduler stores one,
// with attributes in three namespaces set out of canonical order.
func goldenDoc() *xmlutil.Element {
	nsS, nsA := "urn:uvacg:ss", "http://schemas.xmlsoap.org/ws/2004/08/addressing"
	doc := xmlutil.NewContainer(xmlutil.Q(nsS, "JobSet"),
		xmlutil.NewElement(xmlutil.Q(nsS, "Status"), "Running"),
		xmlutil.NewElement(xmlutil.Q(nsS, "JobState"), "").
			SetAttr(xmlutil.Q("", "status"), "Completed").
			SetAttr(xmlutil.Q("", "name"), "gen").
			SetAttr(xmlutil.Q("", "exit"), "0").
			SetAttr(xmlutil.Q("", "dir"), "http://node-a:8701/FileSystemService?{urn:uvacg:wsrf}ResourceID=d-1").
			SetAttr(xmlutil.Q("", "node"), "node-a"),
		xmlutil.NewElement(xmlutil.Q(nsS, "JobState"), "").
			SetAttr(xmlutil.Q("", "status"), "Pending").
			SetAttr(xmlutil.Q("", "attempt"), "1").
			SetAttr(xmlutil.Q("", "name"), "sum"),
		xmlutil.NewContainer(xmlutil.Q(nsS, "ClientListener"),
			xmlutil.NewElement(xmlutil.Q(nsA, "Address"), "http://client:9000/listener"),
			xmlutil.NewElement(xmlutil.Q("urn:uvacg:wsrf", "ResourceID"), "l-7").
				SetAttr(xmlutil.Q(nsA, "isReferenceParameter"), "true").
				SetAttr(xmlutil.Q("urn:uvacg:wsrf", "kind"), "listener").
				SetAttr(xmlutil.Q("", "id"), "x")),
	)
	return doc.SetAttr(xmlutil.Q("", "notified"), "false").SetAttr(xmlutil.Q(nsS, "owner"), "scientist")
}

// TestRowsWrittenBeforeSliceAttributesReadBack: the rows under testdata
// were written by the codecs when attributes were a map sorted at encode
// time. Each must decode to the document and re-encode to its own bytes,
// so journals and checkpoints already on disk keep their meaning. A blob
// row encoding/xml wrote, while it wrote the rows the hand-written
// encoder refused (here for a non-ASCII text), must decode too; the
// codec writes it differently now, so only the document is compared.
func TestRowsWrittenBeforeSliceAttributesReadBack(t *testing.T) {
	t.Run("blob-encxml", func(t *testing.T) {
		row, err := os.ReadFile(filepath.Join("testdata", "jobset.blob-encxml.row"))
		if err != nil {
			t.Fatal(err)
		}
		doc, err := (BlobCodec{}).Decode(row)
		if err != nil {
			t.Fatal(err)
		}
		want := goldenDoc().Append(xmlutil.NewElement(xmlutil.Q("urn:uvacg:ss", "Name"), "analyse-données ✓"))
		if !doc.Equal(want) {
			t.Fatalf("row decodes to\n%s\nwant\n%s", doc, want)
		}
	})
	for name, c := range codecs() {
		t.Run(name, func(t *testing.T) {
			row, err := os.ReadFile(filepath.Join("testdata", "jobset."+name+".row"))
			if err != nil {
				t.Fatal(err)
			}
			doc, err := c.Decode(row)
			if err != nil {
				t.Fatal(err)
			}
			if !doc.Equal(goldenDoc()) {
				t.Fatalf("row decodes to\n%s\nwant\n%s", doc, goldenDoc())
			}
			again, err := c.Encode(doc)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again, row) {
				t.Fatalf("re-encoded row differs:\n got %q\nwant %q", again, row)
			}
			if fresh, _ := c.Encode(goldenDoc()); !bytes.Equal(fresh, row) {
				t.Fatalf("encoding the document afresh differs:\n got %q\nwant %q", fresh, row)
			}
		})
	}
}

// TestBlobEncodeAllocatesOnce: a blob row is written on every journaled
// Put, so it is encoded into pooled scratch and handed out as one
// allocation of exactly its length, not grown by doubling from nothing.
func TestBlobEncodeAllocatesOnce(t *testing.T) {
	doc := jobDoc("Running", 12)
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := (BlobCodec{}).Encode(doc); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("blob encode allocates %.1f times per row, want 1", allocs)
	}
}
