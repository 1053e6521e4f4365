package resourcedb

// EXPERIMENTS.md E3, the one paper-reproduction rig this package owns.

import (
	"fmt"
	"testing"

	"uvacg/internal/xmlutil"
)

const nsBench = "urn:uvacg:bench"

// codecHarness is the E3 rig over one table.
type codecHarness struct {
	table *Table
	doc   *xmlutil.Element
}

// newCodecHarness builds a table with the codec and a document of
// nprops top-level properties, pre-populated with nrows rows.
func newCodecHarness(tb testing.TB, codec Codec, nprops, nrows int) *codecHarness {
	tb.Helper()
	table := NewTable("bench", codec)
	doc := xmlutil.NewContainer(xmlutil.Q(nsBench, "State"))
	for i := 0; i < nprops; i++ {
		doc.Append(xmlutil.NewElement(xmlutil.Q(nsBench, fmt.Sprintf("P%d", i)), fmt.Sprintf("v%d", i)))
	}
	for r := 0; r < nrows; r++ {
		row := doc.Clone()
		row.Children[0].Text = fmt.Sprintf("row-%d", r%7)
		if err := table.Put(fmt.Sprintf("r%06d", r), row); err != nil {
			tb.Fatal(err)
		}
	}
	return &codecHarness{table: table, doc: doc}
}

// save encodes and stores the document.
func (h *codecHarness) save() error { return h.table.Put("r000000", h.doc) }

// load fetches and decodes one row.
func (h *codecHarness) load() error {
	_, _, err := h.table.Get("r000000")
	return err
}

// queryByProperty runs the property query (index vs full scan).
func (h *codecHarness) queryByProperty() (int, error) {
	ids, err := h.table.QueryProperty("P0", "row-3")
	return len(ids), err
}

// BenchmarkE3_StateCodecs quantifies §5's structured-columns vs
// opaque-blob trade-off: blobs load/store cheaply but every query decodes
// every row; structured rows cost more per save but answer queries from
// an index.
func BenchmarkE3_StateCodecs(b *testing.B) {
	codecs := map[string]Codec{
		"structured": StructuredCodec{},
		"blob":       BlobCodec{},
	}
	for codecName, codec := range codecs {
		for _, nprops := range []int{4, 16, 64} {
			h := newCodecHarness(b, codec, nprops, 512)
			prefix := fmt.Sprintf("%s/props=%d", codecName, nprops)
			b.Run(prefix+"/save", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if err := h.save(); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run(prefix+"/load", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if err := h.load(); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run(prefix+"/query512rows", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := h.queryByProperty(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// TestCodecHarness keeps the rig honest: every operation the benchmark
// times must succeed, and the query must match rows under both codecs.
func TestCodecHarness(t *testing.T) {
	for _, codec := range []Codec{StructuredCodec{}, BlobCodec{}} {
		h := newCodecHarness(t, codec, 8, 64)
		if err := h.save(); err != nil {
			t.Fatal(err)
		}
		if err := h.load(); err != nil {
			t.Fatal(err)
		}
		n, err := h.queryByProperty()
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			t.Fatalf("%s: query matched nothing", codec.Name())
		}
	}
}
