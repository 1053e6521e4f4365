package transport

import (
	"bufio"
	"bytes"
	"io"
	"math/rand"
	"testing"
	"testing/quick"

	"uvacg/internal/soap"
)

// writeFrame is the plain-io.Writer form for tests; connection-bound
// paths use a frameWriter for the scratch reuse and the vectored
// large-frame path.
func writeFrame(w io.Writer, fr *frame) error {
	if err := checkFrame(fr); err != nil {
		return err
	}
	bw, ok := w.(*bufio.Writer)
	if !ok {
		bw = bufio.NewWriter(w)
	}
	fw := frameWriter{bw: bw}
	if err := fw.writeFrame(fr); err != nil {
		return err
	}
	if !ok {
		return bw.Flush()
	}
	return nil
}

func TestFrameRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		kind := frameRequest + byte(r.Intn(4))
		path := "/Svc"
		if r.Intn(2) == 0 {
			path = ""
		}
		body := make([]byte, r.Intn(4096))
		r.Read(body)
		fr := &frame{kind: kind, path: path, body: body}
		for i := 0; i < r.Intn(4); i++ {
			data := make([]byte, r.Intn(2048))
			r.Read(data)
			fr.atts = append(fr.atts, soap.Attachment{ID: soap.NextAttachmentID(fr.atts), Data: data})
		}

		var buf bytes.Buffer
		if err := writeFrame(&buf, fr); err != nil {
			return false
		}
		got, err := readFrame(&buf)
		if err != nil {
			return false
		}
		if got.kind != fr.kind || got.path != fr.path || !bytes.Equal(got.body, fr.body) {
			return false
		}
		if len(got.atts) != len(fr.atts) {
			return false
		}
		for i := range fr.atts {
			if got.atts[i].ID != fr.atts[i].ID || !bytes.Equal(got.atts[i].Data, fr.atts[i].Data) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestFrameRejectsOversize(t *testing.T) {
	var buf bytes.Buffer
	// Forge a frame header that claims a body beyond the limit.
	buf.Write([]byte{frameRequest, 0, 0})     // kind + empty path
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF}) // 4 GiB body length
	if _, err := readFrame(&buf); err == nil {
		t.Fatal("oversize frame accepted")
	}
}

func TestFrameRejectsOversizeAttachmentSection(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{frameRequest, 0, 0}) // kind + empty path
	buf.Write([]byte{0, 0, 0, 0})         // empty body
	buf.Write([]byte{0, 1})               // one attachment
	buf.Write([]byte{0, 1, 'a'})          // id "a"
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	if _, err := readFrame(&buf); err == nil {
		t.Fatal("oversize attachment accepted")
	}
}

func TestFrameRejectsTooManyAttachments(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{frameReply, 0, 0})
	buf.Write([]byte{0, 0, 0, 0})
	buf.Write([]byte{0xFF, 0xFF}) // 65535 attachments
	if _, err := readFrame(&buf); err == nil {
		t.Fatal("attachment count beyond limit accepted")
	}
	fr := &frame{kind: frameReply, atts: make([]soap.Attachment, maxAttachments+1)}
	if err := writeFrame(&bytes.Buffer{}, fr); err == nil {
		t.Fatal("writeFrame accepted attachment count beyond limit")
	}
}

func TestWriteFrameRejectsOversizeBody(t *testing.T) {
	body := make([]byte, maxEnvelope+1)
	var buf bytes.Buffer
	if err := writeFrame(&buf, &frame{kind: frameRequest, path: "/S", body: body}); err == nil {
		t.Fatal("oversize body accepted")
	}
}

// TestReadFrameRejectsRetiredKinds: kinds 0–2 were the framing without
// an attachment section, and no kind past the receipt (6) exists;
// readFrame must refuse them before trusting any length field laid out
// for a different format.
func TestReadFrameRejectsRetiredKinds(t *testing.T) {
	for _, kind := range []byte{0, 1, 2, frameReceipt + 1} {
		frame := []byte{kind, 0, 0}       // kind + empty path
		frame = append(frame, 0, 0, 0, 0) // empty body
		frame = append(frame, 0, 0)       // no attachments
		if _, err := readFrame(bytes.NewReader(frame)); err == nil {
			t.Fatalf("frame kind %d accepted", kind)
		}
	}
}

func TestFrameTruncatedRead(t *testing.T) {
	for _, fr := range []*frame{
		{kind: frameRequest, path: "/Svc", body: []byte("hello world")},
		{kind: frameRequest, path: "/Svc", body: []byte("hello"), atts: []soap.Attachment{{ID: "att-1", Data: []byte("binary bytes")}}},
	} {
		var buf bytes.Buffer
		if err := writeFrame(&buf, fr); err != nil {
			t.Fatal(err)
		}
		full := buf.Bytes()
		for cut := 1; cut < len(full); cut += 3 {
			trunc := bytes.NewReader(full[:cut])
			if _, err := readFrame(trunc); err == nil {
				t.Fatalf("kind %d: truncation at %d bytes accepted", fr.kind, cut)
			}
		}
	}
}

func TestSplitTCPAddr(t *testing.T) {
	host, path, err := splitTCPAddr("soap.tcp://10.0.0.1:9999/FileSystemService")
	if err != nil {
		t.Fatal(err)
	}
	if host != "10.0.0.1:9999" || path != "/FileSystemService" {
		t.Fatalf("got %q %q", host, path)
	}
	if _, _, err := splitTCPAddr("http://x/y"); err == nil {
		t.Fatal("wrong scheme accepted")
	}
	_, path, err = splitTCPAddr("soap.tcp://h:1")
	if err != nil || path != "/" {
		t.Fatalf("empty path: %q %v", path, err)
	}
}
