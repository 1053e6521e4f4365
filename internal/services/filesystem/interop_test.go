package filesystem

import (
	"bytes"
	"context"
	"encoding/base64"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"

	"uvacg/internal/resourcedb"
	"uvacg/internal/soap"
	"uvacg/internal/transport"
	"uvacg/internal/vfs"
	"uvacg/internal/wsa"
	"uvacg/internal/wsrf"
)

// hostileContent is binary and XML-hostile: nulls, markup characters,
// high bytes — whatever base64 inlining or escaping could mangle.
var hostileContent = bytes.Repeat([]byte{0x00, '<', '&', 0xFE, '\n', '>'}, 2000)

// serveBoth hosts one mux behind a soap.tcp listener and an HTTP server
// and returns both base URLs. The HTTP server is NewHTTPHandler's, which
// announces no frames, so what is addressed to it crosses HTTP.
func serveBoth(t *testing.T, mux *soap.Mux) (tcpBase, httpBase string) {
	t.Helper()
	tl, err := transport.ListenTCP(transport.NewServer(mux), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tl.Close() })
	hs := httptest.NewServer(transport.NewHTTPHandler(transport.NewServer(mux)))
	t.Cleanup(hs.Close)
	return tl.BaseURL(), hs.URL
}

// TestFSSOverTCPMixedVersions (the name predates the single framing)
// serves one FSS from one mux on both bindings and crosses file content
// between them: what is written attached over soap.tcp must read back
// inline over HTTP and the reverse, byte for byte.
func TestFSSOverTCPMixedVersions(t *testing.T) {
	mux := soap.NewMux()
	tcpBase, httpBase := serveBoth(t, mux)
	client := transport.NewClient()
	store := resourcedb.NewStore()
	svc, err := New(Config{
		Address: tcpBase,
		FS:      vfs.New(),
		Client:  client,
		Home:    wsrf.NewStateHome(store.MustTable("dirs", resourcedb.StructuredCodec{})),
	})
	if err != nil {
		t.Fatal(err)
	}
	mux.Handle(svc.WSRF().Path(), svc.WSRF().Dispatcher())

	ctx := context.Background()
	overTCP, err := CreateDirectoryVia(ctx, client, svc.EPR(), "mixed")
	if err != nil {
		t.Fatal(err)
	}
	// The same directory resource, addressed through the HTTP listener.
	overHTTP := wsa.EndpointReference{
		Address:             httpBase + svc.WSRF().Path(),
		ReferenceProperties: overTCP.ReferenceProperties,
	}

	for _, tc := range []struct {
		file          string
		write, readAs wsa.EndpointReference
	}{
		{"attached-write-inline-read.bin", overTCP, overHTTP},
		{"inline-write-attached-read.bin", overHTTP, overTCP},
	} {
		if err := WriteFile(ctx, client, tc.write, tc.file, hostileContent); err != nil {
			t.Fatalf("%s: %v", tc.file, err)
		}
		got, err := FetchFile(ctx, client, tc.readAs, tc.file)
		if err != nil {
			t.Fatalf("%s: %v", tc.file, err)
		}
		if !bytes.Equal(got, hostileContent) {
			t.Fatalf("%s: corrupted content (%d bytes back)", tc.file, len(got))
		}
	}
}

// TestFileServerInlineFallback fetches from the client's file server over
// both socket bindings: the bytes come back attached over soap.tcp and
// inline over HTTP, intact either way.
func TestFileServerInlineFallback(t *testing.T) {
	fsrv := NewFileServer("")
	mux := soap.NewMux()
	fsrv.Mount(mux)
	tcpBase, httpBase := serveBoth(t, mux)
	fsrv.Publish("data.bin", hostileContent)

	for _, base := range []string{tcpBase, httpBase} {
		got, err := FetchFile(context.Background(), transport.NewClient(), wsa.NewEPR(base+fsrv.Path()), "data.bin")
		if err != nil {
			t.Fatalf("%s: %v", base, err)
		}
		if !bytes.Equal(got, hostileContent) {
			t.Fatalf("%s: fetch corrupted data", base)
		}
	}
}

// TestWriteFileOverHTTPReadsBackIdentical: a file written with WriteFile
// to an FSS served only by NewHTTPHandler, which announces no frames,
// crosses HTTP inline and reads back byte for byte, as stored and as
// fetched.
func TestWriteFileOverHTTPReadsBackIdentical(t *testing.T) {
	mux := soap.NewMux()
	hs := httptest.NewServer(transport.NewHTTPHandler(transport.NewServer(mux)))
	t.Cleanup(hs.Close)
	client := transport.NewClient()
	svc, err := New(Config{
		Address: hs.URL,
		FS:      vfs.New(),
		Client:  client,
		Home:    wsrf.NewStateHome(resourcedb.NewStore().MustTable("dirs", resourcedb.StructuredCodec{})),
	})
	if err != nil {
		t.Fatal(err)
	}
	mux.Handle(svc.WSRF().Path(), svc.WSRF().Dispatcher())

	ctx := context.Background()
	dir, path, err := svc.CreateDirectory("http")
	if err != nil {
		t.Fatal(err)
	}
	content := bytes.Repeat(hostileContent, 44) // ≈ 512 KiB
	if err := WriteFile(ctx, client, dir, "big.bin", content); err != nil {
		t.Fatal(err)
	}
	stored, err := svc.fs.Read(path, "big.bin")
	if err != nil || !bytes.Equal(stored, content) {
		t.Fatalf("stored %d bytes (err %v), want the %d written", len(stored), err, len(content))
	}
	got, err := FetchFile(ctx, client, dir, "big.bin")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Fatalf("read back %d bytes that differ from the %d written", len(got), len(content))
	}
}

// TestPlainSOAPReadGetsInlineContent: a requester that is not this code
// reads a 2 KiB binary file and gets the envelope it always got: content
// inline as base64, no parts.
func TestPlainSOAPReadGetsInlineContent(t *testing.T) {
	mux := soap.NewMux()
	_, httpBase := serveBoth(t, mux)
	svc, err := New(Config{
		Address: httpBase,
		FS:      vfs.New(),
		Client:  transport.NewClient(),
		Home:    wsrf.NewStateHome(resourcedb.NewStore().MustTable("dirs", resourcedb.StructuredCodec{})),
	})
	if err != nil {
		t.Fatal(err)
	}
	mux.Handle(svc.WSRF().Path(), svc.WSRF().Dispatcher())
	dir, path, err := svc.CreateDirectory("plain")
	if err != nil {
		t.Fatal(err)
	}
	binary := hostileContent[:2048]
	if err := svc.fs.Write(path, "f.bin", bytes.Clone(binary)); err != nil {
		t.Fatal(err)
	}
	body, contentType := postPlainRead(t, dir, "f.bin")
	if want := plainReadReply(messageIDOf(t, body), "f.bin", binary); contentType != "application/soap+xml; charset=utf-8" || body != want {
		t.Fatalf("plain SOAP Read reply changed (Content-Type %q).\n got: %s\nwant: %s", contentType, body, want)
	}
}

// postPlainRead reads name from a directory resource the way a requester
// that is not this code would: a hand-written envelope POSTed as plain
// SOAP. It returns the reply body and its Content-Type.
func postPlainRead(t *testing.T, dir wsa.EndpointReference, name string) (body, contentType string) {
	t.Helper()
	request := `<?xml version="1.0" encoding="utf-8"?>
<s:Envelope xmlns:s="http://www.w3.org/2003/05/soap-envelope" xmlns:wsa="http://schemas.xmlsoap.org/ws/2004/08/addressing" xmlns:impl="urn:uvacg:wsrf" xmlns:fss="urn:uvacg:fss">
  <s:Header>
    <wsa:To>` + dir.Address + `</wsa:To>
    <wsa:Action>urn:uvacg:fss/Read</wsa:Action>
    <wsa:MessageID>urn:uuid:00000000-0000-4000-8000-000000000022</wsa:MessageID>
    <impl:ResourceID wsa:isReferenceParameter="true">` + dir.Property(wsrf.QResourceID) + `</impl:ResourceID>
  </s:Header>
  <s:Body><fss:Read><fss:Filename>` + name + `</fss:Filename></fss:Read></s:Body>
</s:Envelope>`
	resp, err := http.Post(dir.Address, "application/soap+xml", strings.NewReader(request))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("plain Read: status %s, %v", resp.Status, err)
	}
	return string(raw), resp.Header.Get("Content-Type")
}

// messageIDOf extracts a reply's own (random) MessageID.
func messageIDOf(t *testing.T, body string) string {
	t.Helper()
	m := regexp.MustCompile(`<MessageID [^>]*>(urn:uuid:[0-9a-f-]{36})</MessageID>`).FindStringSubmatch(body)
	if m == nil {
		t.Fatalf("reply has no MessageID:\n%s", body)
	}
	return m[1]
}

// plainReadReply is, byte for byte, what HTTP has always answered
// postPlainRead with, but for the reply's MessageID.
func plainReadReply(messageID, name string, content []byte) string {
	return `<?xml version="1.0" encoding="UTF-8"?>
<Envelope xmlns="http://www.w3.org/2003/05/soap-envelope"><Header><Action xmlns="http://schemas.xmlsoap.org/ws/2004/08/addressing">urn:uvacg:fss/ReadResponse</Action><MessageID xmlns="http://schemas.xmlsoap.org/ws/2004/08/addressing">` + messageID + `</MessageID><RelatesTo xmlns="http://schemas.xmlsoap.org/ws/2004/08/addressing">urn:uuid:00000000-0000-4000-8000-000000000022</RelatesTo></Header><Body><ReadResponse xmlns="urn:uvacg:fss"><Filename>` + name + `</Filename><Content>` + base64.StdEncoding.EncodeToString(content) + `</Content></ReadResponse></Body></Envelope>`
}
