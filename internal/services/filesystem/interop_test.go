package filesystem

import (
	"bytes"
	"context"
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

// serveBoth hosts one mux behind a soap.tcp and an HTTP listener and
// returns both base URLs.
func serveBoth(t *testing.T, mux *soap.Mux) (tcpBase, httpBase string) {
	t.Helper()
	tl, err := transport.ListenTCP(transport.NewServer(mux), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tl.Close() })
	httpBase, shutdown, err := transport.ListenHTTP(transport.NewServer(mux), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { shutdown(context.Background()) })
	return tl.BaseURL(), httpBase
}

// TestFSSOverTCPMixedVersions (the name predates the single framing: the
// two wire forms that still coexist are soap.tcp's attachment section
// and HTTP's inline base64) serves one FSS from one mux on both bindings
// and crosses file content between them: what is written attached over
// soap.tcp must read back inline over HTTP and the reverse, byte for
// byte.
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

// TestFileServerInlineFallback fetches from the client's file server
// over the binding with no attachment section: the server attaches the
// bytes regardless, and the HTTP reply path inlines them.
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
