package benchkit

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"uvacg/internal/resourcedb"
	"uvacg/internal/services/filesystem"
	"uvacg/internal/soap"
	"uvacg/internal/transport"
	"uvacg/internal/vfs"
	"uvacg/internal/wsa"
	"uvacg/internal/wsrf"
)

// TransferHarness is the E5/E6 rig: two FSS machines reachable over
// every binding (inproc, real HTTP, real soap.tcp), with staged payload
// files of configurable size.
type TransferHarness struct {
	Client *transport.Client
	// Legacy fetches the way soap.tcp did before attachments and
	// pooling — content inline as base64, a fresh dial per message — so
	// E6 can report the fast path and its baseline side by side on
	// identical payloads.
	Legacy *transport.Client

	fssA *filesystem.Service // source machine
	fssB *filesystem.Service // destination machine

	// Source directory EPRs per binding scheme.
	srcInproc wsa.EndpointReference
	srcHTTP   wsa.EndpointReference
	srcTCP    wsa.EndpointReference

	dstDir wsa.EndpointReference // destination working dir (inproc)

	uploadDone chan struct{}

	httpShutdown func(context.Context) error
	tcpListener  *transport.TCPListener
}

// NewTransferHarness stages one payload file of the given size on
// machine A and opens HTTP and soap.tcp listeners for it, so the same
// bytes can be fetched through each binding.
func NewTransferHarness(payloadSize int) (*TransferHarness, error) {
	network := transport.NewNetwork()
	client := transport.NewClient().WithNetwork(network)
	legacyTCP := transport.NewTCPTransport()
	legacyTCP.MaxIdlePerHost = 0 // dial per message, as before pooling
	legacy := transport.NewClient()
	legacy.RegisterScheme(transport.SchemeTCP, byteOnly{legacyTCP})
	h := &TransferHarness{Client: client, Legacy: legacy, uploadDone: make(chan struct{}, 64)}

	mkFSS := func(host string) (*filesystem.Service, *soap.Mux, error) {
		fs := vfs.New()
		store := resourcedb.NewStore()
		svc, err := filesystem.New(filesystem.Config{
			Address: "inproc://" + host,
			FS:      fs,
			Client:  client,
			Home:    wsrf.NewStateHome(store.MustTable("dirs", resourcedb.StructuredCodec{})),
		})
		if err != nil {
			return nil, nil, err
		}
		mux := soap.NewMux()
		mux.Handle(svc.WSRF().Path(), svc.WSRF().Dispatcher())
		network.Register(host, transport.NewServer(mux))
		return svc, mux, nil
	}

	var muxA *soap.Mux
	var err error
	h.fssA, muxA, err = mkFSS("machine-a")
	if err != nil {
		return nil, err
	}
	h.fssB, _, err = mkFSS("machine-b")
	if err != nil {
		return nil, err
	}

	// Destination working directory + an UploadComplete sink playing
	// the ES's role.
	sinkDisp := soap.NewDispatcher()
	sinkDisp.Register(filesystem.ActionUploadComplete, func(ctx context.Context, req *soap.Envelope) (*soap.Envelope, error) {
		h.uploadDone <- struct{}{}
		return nil, nil
	})
	sinkMux := soap.NewMux()
	sinkMux.Handle("/ES", sinkDisp)
	network.Register("es-sink", transport.NewServer(sinkMux))

	// Stage the payload on machine A.
	srcDir, _, err := h.fssA.CreateDirectory("src")
	if err != nil {
		return nil, err
	}
	payload := make([]byte, payloadSize)
	rand.New(rand.NewSource(1)).Read(payload)
	ctx := context.Background()
	if err := filesystem.WriteFile(ctx, client, srcDir, "payload.bin", payload); err != nil {
		return nil, err
	}
	h.srcInproc = srcDir

	dstDir, _, err := h.fssB.CreateDirectory("dst")
	if err != nil {
		return nil, err
	}
	h.dstDir = dstDir

	// Expose machine A's FSS over real HTTP and soap.tcp as well: the
	// same directory resource is reachable through three bindings.
	httpBase, httpShutdown, err := transport.ListenHTTP(transport.NewServer(muxA), "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h.httpShutdown = httpShutdown
	h.srcHTTP = wsa.EndpointReference{Address: httpBase + "/FileSystemService", ReferenceProperties: srcDir.ReferenceProperties}

	tcpListener, err := transport.ListenTCP(transport.NewServer(muxA), "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h.tcpListener = tcpListener
	h.srcTCP = wsa.EndpointReference{Address: tcpListener.BaseURL() + "/FileSystemService", ReferenceProperties: srcDir.ReferenceProperties}
	return h, nil
}

// byteOnly hides a transport's attachment path: implementing
// RoundTripper but not MessageRoundTripper, it makes the client inline
// content as base64 and take the plain byte exchange — the E6 baseline,
// kept here rather than as a knob on the daemons' transport.
type byteOnly struct{ transport.RoundTripper }

// Close stops the real listeners.
func (h *TransferHarness) Close() {
	if h.httpShutdown != nil {
		h.httpShutdown(context.Background())
	}
	if h.tcpListener != nil {
		h.tcpListener.Close()
	}
}

// Source returns the payload directory EPR for a binding scheme
// ("inproc", "http", "soap.tcp").
func (h *TransferHarness) Source(scheme string) (wsa.EndpointReference, error) {
	switch scheme {
	case "inproc":
		return h.srcInproc, nil
	case "http":
		return h.srcHTTP, nil
	case "soap.tcp":
		return h.srcTCP, nil
	}
	return wsa.EndpointReference{}, fmt.Errorf("benchkit: unknown scheme %q", scheme)
}

// Fetch reads the payload through the given binding (E6).
func (h *TransferHarness) Fetch(ctx context.Context, scheme string) (int, error) {
	src, err := h.Source(scheme)
	if err != nil {
		return 0, err
	}
	data, err := filesystem.FetchFile(ctx, h.Client, src, "payload.bin")
	return len(data), err
}

// FetchLegacy is Fetch through the byte-only, dial-per-message client —
// the E6 soap.tcp-v1 baseline row.
func (h *TransferHarness) FetchLegacy(ctx context.Context, scheme string) (int, error) {
	src, err := h.Source(scheme)
	if err != nil {
		return 0, err
	}
	data, err := filesystem.FetchFile(ctx, h.Legacy, src, "payload.bin")
	return len(data), err
}

// LocalStage copies the payload between two directories on the same
// machine — the FSS fast path (E6's third row).
func (h *TransferHarness) LocalStage(ctx context.Context) error {
	dst, _, err := h.fssA.CreateDirectory("local")
	if err != nil {
		return err
	}
	req := filesystem.UploadRequest(wsa.EndpointReference{}, "", []filesystem.FileRef{
		{Source: h.srcInproc, RemoteName: "payload.bin"},
	})
	_, err = h.Client.Call(ctx, dst, filesystem.ActionUploadSync, req)
	return err
}

// SyncUpload stages the payload to machine B with the blocking call:
// the E5 baseline, where the requester waits out the whole transfer.
func (h *TransferHarness) SyncUpload(ctx context.Context) error {
	req := filesystem.UploadRequest(wsa.EndpointReference{}, "", []filesystem.FileRef{
		{Source: h.srcInproc, RemoteName: "payload.bin"},
	})
	_, err := h.Client.Call(ctx, h.dstDir, filesystem.ActionUploadSync, req)
	return err
}

// AsyncUpload stages the payload with the paper's one-way protocol and
// returns (blocked, total): how long the requester was tied up versus
// how long until the completion notification landed (E5).
func (h *TransferHarness) AsyncUpload(ctx context.Context) (blocked, total time.Duration, err error) {
	req := filesystem.UploadRequest(wsa.NewEPR("inproc://es-sink/ES"), "tok", []filesystem.FileRef{
		{Source: h.srcInproc, RemoteName: "payload.bin"},
	})
	start := time.Now()
	if err := h.Client.Notify(ctx, h.dstDir, filesystem.ActionUpload, req); err != nil {
		return 0, 0, err
	}
	blocked = time.Since(start)
	select {
	case <-h.uploadDone:
		return blocked, time.Since(start), nil
	case <-time.After(30 * time.Second):
		return blocked, 0, fmt.Errorf("benchkit: upload completion never arrived")
	}
}
