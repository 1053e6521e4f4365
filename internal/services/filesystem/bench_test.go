package filesystem

// EXPERIMENTS.md E5 and E6, the paper-reproduction rigs this package
// owns.

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"uvacg/internal/resourcedb"
	"uvacg/internal/soap"
	"uvacg/internal/transport"
	"uvacg/internal/vfs"
	"uvacg/internal/wsa"
	"uvacg/internal/wsrf"
)

// transferHarness is the E5/E6 rig: two FSS machines reachable over
// every binding (inproc, real HTTP, real soap.tcp), with one staged
// payload file of configurable size.
type transferHarness struct {
	client *transport.Client

	fssA *Service // source machine

	// Source directory EPR per binding scheme ("inproc", "http",
	// "soap.tcp"): the same directory resource behind three bindings.
	src map[string]wsa.EndpointReference

	dstDir wsa.EndpointReference // destination working dir on machine B (inproc)

	// uploadDone receives one token per UploadComplete; the buffer keeps
	// the sink's handler from blocking on a run nobody is waiting for.
	uploadDone chan struct{}
}

// newTransferHarness stages one payload file of the given size on
// machine A and opens HTTP and soap.tcp listeners for it, so the same
// bytes can be fetched through each binding. The listeners close with
// the test or benchmark.
func newTransferHarness(tb testing.TB, payloadSize int) *transferHarness {
	tb.Helper()
	must := func(err error) {
		tb.Helper()
		if err != nil {
			tb.Fatal(err)
		}
	}
	network := transport.NewNetwork()
	client := transport.NewClient().WithNetwork(network)
	h := &transferHarness{client: client, uploadDone: make(chan struct{}, 64)}

	mkFSS := func(host string) (*Service, *soap.Mux) {
		svc, err := New(Config{
			Address: "inproc://" + host,
			FS:      vfs.New(),
			Client:  client,
			Home:    wsrf.NewStateHome(resourcedb.NewStore().MustTable("dirs", resourcedb.StructuredCodec{})),
		})
		must(err)
		mux := soap.NewMux()
		mux.Handle(svc.WSRF().Path(), svc.WSRF().Dispatcher())
		network.Register(host, transport.NewServer(mux))
		return svc, mux
	}
	fssA, muxA := mkFSS("machine-a")
	fssB, _ := mkFSS("machine-b")
	h.fssA = fssA

	// An UploadComplete sink playing the ES's role.
	sinkDisp := soap.NewDispatcher()
	sinkDisp.Register(ActionUploadComplete, func(ctx context.Context, req *soap.Envelope) (*soap.Envelope, error) {
		h.uploadDone <- struct{}{}
		return nil, nil
	})
	sinkMux := soap.NewMux()
	sinkMux.Handle("/ES", sinkDisp)
	network.Register("es-sink", transport.NewServer(sinkMux))

	// Stage the payload on machine A.
	srcDir, _, err := fssA.CreateDirectory("src")
	must(err)
	payload := make([]byte, payloadSize)
	rand.New(rand.NewSource(1)).Read(payload)
	must(WriteFile(context.Background(), client, srcDir, "payload.bin", payload))

	h.dstDir, _, err = fssB.CreateDirectory("dst")
	must(err)

	// Expose machine A's FSS over real HTTP and soap.tcp as well.
	httpBase, httpShutdown, err := transport.ListenHTTP(transport.NewServer(muxA), "127.0.0.1:0")
	must(err)
	tb.Cleanup(func() { httpShutdown(context.Background()) })
	tcpListener, err := transport.ListenTCP(transport.NewServer(muxA), "127.0.0.1:0")
	must(err)
	tb.Cleanup(func() { tcpListener.Close() })
	at := func(base string) wsa.EndpointReference {
		return wsa.EndpointReference{Address: base + "/FileSystemService", ReferenceProperties: srcDir.ReferenceProperties}
	}
	h.src = map[string]wsa.EndpointReference{
		"inproc":   srcDir,
		"http":     at(httpBase),
		"soap.tcp": at(tcpListener.BaseURL()),
	}
	return h
}

// fetch reads the payload through the given binding (E6).
func (h *transferHarness) fetch(ctx context.Context, scheme string) (int, error) {
	src, ok := h.src[scheme]
	if !ok {
		return 0, fmt.Errorf("unknown scheme %q", scheme)
	}
	data, err := FetchFile(ctx, h.client, src, "payload.bin")
	return len(data), err
}

// syncUploadTo stages the payload into dst with the blocking call.
func (h *transferHarness) syncUploadTo(ctx context.Context, dst wsa.EndpointReference) error {
	req := UploadRequest(wsa.EndpointReference{}, "", []FileRef{
		{Source: h.src["inproc"], RemoteName: "payload.bin"},
	})
	_, err := h.client.Call(ctx, dst, ActionUploadSync, req)
	return err
}

// localStage stages the payload from one directory into a fresh one on
// the same machine — the FSS fast path (E6's last row) — and returns the
// new directory's resource id.
func (h *transferHarness) localStage(ctx context.Context) (string, error) {
	dst, _, err := h.fssA.CreateDirectory("local")
	if err != nil {
		return "", err
	}
	return dst.Property(wsrf.QResourceID), h.syncUploadTo(ctx, dst)
}

// syncUpload stages the payload to machine B with the blocking call:
// the E5 baseline, where the requester waits out the whole transfer.
func (h *transferHarness) syncUpload(ctx context.Context) error {
	return h.syncUploadTo(ctx, h.dstDir)
}

// asyncUpload stages the payload with the paper's one-way protocol and
// returns (blocked, total): how long the requester was tied up versus
// how long until the completion notification landed (E5).
func (h *transferHarness) asyncUpload(ctx context.Context) (blocked, total time.Duration, err error) {
	req := UploadRequest(wsa.NewEPR("inproc://es-sink/ES"), "tok", []FileRef{
		{Source: h.src["inproc"], RemoteName: "payload.bin"},
	})
	start := time.Now()
	if err := h.client.Notify(ctx, h.dstDir, ActionUpload, req); err != nil {
		return 0, 0, err
	}
	blocked = time.Since(start)
	select {
	case <-h.uploadDone:
		return blocked, time.Since(start), nil
	case <-time.After(30 * time.Second):
		return blocked, 0, fmt.Errorf("upload completion never arrived")
	}
}

// BenchmarkE5_UploadModes compares the blocking upload baseline against
// the paper's one-way-plus-notification protocol (§4.1): the async form
// releases the requester in microseconds regardless of file size.
func BenchmarkE5_UploadModes(b *testing.B) {
	ctx := context.Background()
	for _, size := range []int{1 << 10, 64 << 10, 1 << 20} {
		h := newTransferHarness(b, size)
		b.Run(fmt.Sprintf("sync/size=%d", size), func(b *testing.B) {
			b.SetBytes(int64(size))
			for i := 0; i < b.N; i++ {
				if err := h.syncUpload(ctx); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("async/size=%d", size), func(b *testing.B) {
			b.SetBytes(int64(size))
			var blockedTotal, fullTotal float64
			for i := 0; i < b.N; i++ {
				blocked, total, err := h.asyncUpload(ctx)
				if err != nil {
					b.Fatal(err)
				}
				blockedTotal += float64(blocked.Nanoseconds())
				fullTotal += float64(total.Nanoseconds())
			}
			b.ReportMetric(blockedTotal/float64(b.N), "ns-blocked/op")
			b.ReportMetric(fullTotal/float64(b.N), "ns-to-ready/op")
		})
	}
}

// BenchmarkE6_TransferSchemes measures file movement through each
// binding: the in-process fabric, HTTP Read, WSE-style framed TCP, and
// the same-machine fast path (§4.1/§4.6).
func BenchmarkE6_TransferSchemes(b *testing.B) {
	ctx := context.Background()
	for _, size := range []int{4 << 10, 256 << 10, 4 << 20} {
		h := newTransferHarness(b, size)
		for _, scheme := range []string{"inproc", "http", "soap.tcp"} {
			b.Run(fmt.Sprintf("%s/size=%d", scheme, size), func(b *testing.B) {
				b.SetBytes(int64(size))
				for i := 0; i < b.N; i++ {
					if _, err := h.fetch(ctx, scheme); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		b.Run(fmt.Sprintf("local-fastpath/size=%d", size), func(b *testing.B) {
			b.SetBytes(int64(size))
			for i := 0; i < b.N; i++ {
				id, err := h.localStage(ctx)
				if err != nil {
					b.Fatal(err)
				}
				// Off the clock, give the directory back: tens of thousands
				// of live directories would tax every later row's GC.
				b.StopTimer()
				if err := h.fssA.WSRF().DestroyResource(id); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		})
	}
}

// TestTransferHarnessAllRoutes keeps the rig honest: every binding
// moves every byte, and both upload protocols complete.
func TestTransferHarnessAllRoutes(t *testing.T) {
	h := newTransferHarness(t, 8<<10)
	ctx := context.Background()
	for _, scheme := range []string{"inproc", "http", "soap.tcp"} {
		n, err := h.fetch(ctx, scheme)
		if err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		if n != 8<<10 {
			t.Fatalf("%s: fetched %d bytes", scheme, n)
		}
	}
	if _, err := h.fetch(ctx, "carrier-pigeon"); err == nil {
		t.Fatal("unknown scheme accepted")
	}
	if _, err := h.localStage(ctx); err != nil {
		t.Fatal(err)
	}
	if err := h.syncUpload(ctx); err != nil {
		t.Fatal(err)
	}
	blocked, total, err := h.asyncUpload(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if blocked > total {
		t.Fatalf("blocked %v exceeds total %v", blocked, total)
	}
}
