package transport

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"net"
	"testing"

	"uvacg/internal/soap"
	"uvacg/internal/wsa"
)

// localTCPPair returns both ends of a real loopback TCP connection, so
// the vectored write path sees an actual *net.TCPConn (net.Pipe would
// silently fall back to sequential writes).
func localTCPPair(t *testing.T) (cli, srv net.Conn) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			close(accepted)
			return
		}
		accepted <- c
	}()
	cli, err = net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	srv, ok := <-accepted
	if !ok {
		t.Fatal("accept failed")
	}
	t.Cleanup(func() { cli.Close(); srv.Close() })
	return cli, srv
}

// TestFrameWriteAllocs pins the steady-state allocation count of a
// small-frame write at zero: the frameWriter's header scratch is the
// only buffer involved and it is reused across frames. A regression
// here re-introduces per-call garbage on every soap.tcp exchange.
func TestFrameWriteAllocs(t *testing.T) {
	bw := bufio.NewWriterSize(io.Discard, 32<<10)
	fw := newFrameWriter(bw, nil)
	fr := &frame{kind: frameRequest, path: "/Scheduler", body: bytes.Repeat([]byte("x"), 512)}
	if err := fw.writeFrame(fr); err != nil { // warm the scratch
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := fw.writeFrame(fr); err != nil {
			t.Fatal(err)
		}
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("small frame write allocates %.1f times per op, want 0", allocs)
	}
}

// TestVectoredLargeFrameRoundTrip pushes a frame big enough to take the
// writeVectored (net.Buffers) path on both the client and the server
// legs and checks nothing is reordered or corrupted by the gather
// write, including interleaved small frames on the same pooled
// connection before and after.
func TestVectoredLargeFrameRoundTrip(t *testing.T) {
	tl, err := ListenTCP(NewServer(blobService()), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer tl.Close()

	client := NewClient()
	to := wsa.NewEPR(tl.BaseURL() + "/Blob")

	small := bytes.Repeat([]byte{1, 2, 3}, 64)               // stays on the buffered path
	big := bytes.Repeat([]byte{0x00, 0xFF, '<', '&'}, 1<<18) // 1 MiB: vectored on both legs
	for _, data := range [][]byte{small, big, small, big} {
		resp, err := client.Invoke(context.Background(), to, "urn:Blob", blobRequest(data))
		if err != nil {
			t.Fatal(err)
		}
		if got := blobResponseData(t, resp); !bytes.Equal(got, data) {
			t.Fatalf("round trip corrupted %d-byte payload (got %d bytes)", len(data), len(got))
		}
	}
}

// TestVectoredFrameBytesIdentical checks the vectored writer puts the
// exact same bytes on the wire as the buffered writer.
func TestVectoredFrameBytesIdentical(t *testing.T) {
	fr := &frame{kind: frameRequest, path: "/Blob", body: bytes.Repeat([]byte("e"), 20<<10)}
	fr.atts = []soap.Attachment{
		{ID: "cid:part-0", Data: bytes.Repeat([]byte{7}, 30<<10)},
		{ID: "cid:part-1", Data: []byte{}},
	}

	var buffered bytes.Buffer
	if err := writeFrame(&buffered, fr); err != nil {
		t.Fatal(err)
	}

	// A net.Pipe gives the frameWriter a real net.Conn so payloadSize
	// pushes it down the vectored branch.
	cli, srv := localTCPPair(t)
	got := make(chan []byte, 1)
	go func() {
		data, _ := io.ReadAll(srv)
		got <- data
	}()
	fw := newFrameWriter(bufio.NewWriter(cli), cli)
	if err := fw.writeFrame(fr); err != nil {
		t.Fatal(err)
	}
	cli.Close()
	if vectored := <-got; !bytes.Equal(vectored, buffered.Bytes()) {
		t.Fatalf("vectored bytes differ from buffered bytes (%d vs %d)", len(vectored), buffered.Len())
	}
}
