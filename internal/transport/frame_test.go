package transport

import (
	"bytes"
	"context"
	"encoding/binary"
	"io"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"uvacg/internal/soap"
)

// totalAlloc runs f and reports how many bytes the process allocated
// meanwhile.
func totalAlloc(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestFrameCannotClaimMoreThanItCarries: a length prefix is four bytes
// of say-so from anything that can reach the port, and a soap.tcp stream
// states no length of its own. An 11-byte frame declaring a 64 MiB
// envelope, then the end of the stream, gets the connection dropped with
// no answer and without the 64 MiB allocated.
func TestFrameCannotClaimMoreThanItCarries(t *testing.T) {
	var handled atomic.Bool
	d := soap.NewDispatcher()
	d.Register("urn:Blob", func(context.Context, *soap.Envelope) (*soap.Envelope, error) {
		handled.Store(true)
		return nil, nil
	})
	mux := soap.NewMux()
	mux.Handle("/Blob", d)
	tl, err := ListenTCP(NewServer(mux), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer tl.Close()

	claim := binary.BigEndian.AppendUint32([]byte{frameRequest, 0, 0}, uint32(maxEnvelope))
	claim = append(claim, "<x/>"...)
	if len(claim) != 11 {
		t.Fatal("the forged frame is not 11 bytes")
	}
	conn, err := net.Dial("tcp", tl.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var answer []byte
	allocated := totalAlloc(func() {
		if _, err := conn.Write(claim); err != nil {
			t.Fatal(err)
		}
		conn.(*net.TCPConn).CloseWrite()
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if answer, err = io.ReadAll(conn); err != nil {
			t.Fatalf("the connection was not dropped: %v", err)
		}
	})
	if len(answer) > 0 {
		t.Fatalf("the listener answered %d bytes to a frame it never got", len(answer))
	}
	// Client and server share this process; a dial and a frame header cost
	// tens of KiB, the claimed body 64 MiB.
	if allocated > 4<<20 {
		t.Fatalf("dropping the frame allocated %d bytes", allocated)
	}
	if handled.Load() {
		t.Fatal("a frame that never arrived reached the service")
	}
}

// FuzzFrameRoundTrip: whatever readFrame accepts re-encodes to exactly
// the bytes it consumed (one frame, one encoding), and whatever it is fed
// it neither panics nor allocates more than it read plus exactReadMax
// (the one section it may allocate before the section's bytes arrive)
// plus a fixed overhead. Seeded with the frames
// TestOnlyHTTPCarriesContentInline puts on the wire.
func FuzzFrameRoundTrip(f *testing.F) {
	env, err := blobRequest(interopData).Marshal()
	if err != nil {
		f.Fatal(err)
	}
	for _, fr := range []*frame{
		{kind: frameRequest, body: env, atts: []soap.Attachment{{ID: "att-1", Data: interopData}}},
		{kind: frameRequest, path: "/Blob", body: env, atts: []soap.Attachment{{ID: "att-1", Data: interopData}}},
		{kind: frameReply, body: env, atts: []soap.Attachment{{ID: "att-1", Data: interopData}, {ID: "att-2"}}},
		{kind: frameOneWay, path: "/Blob", body: []byte("<x/>")},
		{kind: frameOneWay, path: "/Blob", body: env, atts: []soap.Attachment{{ID: "att-1", Data: interopData}}},
	} {
		var buf bytes.Buffer
		if err := writeFrame(&buf, fr); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add(binary.BigEndian.AppendUint32([]byte{frameRequest, 0, 0}, uint32(maxEnvelope)))
	f.Fuzz(func(t *testing.T, data []byte) {
		var fr *frame
		var err error
		in := bytes.NewReader(data)
		allocated := totalAlloc(func() { fr, err = readFrame(in) })
		// The frame, and a list of at most maxAttachments parts; a fuzz
		// worker's own goroutines allocate a little beside it.
		limit := uint64(len(data)) + exactReadMax + 256<<10
		if len(data) > exactReadMax {
			// Only an input this long can complete a section read in
			// pieces, and joining them copies it once.
			limit += uint64(len(data))
		}
		if allocated > limit {
			t.Fatalf("reading %d bytes allocated %d", len(data), allocated)
		}
		if err != nil {
			return
		}
		consumed := len(data) - in.Len()
		var out bytes.Buffer
		if err := writeFrame(&out, fr); err != nil {
			t.Fatalf("an accepted frame does not re-encode: %v", err)
		}
		if !bytes.Equal(out.Bytes(), data[:consumed]) {
			t.Fatalf("re-encoding differs from the %d bytes consumed", consumed)
		}
	})
}
