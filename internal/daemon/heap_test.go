package daemon_test

import (
	"context"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"uvacg/internal/core"
	"uvacg/internal/services/scheduler"
	"uvacg/internal/transport"
)

// frameBodyBytes is what the memory profile holds in use of soap.tcp
// frame sections (transport.readSection) after forced collections, less
// attachment data (transport.readAttachments): that is file content,
// which a node keeps on purpose. Records whose objects average under 16
// bytes are left out too: the runtime packs objects that small, such as
// a short path section, into 16-byte blocks with unrelated values, and
// frees one only with its whole block.
func frameBodyBytes() int64 {
	for i := 0; i < 3; i++ { // the profile may lag two cycles
		runtime.GC()
	}
	var recs []runtime.MemProfileRecord
	for n, _ := runtime.MemProfile(nil, false); ; {
		recs = make([]runtime.MemProfileRecord, n+64)
		var ok bool
		if n, ok = runtime.MemProfile(recs, false); ok {
			recs = recs[:n]
			break
		}
	}
	var sum int64
	for _, r := range recs {
		if objs := r.InUseObjects(); objs == 0 || r.InUseBytes() < 16*objs {
			continue
		}
		section, attachment := false, false
		frames := runtime.CallersFrames(r.Stack())
		for more := true; more; {
			var f runtime.Frame
			f, more = frames.Next()
			switch f.Function {
			case "uvacg/internal/transport.readSection":
				section = true
			case "uvacg/internal/transport.readAttachments":
				attachment = true
			}
		}
		if section && !attachment {
			sum += r.InUseBytes()
		}
	}
	return sum
}

// TestKeptStringsPinNoFrames: what the daemons keep of a message owns its
// bytes. Sets run one after another through the shipped wiring, each from
// a client of its own that goes away after it, as a gridsub process does.
// However many sets have run, the frame bodies still in use stay under a
// few frames — about one per connection the daemons hold open — instead
// of growing by the frames that each set's kept strings point into: the
// master's spec, client EPRs, flow and job EPRs, the broker's
// subscription, a node's file names, processes and connection pool.
func TestKeptStringsPinNoFrames(t *testing.T) {
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	base := frameBodyBytes()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	g := standShippedGrid(t, ctx, nil)
	desc, files := demoJobSet(t)
	runSet := func() {
		chost := openHostUnclosed(t)
		defer chost.Close()
		defer chost.Client.CloseIdleConnections()
		client, err := core.NewClient(core.ClientConfig{
			Transport: chost.Client,
			Master:    g.masterURL,
			TCPFiles:  true,
			Expose: func(srv *transport.Server) (string, func(), error) {
				srv.Use(chost.Interceptors()...)
				return chost.ListenHTTP(srv, "127.0.0.1:0")
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer client.Close()
		for name, content := range files {
			client.AddFile(name, content)
		}
		sub, err := client.Submit(ctx, desc.Spec)
		if err != nil {
			t.Fatal(err)
		}
		if status, err := sub.Wait(ctx); err != nil || status != scheduler.SetCompleted {
			t.Fatalf("job set ended %q, err %v", status, err)
		}
		if _, err := sub.FetchOutput(ctx, "sum", "total.txt"); err != nil {
			t.Fatal(err)
		}
	}
	// A frame of this grid is 0.5–3 KiB.
	const budget = 16 << 10
	ran := 0
	for _, more := range []int{3, 9} {
		for i := 0; i < more; i++ {
			runSet()
		}
		ran += more
		got := frameBodyBytes() - base
		t.Logf("after %d sets: %d bytes of frame bodies in use", ran, got)
		if got > budget {
			t.Errorf("after %d sets %d bytes of frame bodies are still in use, over %d: something kept a string of a message without copying it", ran, got, budget)
		}
	}
}

// TestOpenSetsTheGCTarget: opening a host sets the collector's target to
// the grid's constant, and a GOGC in the environment wins over it.
func TestOpenSetsTheGCTarget(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(100))
	t.Setenv("GOGC", "")
	openHost(t)
	if got := debug.SetGCPercent(100); got != 150 {
		t.Errorf("with GOGC unset the GC percent is %d after Open, want 150", got)
	}
	t.Setenv("GOGC", "80")
	debug.SetGCPercent(80) // what the runtime read from GOGC at start
	openHost(t)
	if got := debug.SetGCPercent(100); got != 80 {
		t.Errorf("with GOGC=80 the GC percent is %d after Open, want 80", got)
	}
}
