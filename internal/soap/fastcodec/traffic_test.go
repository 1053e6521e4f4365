package fastcodec_test

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"uvacg/internal/core"
	"uvacg/internal/services/scheduler"
	"uvacg/internal/soap"
	"uvacg/internal/soap/fastcodec"
	"uvacg/internal/warm"
	"uvacg/internal/wssec"
	"uvacg/internal/xmlutil"
)

var (
	trafficOnce sync.Once
	traffic     [][]byte
	trafficErr  error
)

// gridTraffic is every envelope an in-process grid exchanged while it ran
// one bag set and one chain set, as wire bytes: what the decoder meets on
// the job's path, in the proportions a grid sends it.
func gridTraffic(tb testing.TB) [][]byte {
	tb.Helper()
	trafficOnce.Do(func() { traffic, trafficErr = captureGridTraffic() })
	if trafficErr != nil {
		tb.Fatal(trafficErr)
	}
	return traffic
}

func captureGridTraffic() ([][]byte, error) {
	grid, err := core.NewGrid(core.GridConfig{
		Nodes: []core.NodeSpec{
			{Name: "win-a", Cores: 4, SpeedMHz: 2800},
			{Name: "win-b", Cores: 4, SpeedMHz: 2400},
		},
		Accounts: wssec.StaticAccounts{"scientist": "secret"},
	})
	if err != nil {
		return nil, err
	}
	defer grid.Close()

	// Every host of the grid calls out through one client: the request,
	// stamped with its WS-Addressing headers once next returns, and the
	// reply are what crossed the wire.
	var mu sync.Mutex
	var wire [][]byte
	record := func(env *soap.Envelope) {
		if env == nil {
			return
		}
		if data, err := env.Marshal(); err == nil {
			mu.Lock()
			wire = append(wire, data)
			mu.Unlock()
		}
	}
	grid.Client.Use(func(ctx context.Context, call *soap.CallInfo, next soap.Handler) (*soap.Envelope, error) {
		resp, err := next(ctx, call)
		record(call.Request)
		record(resp)
		return resp, err
	})

	client, err := grid.NewClient(wssec.Credentials{Username: "scientist", Password: "secret"}, false)
	if err != nil {
		return nil, err
	}
	defer client.Close()
	client.AddFile("work.app", core.Script("write out.txt done", "exit 0"))
	client.AddFile("stage.app", core.Script("read in.txt", "transform in.txt out.txt copy", "exit 0"))

	bag := core.NewJobSet("bag")
	for i := 0; i < 8; i++ {
		bag.Add(fmt.Sprintf("w%d", i), core.Local("work.app")).Outputs("out.txt")
	}
	chain := core.NewJobSet("chain")
	chain.Add("s0", core.Local("work.app")).Outputs("out.txt")
	for i := 1; i < 4; i++ {
		chain.Add(fmt.Sprintf("s%d", i), core.Local("stage.app")).
			Input("in.txt", core.Output(fmt.Sprintf("s%d", i-1), "out.txt")).Outputs("out.txt")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, spec := range []*core.JobSet{bag.Spec(), chain.Spec()} {
		sub, err := client.Submit(ctx, spec)
		if err != nil {
			return nil, err
		}
		if status, err := sub.Wait(ctx); err != nil || status != scheduler.SetCompleted {
			_, detail := sub.Status()
			return nil, fmt.Errorf("job set %s ended %s (%s): %v", spec.Name, status, detail, err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	return wire, nil
}

// TestGridTrafficDecodesOnFastPath: every message a grid sends while it
// runs jobs stays on the fast path, and decodes to the tree encoding/xml
// reads.
func TestGridTrafficDecodesOnFastPath(t *testing.T) {
	msgs := gridTraffic(t)
	if len(msgs) < 100 {
		t.Fatalf("captured %d messages from two job sets of 12 jobs", len(msgs))
	}
	for i, data := range msgs {
		got, ok := fastcodec.Decode(data)
		if !ok {
			t.Errorf("message %d left the fast path:\n%s", i, data)
			continue
		}
		want, err := xmlutil.UnmarshalElement(data)
		if err != nil {
			t.Fatalf("message %d: encoding/xml rejects it: %v", i, err)
		}
		if !got.Equal(want) {
			t.Errorf("message %d decodes differently:\n fast: %s\n want: %s", i, got, want)
		}
	}
}

var sinkTree *xmlutil.Element

// BenchmarkDecodeGridTraffic decodes the messages of
// TestGridTrafficDecodesOnFastPath, all of them per op.
func BenchmarkDecodeGridTraffic(b *testing.B) {
	msgs := gridTraffic(b)
	var size int64
	for _, m := range msgs {
		size += int64(len(m))
	}
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, m := range msgs {
			sinkTree, _ = fastcodec.Decode(m)
		}
	}
}

// BenchmarkDecodeGridTrafficPerGoroutine decodes the same messages each
// on a goroutine of its own, as a daemon handles one-way messages: on a
// fresh goroutine per message, whose stack the recursive decoder grows
// from its starting size every time, and through warm.Go, whose workers
// keep the stacks they grew.
func BenchmarkDecodeGridTrafficPerGoroutine(b *testing.B) {
	msgs := gridTraffic(b)
	for _, bc := range []struct {
		name string
		run  func(func())
	}{
		{"fresh", func(f func()) { go f() }},
		{"warm", warm.Go},
	} {
		b.Run(bc.name, func(b *testing.B) {
			done := make(chan *xmlutil.Element)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, m := range msgs {
					bc.run(func() {
						tree, _ := fastcodec.Decode(m)
						done <- tree
					})
					sinkTree = <-done
				}
			}
		})
	}
}
