package xmlutil_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
	"unicode/utf8"

	"uvacg/internal/core"
	"uvacg/internal/services/scheduler"
	"uvacg/internal/soap"
	"uvacg/internal/warm"
	"uvacg/internal/wssec"
	"uvacg/internal/xmlutil"
)

var (
	trafficOnce  sync.Once
	traffic      [][]byte
	trafficTrees []*soap.Envelope
	trafficErr   error
)

// gridTraffic is every envelope an in-process grid exchanged while it ran
// one bag set, one chain set and one set whose names, files and script
// arguments are not ASCII, as wire bytes: what the decoder meets on the
// job's path, in the proportions a grid sends it.
func gridTraffic(tb testing.TB) [][]byte {
	tb.Helper()
	trafficOnce.Do(func() { traffic, trafficTrees, trafficErr = captureGridTraffic() })
	if trafficErr != nil {
		tb.Fatal(trafficErr)
	}
	return traffic
}

// gridTrafficTrees is the same traffic as the trees that were sent:
// copies of each request as its sender stamped it and of each reply as
// its caller received it.
func gridTrafficTrees(tb testing.TB) []*soap.Envelope {
	gridTraffic(tb)
	return trafficTrees
}

func captureGridTraffic() ([][]byte, []*soap.Envelope, error) {
	grid, err := core.NewGrid(core.GridConfig{
		Nodes: []core.NodeSpec{
			{Name: "win-a", Cores: 4, SpeedMHz: 2800},
			{Name: "win-b", Cores: 4, SpeedMHz: 2400},
		},
		Accounts: wssec.StaticAccounts{"scientist": "secret"},
	})
	if err != nil {
		return nil, nil, err
	}
	defer grid.Close()

	// Every host of the grid calls out through one client: the request,
	// stamped with its WS-Addressing headers once next returns, and the
	// reply are what crossed the wire.
	var mu sync.Mutex
	var wire [][]byte
	var trees []*soap.Envelope
	var unencoded error
	record := func(env *soap.Envelope) {
		if env == nil {
			return
		}
		data, err := env.Marshal()
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			unencoded = errors.Join(unencoded, err)
			return
		}
		wire = append(wire, data)
		trees = append(trees, env.Clone())
	}
	grid.Client.Use(func(ctx context.Context, call *soap.CallInfo, next soap.Handler) (*soap.Envelope, error) {
		resp, err := next(ctx, call)
		record(call.Request)
		record(resp)
		return resp, err
	})

	client, err := grid.NewClient(wssec.Credentials{Username: "scientist", Password: "secret"}, false)
	if err != nil {
		return nil, nil, err
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
	client.AddFile("générer.app", core.Script("write données.txt résultat-✓", "exit 0"))
	client.AddFile("étape.app", core.Script("read entrée.txt", "transform entrée.txt sortie.txt copy", "exit 0"))
	wide := core.NewJobSet("analyse-données")
	wide.Add("générer", core.Local("générer.app")).Outputs("données.txt")
	wide.Add("étape-日本", core.Local("étape.app")).
		Input("entrée.txt", core.Output("générer", "données.txt")).Outputs("sortie.txt")

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, spec := range []*core.JobSet{bag.Spec(), chain.Spec(), wide.Spec()} {
		sub, err := client.Submit(ctx, spec)
		if err != nil {
			return nil, nil, err
		}
		if status, err := sub.Wait(ctx); err != nil || status != scheduler.SetCompleted {
			_, detail := sub.Status()
			return nil, nil, fmt.Errorf("job set %s ended %s (%s): %v", spec.Name, status, detail, err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	return wire, trees, unencoded
}

// TestGridTrafficMatchesOracle: every message a grid sends while it runs
// jobs, non-ASCII names and files included, decodes to the tree
// encoding/xml reads.
func TestGridTrafficMatchesOracle(t *testing.T) {
	msgs := gridTraffic(t)
	if len(msgs) < 130 {
		t.Fatalf("captured %d messages from three job sets of 14 jobs", len(msgs))
	}
	wide := 0
	for i, data := range msgs {
		if bytes.ContainsFunc(data, func(r rune) bool { return r >= utf8.RuneSelf }) {
			wide++
		}
		got, err := xmlutil.UnmarshalElement(data)
		if err != nil {
			t.Errorf("message %d: %v\n%s", i, err, data)
			continue
		}
		want, err := xmlutil.OracleUnmarshal(data)
		if err != nil {
			t.Fatalf("message %d: encoding/xml rejects it: %v", i, err)
		}
		if !got.Equal(want) {
			t.Errorf("message %d decodes differently:\n got: %s\nwant: %s", i, got, want)
		}
	}
	if wide < 20 {
		t.Errorf("%d messages carry a non-ASCII name; the non-ASCII set sends more", wide)
	}
}

// TestGridTrafficReadsBackAsDecoded: every tree a grid sends, handed to
// an in-process receiver, is the tree a reader decodes from its encoding
// (the in-process route's contract), and its size is that encoding's
// length.
func TestGridTrafficReadsBackAsDecoded(t *testing.T) {
	for i, env := range gridTrafficTrees(t) {
		wire, err := env.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		want, err := soap.Unmarshal(wire)
		if err != nil {
			t.Fatal(err)
		}
		got, size, err := env.ReadBack()
		if err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		same := size == len(wire) && len(got.Headers) == len(want.Headers) && got.Body.Equal(want.Body)
		for h := 0; same && h < len(got.Headers); h++ {
			same = got.Headers[h].Equal(want.Headers[h])
		}
		if !same {
			t.Errorf("message %d reads back differently (%d bytes, want %d):\n got: %v %s\nwant: %v %s", i, size, len(wire), got.Headers, got.Body, want.Headers, want.Body)
		}
	}
}

var sinkTree *xmlutil.Element

// BenchmarkDecodeGridTraffic decodes the messages of
// TestGridTrafficMatchesOracle, all of them per op.
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
			sinkTree, _ = xmlutil.UnmarshalElement(m)
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
						tree, _ := xmlutil.UnmarshalElement(m)
						done <- tree
					})
					sinkTree = <-done
				}
			}
		})
	}
}

// TestEnvelopeMatchesOracle: an envelope soap.Marshal writes, WS-A
// headers and all, reads back through soap.Unmarshal as the envelope
// encoding/xml finds in the same bytes.
func TestEnvelopeMatchesOracle(t *testing.T) {
	const wsa = "http://www.w3.org/2005/08/addressing"
	env := soap.New(xmlutil.NewContainer(xmlutil.Q("urn:uvacg:sched", "Submit"),
		xmlutil.NewElement(xmlutil.Q("urn:uvacg:sched", "Document"), `<JobSet name="x"/>`)))
	env.AddHeader(xmlutil.NewElement(xmlutil.Q(wsa, "Action"), "urn:Submit"))
	env.AddHeader(xmlutil.NewElement(xmlutil.Q(wsa, "To"), "soap.tcp://h:1/p"))
	wire, err := env.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := soap.Unmarshal(wire)
	if err != nil {
		t.Fatalf("unmarshal of %s: %v", wire, err)
	}
	root, err := xmlutil.OracleUnmarshal(wire)
	if err != nil {
		t.Fatalf("encoding/xml rejects %s: %v", wire, err)
	}
	header := root.Child(xmlutil.Q(soap.NS, "Header"))
	body := root.Child(xmlutil.Q(soap.NS, "Body"))
	if header == nil || body == nil || len(body.Children) != 1 {
		t.Fatalf("encoding/xml finds no SOAP header and body in %s", wire)
	}
	if !back.Body.Equal(body.Children[0]) || !back.Body.Equal(env.Body) {
		t.Fatalf("body: soap reads %s, encoding/xml %s, sent %s", back.Body, body.Children[0], env.Body)
	}
	if len(back.Headers) != len(header.Children) {
		t.Fatalf("soap reads %d headers, encoding/xml %d", len(back.Headers), len(header.Children))
	}
	for i, h := range header.Children {
		if !back.Headers[i].Equal(h) {
			t.Errorf("header %d: soap reads %s, encoding/xml %s", i, back.Headers[i], h)
		}
	}
}
