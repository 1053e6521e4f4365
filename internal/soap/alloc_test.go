package soap

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"uvacg/internal/xmlutil"
)

// Allocation regression pins for the envelope hot path. The fast codec
// dropped marshal from 38 allocs/op to 1 and unmarshal from 170 to ~13,
// and sizing the decoder's slabs from the input with pooled scratch
// stacks took unmarshal to 6, and decoding in place of a string copy of
// the input, with a prolog check that concatenates nothing, to 4, on
// benchEnvelope (BenchmarkEnvelopeMarshal / BenchmarkEnvelopeUnmarshal
// with -benchmem print today's figures). Unmarshal's ceiling is today's
// figure, so neither of those two allocations can come back unnoticed;
// its pin judges the least over several calls, since a GC, or the race
// detector, may empty the decoder's pooled scratch stacks. Marshal's one
// allocation is its exact-length result; the encode buffer is pooled.
// ReadBack, the in-process route's copy, allocates its slab's three
// arrays and the envelope, however many nodes it copies.
const (
	maxMarshalAllocs   = 1
	maxUnmarshalAllocs = 4
	maxReadBackAllocs  = 4
)

func TestEnvelopeMarshalAllocs(t *testing.T) {
	env := benchEnvelope()
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := env.Marshal(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > maxMarshalAllocs {
		t.Errorf("envelope marshal allocates %.1f times per op, want <= %d", allocs, maxMarshalAllocs)
	}
}

func TestEnvelopeUnmarshalAllocs(t *testing.T) {
	wire, err := benchEnvelope().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	least := ^uint64(0)
	for r := 0; r < 20; r++ {
		mallocs, _ := allocated(func() {
			if _, err := Unmarshal(wire); err != nil {
				t.Fatal(err)
			}
		})
		least = min(least, mallocs)
	}
	if least > maxUnmarshalAllocs {
		t.Errorf("envelope unmarshal allocates %d times per op, want <= %d", least, maxUnmarshalAllocs)
	}
}

func TestEnvelopeReadBackAllocs(t *testing.T) {
	env := notifyEnvelope("w03")
	least := ^uint64(0)
	for r := 0; r < 20; r++ {
		mallocs, _ := allocated(func() {
			if _, _, err := env.ReadBack(); err != nil {
				t.Fatal(err)
			}
		})
		least = min(least, mallocs)
	}
	if least > maxReadBackAllocs {
		t.Errorf("envelope read-back allocates %d times per op, want <= %d", least, maxReadBackAllocs)
	}
}

// submitEnvelope is shaped like a client's Submit of n jobs: WS-A
// headers and one element per job with attributes and children.
func submitEnvelope(n int) *Envelope {
	nsS, nsA := "urn:uvacg:ss", "http://schemas.xmlsoap.org/ws/2004/08/addressing"
	set := xmlutil.NewContainer(xmlutil.Q(nsS, "JobSet")).SetAttr(xmlutil.Q("", "name"), "bag")
	for i := 0; i < n; i++ {
		job := xmlutil.NewContainer(xmlutil.Q(nsS, "Job"),
			xmlutil.NewElement(xmlutil.Q(nsS, "Exec"), "local://work.app"),
			xmlutil.NewElement(xmlutil.Q(nsS, "Args"), fmt.Sprintf("compute %d", 1000+i)),
			xmlutil.NewElement(xmlutil.Q(nsS, "Output"), fmt.Sprintf("out-%02d.txt", i)),
		).SetAttr(xmlutil.Q("", "name"), fmt.Sprintf("w%02d", i))
		set.Append(job)
	}
	env := New(xmlutil.NewContainer(xmlutil.Q(nsS, "SubmitJobSet"), set,
		xmlutil.NewContainer(xmlutil.Q(nsS, "ClientFiles"),
			xmlutil.NewElement(xmlutil.Q(nsA, "Address"), "soap.tcp://client:9999/files"))))
	env.AddHeader(xmlutil.NewElement(xmlutil.Q(nsA, "To"), "http://master:8700/SchedulerService"))
	env.AddHeader(xmlutil.NewElement(xmlutil.Q(nsA, "Action"), nsS+"/SubmitJobSet"))
	env.AddHeader(xmlutil.NewElement(xmlutil.Q(nsA, "MessageID"), "urn:uuid:00000000-0000-4000-8000-000000000001"))
	return env
}

// notifyEnvelope is shaped like one job event on its way to a consumer,
// with a namespace-qualified attribute on its reference parameter.
func notifyEnvelope(job string) *Envelope {
	nsN, nsA := "urn:uvacg:wsn", "http://schemas.xmlsoap.org/ws/2004/08/addressing"
	env := New(xmlutil.NewContainer(xmlutil.Q(nsN, "Notify"),
		xmlutil.NewContainer(xmlutil.Q(nsN, "NotificationMessage"),
			xmlutil.NewElement(xmlutil.Q(nsN, "Topic"), "jobset/"+job).SetAttr(xmlutil.Q("", "Dialect"), "Concrete"),
			xmlutil.NewContainer(xmlutil.Q(nsN, "Message"),
				xmlutil.NewElement(xmlutil.Q("urn:uvacg:es", "Exited"), "0").SetAttr(xmlutil.Q("", "job"), job)))))
	env.AddHeader(xmlutil.NewElement(xmlutil.Q(nsA, "To"), "http://master:8700/NotificationBroker"))
	env.AddHeader(xmlutil.NewElement(xmlutil.Q(nsA, "Action"), nsN+"/Notify"))
	env.AddHeader(xmlutil.NewElement(xmlutil.Q("urn:uvacg:wsrf", "ResourceID"), "broker").
		SetAttr(xmlutil.Q(nsA, "isReferenceParameter"), "true"))
	return env
}

// allocated reports the allocations f makes and the bytes they take.
func allocated(f func()) (mallocs, bytes uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// TestMarshalSizesEachEnvelopeAlone alternates a large and a small
// envelope, as a master does (a Submit reply, then a Notify): each
// Marshal must allocate once, no more than its output's size class. A
// buffer sized from the envelope marshaled before grows the large one
// and over-allocates the small one. The least over several rounds is
// judged, since a GC, or the race detector, may empty the pool.
func TestMarshalSizesEachEnvelopeAlone(t *testing.T) {
	envs := []*Envelope{submitEnvelope(16), notifyEnvelope("w03")}
	for i, env := range envs {
		out, err := env.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		_, class := allocated(func() { sink = make([]byte, len(out)) })
		leastMallocs, leastBytes := ^uint64(0), ^uint64(0)
		for r := 0; r < 20; r++ {
			envs[1-i].Marshal()
			mallocs, bytes := allocated(func() { sink, _ = env.Marshal() })
			leastMallocs, leastBytes = min(leastMallocs, mallocs), min(leastBytes, bytes)
		}
		if leastMallocs != 1 || leastBytes > class {
			t.Errorf("envelope %d (%d bytes, size class %d) after a different one: %d allocations of %d bytes, want 1 of <= %d",
				i, len(out), class, leastMallocs, leastBytes, class)
		}
	}
}

// sink keeps measured allocations on the heap.
var sink []byte

// TestConcurrentMarshalNeverShares: the scratch buffer is pooled, so
// goroutines marshaling at once must each get their own wire bytes.
func TestConcurrentMarshalNeverShares(t *testing.T) {
	const workers = 32
	envs := make([]*Envelope, workers)
	want := make([][]byte, workers)
	for i := range envs {
		if i%2 == 0 {
			envs[i] = submitEnvelope(1 + i)
		} else {
			envs[i] = notifyEnvelope(fmt.Sprintf("job-%d", i))
		}
		var err error
		if want[i], err = envs[i].Marshal(); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for i := range envs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var kept [][]byte
			for r := 0; r < 50; r++ {
				got, err := envs[i].Marshal()
				if err != nil {
					t.Error(err)
					return
				}
				kept = append(kept, got)
			}
			for r, got := range kept {
				if !bytes.Equal(got, want[i]) {
					t.Errorf("worker %d marshal %d differs from the serial marshal:\n got %q\nwant %q", i, r, got, want[i])
					return
				}
			}
		}(i)
	}
	wg.Wait()
}
