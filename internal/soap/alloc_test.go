package soap

import (
	"testing"
)

// Allocation regression pins for the envelope hot path. The fast codec
// dropped marshal from 38 allocs/op to 1 and unmarshal from 170 to ~13,
// and sizing the decoder's slabs from the input with pooled scratch
// stacks took unmarshal to 6, on benchEnvelope (BenchmarkEnvelopeMarshal
// / BenchmarkEnvelopeUnmarshal with -benchmem print today's figures);
// these ceilings leave modest headroom (unmarshal: measured plus two) so
// future PRs cannot silently re-introduce per-call garbage.
const (
	maxMarshalAllocs   = 3
	maxUnmarshalAllocs = 8
)

func TestEnvelopeMarshalAllocs(t *testing.T) {
	env := benchEnvelope()
	if _, err := env.Marshal(); err != nil { // warm the size hint
		t.Fatal(err)
	}
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
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := Unmarshal(wire); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > maxUnmarshalAllocs {
		t.Errorf("envelope unmarshal allocates %.1f times per op, want <= %d", allocs, maxUnmarshalAllocs)
	}
}
