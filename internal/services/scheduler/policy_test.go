package scheduler

import (
	"math/rand"
	"testing"

	"uvacg/internal/services/nodeinfo"
)

func procs() []nodeinfo.Processor {
	return []nodeinfo.Processor{
		{Host: "fast-busy", Cores: 1, SpeedMHz: 4000, RAMMB: 1024, Utilization: 0.95},
		{Host: "fast-idle", Cores: 1, SpeedMHz: 3000, RAMMB: 512, Utilization: 0.0},
		{Host: "slow-idle", Cores: 1, SpeedMHz: 800, RAMMB: 2048, Utilization: 0.0},
	}
}

func TestGreedyPicksFastestMostAvailable(t *testing.T) {
	p, err := Greedy{}.Pick(procs(), Locality{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.Host != "fast-idle" {
		t.Fatalf("picked %q", p.Host)
	}
}

func TestGreedyWeighsCores(t *testing.T) {
	p, err := Greedy{}.Pick([]nodeinfo.Processor{
		{Host: "one-core", Cores: 1, SpeedMHz: 2000},
		{Host: "quad", Cores: 4, SpeedMHz: 1000},
	}, Locality{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.Host != "quad" {
		t.Fatalf("picked %q", p.Host)
	}
}

func TestGreedyTieBreaks(t *testing.T) {
	p, _ := Greedy{}.Pick([]nodeinfo.Processor{
		{Host: "b", Cores: 1, SpeedMHz: 1000, RAMMB: 512},
		{Host: "a", Cores: 1, SpeedMHz: 1000, RAMMB: 512},
		{Host: "c", Cores: 1, SpeedMHz: 1000, RAMMB: 1024},
	}, Locality{}, 0)
	if p.Host != "c" {
		t.Fatalf("RAM tiebreak picked %q", p.Host)
	}
	p, _ = Greedy{}.Pick([]nodeinfo.Processor{
		{Host: "b", Cores: 1, SpeedMHz: 1000, RAMMB: 512},
		{Host: "a", Cores: 1, SpeedMHz: 1000, RAMMB: 512},
	}, Locality{}, 0)
	if p.Host != "a" {
		t.Fatalf("name tiebreak picked %q", p.Host)
	}
}

func TestRoundRobinRotates(t *testing.T) {
	rr := RoundRobin{}
	var got []string
	for seq := 0; seq < 6; seq++ {
		p, err := rr.Pick(procs(), Locality{}, seq)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, p.Host)
	}
	want := []string{"fast-busy", "fast-idle", "slow-idle", "fast-busy", "fast-idle", "slow-idle"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rotation = %v", got)
		}
	}
}

func TestRandomIsSeededAndInRange(t *testing.T) {
	a := NewRandom(7)
	b := NewRandom(7)
	for i := 0; i < 20; i++ {
		pa, err := a.Pick(procs(), Locality{}, i)
		if err != nil {
			t.Fatal(err)
		}
		pb, _ := b.Pick(procs(), Locality{}, i)
		if pa.Host != pb.Host {
			t.Fatal("same seed diverged")
		}
	}
}

func TestPoliciesRejectEmpty(t *testing.T) {
	for _, p := range []Policy{Greedy{}, RoundRobin{}, NewRandom(1)} {
		if _, err := p.Pick(nil, Locality{}, 0); err == nil {
			t.Errorf("%s accepted empty processor list", p.Name())
		}
	}
}

func TestPolicyNames(t *testing.T) {
	names := map[string]bool{}
	for _, p := range []Policy{Greedy{}, RoundRobin{}, NewRandom(1)} {
		names[p.Name()] = true
	}
	if len(names) != 3 {
		t.Fatalf("names not distinct: %v", names)
	}
}

// randomCatalog builds a reproducible random processor catalog.
func randomCatalog(rng *rand.Rand) []nodeinfo.Processor {
	cat := make([]nodeinfo.Processor, 1+rng.Intn(8))
	for i := range cat {
		cat[i] = nodeinfo.Processor{
			Host:        string(rune('a'+i%26)) + "-node",
			Cores:       1 + rng.Intn(8),
			SpeedMHz:    float64(500 + rng.Intn(3500)),
			RAMMB:       512 * (1 + rng.Intn(8)),
			Utilization: float64(rng.Intn(100)) / 100,
		}
	}
	return cat
}

// TestPoliciesDeterministic pins that every policy is a pure function
// of (procs, seq) — Random modulo its seed — so reproducing a placement
// decision from a trace is always possible.
func TestPoliciesDeterministic(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cat := randomCatalog(rng)
		seq := rng.Intn(32)
		for _, p := range []Policy{Greedy{}, RoundRobin{}} {
			a, errA := p.Pick(cat, Locality{}, seq)
			b, errB := p.Pick(cat, Locality{}, seq)
			if (errA == nil) != (errB == nil) || a.Host != b.Host {
				t.Fatalf("seed %d: %s not deterministic: %q vs %q", seed, p.Name(), a.Host, b.Host)
			}
		}
		ra, rb := NewRandom(seed), NewRandom(seed)
		a, _ := ra.Pick(cat, Locality{}, seq)
		b, _ := rb.Pick(cat, Locality{}, seq)
		if a.Host != b.Host {
			t.Fatalf("seed %d: random with equal seeds diverged: %q vs %q", seed, a.Host, b.Host)
		}
	}
}
