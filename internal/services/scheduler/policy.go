package scheduler

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"uvacg/internal/services/nodeinfo"
)

// Locality is a data-placement signal for a Policy: how many of the next
// job's input bytes each candidate host already holds, out of TotalBytes.
// The Scheduler tracks no replicas, so it always passes the zero value,
// and no policy here reads it; the type stays so that Pick's signature
// does too.
type Locality struct {
	// LocalBytes maps host name → input bytes already on that host.
	LocalBytes map[string]int64
	// TotalBytes is the summed size of the job's inputs.
	TotalBytes int64
}

// Policy selects the machine for the next job. The paper's scheduler
// uses "a straightforward algorithm [that] chooses the fastest, most
// available machine" (§4.6); RoundRobin and Random are the baselines
// experiment E7 compares it against.
type Policy interface {
	Name() string
	// Pick chooses among the NIS-reported processors; loc is the zero
	// Locality and seq counts dispatches within the job set.
	Pick(procs []nodeinfo.Processor, loc Locality, seq int) (nodeinfo.Processor, error)
}

// Greedy is the paper's policy: maximize effective speed, i.e. clock
// speed scaled by availability, breaking ties by RAM then host name.
type Greedy struct{}

// Name implements Policy.
func (Greedy) Name() string { return "greedy" }

// Pick implements Policy.
func (Greedy) Pick(procs []nodeinfo.Processor, _ Locality, _ int) (nodeinfo.Processor, error) {
	if len(procs) == 0 {
		return nodeinfo.Processor{}, fmt.Errorf("scheduler: no processors available")
	}
	best := procs[0]
	bestScore := score(best)
	for _, p := range procs[1:] {
		s := score(p)
		switch {
		case s > bestScore:
			best, bestScore = p, s
		case s == bestScore && p.RAMMB > best.RAMMB:
			best = p
		case s == bestScore && p.RAMMB == best.RAMMB && p.Host < best.Host:
			best = p
		}
	}
	return best, nil
}

func score(p nodeinfo.Processor) float64 {
	return p.SpeedMHz * float64(p.Cores) * (1 - p.Utilization)
}

// RoundRobin rotates over the processors in host order, ignoring load —
// the static baseline.
type RoundRobin struct{}

// Name implements Policy.
func (RoundRobin) Name() string { return "round-robin" }

// Pick implements Policy.
func (RoundRobin) Pick(procs []nodeinfo.Processor, _ Locality, seq int) (nodeinfo.Processor, error) {
	if len(procs) == 0 {
		return nodeinfo.Processor{}, fmt.Errorf("scheduler: no processors available")
	}
	sorted := make([]nodeinfo.Processor, len(procs))
	copy(sorted, procs)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Host < sorted[j].Host })
	return sorted[seq%len(sorted)], nil
}

// Random picks uniformly — the null baseline.
type Random struct {
	mu  sync.Mutex
	rng *rand.Rand
}

// NewRandom builds a seeded random policy (deterministic for benches).
func NewRandom(seed int64) *Random {
	return &Random{rng: rand.New(rand.NewSource(seed))}
}

// Name implements Policy.
func (*Random) Name() string { return "random" }

// Pick implements Policy.
func (r *Random) Pick(procs []nodeinfo.Processor, _ Locality, _ int) (nodeinfo.Processor, error) {
	if len(procs) == 0 {
		return nodeinfo.Processor{}, fmt.Errorf("scheduler: no processors available")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return procs[r.rng.Intn(len(procs))], nil
}
