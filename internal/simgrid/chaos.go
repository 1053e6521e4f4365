// Package simgrid is a deterministic in-process cluster harness for
// chaos testing the full five-service flow of the paper's grid:
// Scheduler, Execution and File System Services, the Node Info Service
// and the Notification Broker, wired over fault-injecting transports.
//
// Determinism contract: a scenario — the DAG shapes, fault profile and
// crash schedule — is a pure function of its seed (see Generate), and
// the fault verdict for the k-th message on any route is a pure function
// of (seed, route, k) regardless of goroutine interleaving. Re-running a
// seed replays the same scenario against the same per-route fault
// streams; only wall-clock interleaving varies, which the invariants are
// insensitive to by construction.
package simgrid

import (
	"fmt"
	"net/url"
	"sync"
	"time"

	"uvacg/internal/transport"
)

// RouteFaults is the per-route fault profile: probabilities per message,
// plus a uniform delay bound.
type RouteFaults struct {
	// Drop is the probability a message is discarded: round trips fail
	// with ErrInjectedDrop, one-way sends vanish silently.
	Drop float64
	// Duplicate is the probability a message is delivered twice.
	Duplicate float64
	// Error is the probability the exchange fails with an injected
	// error before reaching the peer.
	Error float64
	// MaxDelay bounds a uniform random delay added before delivery.
	MaxDelay time.Duration
	// Reorder is the probability a one-way message is held back until
	// the next one-way message to the same address has been handed over
	// (transport.FaultDecision.Reorder) — a job's `exited` overtaking its
	// `started`, which real daemons do all the time. Round trips are
	// never reordered.
	Reorder float64
}

// Zero reports an all-clean profile.
func (f RouteFaults) Zero() bool {
	return f == RouteFaults{}
}

// Chaos decides the fate of every message on the simulated network. One
// Chaos instance serves all hosts: each host's transport.Client is
// wrapped with FaultFunc(host), so decisions see both endpoints of a
// route and partitions can be asymmetric.
//
// Self-routes (src == dst) are never faulted — a service calling its
// co-located peer does not cross the network — and exact addresses can
// be exempted (the invariant checker's observer must be a reliable
// measuring instrument, not part of the system under test).
type Chaos struct {
	seed int64

	mu         sync.Mutex
	enabled    bool
	defaults   RouteFaults
	targets    map[string]TargetRule // "host/path" → targeted rule
	exemptAddr map[string]bool       // "host/path" exemptions
	blocked    map[string]bool       // "src|dst" directed partition edges
	counters   map[string]uint64
	decisions  uint64 // messages that drew a non-clean verdict
}

// NewChaos builds a disabled chaos engine for a seed. Enable it once the
// cluster is wired; setup traffic should not be faulted.
func NewChaos(seed int64) *Chaos {
	return &Chaos{
		seed:       seed,
		targets:    make(map[string]TargetRule),
		exemptAddr: make(map[string]bool),
		blocked:    make(map[string]bool),
		counters:   make(map[string]uint64),
	}
}

// SetDefaults installs the profile applied to every non-exempt route.
func (c *Chaos) SetDefaults(f RouteFaults) {
	c.mu.Lock()
	c.defaults = f
	c.mu.Unlock()
}

// TargetRule faults one exact destination address. Unlike the default
// profile it applies even on self-routes (src == dst host): it models a co-located
// service failing — the master's own broker during a terminal publish —
// which no network-level profile can express.
type TargetRule struct {
	// Src, when non-empty, restricts the rule to messages from that
	// source host.
	Src string
	// OneWayOnly restricts the rule to one-way sends (notifications),
	// leaving request-response calls to the same address clean.
	OneWayOnly bool
	// Faults is the profile applied to matching messages.
	Faults RouteFaults
}

// ExemptAddr marks one exact "host/path" destination as fault-free —
// e.g. the observer's notification listener, while the same host's file
// server stays in play.
func (c *Chaos) ExemptAddr(host, path string) {
	c.mu.Lock()
	c.exemptAddr[host+path] = true
	c.mu.Unlock()
}

// Partition blocks the directed edge src→dst: requests fail, one-way
// sends vanish. Combine with the reverse call for a symmetric cut.
func (c *Chaos) Partition(src, dst string) {
	c.mu.Lock()
	c.blocked[src+"|"+dst] = true
	c.mu.Unlock()
}

// PartitionBoth cuts both directions between two hosts.
func (c *Chaos) PartitionBoth(a, b string) {
	c.Partition(a, b)
	c.Partition(b, a)
}

// Heal removes the directed edge src→dst.
func (c *Chaos) Heal(src, dst string) {
	c.mu.Lock()
	delete(c.blocked, src+"|"+dst)
	c.mu.Unlock()
}

// Enable turns fault injection on or off. Off, every verdict is clean
// (partitions included).
func (c *Chaos) Enable(on bool) {
	c.mu.Lock()
	c.enabled = on
	c.mu.Unlock()
}

// Decisions reports how many messages drew a non-clean verdict.
func (c *Chaos) Decisions() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.decisions
}

// FaultFunc returns the decider for one source host, to wrap that
// host's transports with transport.WrapFaults.
func (c *Chaos) FaultFunc(src string) transport.FaultFunc {
	return func(op transport.FaultOp, addr string) transport.FaultDecision {
		dstHost, dstPath := splitAddr(addr)
		c.mu.Lock()
		defer c.mu.Unlock()
		if !c.enabled {
			return transport.FaultDecision{}
		}
		if rule, ok := c.targets[dstHost+dstPath]; ok &&
			(rule.Src == "" || rule.Src == src) &&
			(!rule.OneWayOnly || op == transport.OpSend) &&
			!rule.Faults.Zero() {
			route := "target:" + src + "|" + dstHost + dstPath
			k := c.counters[route]
			c.counters[route] = k + 1
			d := decisionAt(c.seed, route, k, rule.Faults)
			if d != (transport.FaultDecision{}) {
				c.decisions++
			}
			return d
		}
		if src == dstHost || c.exemptAddr[dstHost+dstPath] {
			return transport.FaultDecision{}
		}
		if c.blocked[src+"|"+dstHost] {
			c.decisions++
			return transport.FaultDecision{Drop: true}
		}
		profile := c.defaults
		if profile.Zero() {
			return transport.FaultDecision{}
		}
		route := src + "|" + dstHost
		k := c.counters[route]
		c.counters[route] = k + 1
		d := decisionAt(c.seed, route, k, profile)
		if d != (transport.FaultDecision{}) {
			c.decisions++
		}
		return d
	}
}

// decisionAt computes the verdict for the k-th message on a route: a
// pure function of (seed, route, k, profile), so replaying a seed
// replays the identical fault stream per route no matter how goroutines
// interleave across routes.
func decisionAt(seed int64, route string, k uint64, profile RouteFaults) transport.FaultDecision {
	s := splitmix64(uint64(seed) ^ fnv64a(route) ^ splitmix64(k))
	next := func() float64 {
		s = splitmix64(s)
		return float64(s>>11) / (1 << 53)
	}
	var d transport.FaultDecision
	switch {
	case next() < profile.Error:
		d.Err = fmt.Errorf("simgrid: injected error on %s[%d]", route, k)
	case next() < profile.Drop:
		d.Drop = true
	case next() < profile.Duplicate:
		d.Duplicate = true
	}
	if profile.MaxDelay > 0 {
		d.Delay = time.Duration(next() * float64(profile.MaxDelay))
	}
	// Drawn last, so profiles without it keep the streams they had.
	if profile.Reorder > 0 && d.Err == nil && !d.Drop {
		d.Reorder = next() < profile.Reorder
	}
	return d
}

func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

func fnv64a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

func splitAddr(addr string) (host, path string) {
	u, err := url.Parse(addr)
	if err != nil {
		return addr, "/"
	}
	p := u.Path
	if p == "" {
		p = "/"
	}
	return u.Host, p
}
