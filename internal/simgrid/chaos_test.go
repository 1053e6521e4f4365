package simgrid

import (
	"context"
	"errors"
	"testing"
	"time"

	"uvacg/internal/soap"
	"uvacg/internal/transport"
	"uvacg/internal/wsa"
	"uvacg/internal/xmlutil"
)

// TestDecisionDeterminism: the verdict for message k on a route is a
// pure function of (seed, route, k) — two engines with the same seed
// agree on every draw, a different seed diverges somewhere.
func TestDecisionDeterminism(t *testing.T) {
	profile := RouteFaults{Drop: 0.3, Duplicate: 0.2, Error: 0.2, MaxDelay: time.Millisecond, Reorder: 0.3}
	same := 0
	for k := uint64(0); k < 200; k++ {
		a := decisionAt(7, "client|master", k, profile)
		b := decisionAt(7, "client|master", k, profile)
		if !sameDecision(a, b) {
			t.Fatalf("k=%d: same seed diverged: %+v vs %+v", k, a, b)
		}
		if sameDecision(a, decisionAt(8, "client|master", k, profile)) {
			same++
		}
	}
	if same == 200 {
		t.Fatal("seed 7 and 8 produced identical 200-message streams")
	}
	// Distinct routes draw independent streams.
	diverged := false
	for k := uint64(0); k < 200; k++ {
		if !sameDecision(decisionAt(7, "client|master", k, profile), decisionAt(7, "client|node-1", k, profile)) {
			diverged = true
			break
		}
	}
	if !diverged {
		t.Fatal("routes share a fault stream")
	}
}

func sameDecision(a, b transport.FaultDecision) bool {
	return a.Drop == b.Drop && a.Duplicate == b.Duplicate && a.Delay == b.Delay &&
		a.Reorder == b.Reorder && (a.Err == nil) == (b.Err == nil)
}

// chaosEcho wires one client through a Chaos engine to an echo server.
// setTarget installs a rule for one "host/path" destination. Target
// rules are checked before the self-route and exemption checks.
func (c *Chaos) setTarget(dstHost, dstPath string, rule TargetRule) {
	c.mu.Lock()
	c.targets[dstHost+dstPath] = rule
	c.mu.Unlock()
}

// clearTarget removes a target rule.
func (c *Chaos) clearTarget(dstHost, dstPath string) {
	c.mu.Lock()
	delete(c.targets, dstHost+dstPath)
	c.mu.Unlock()
}

func chaosEcho(t *testing.T, seed int64, src string) (*Chaos, *transport.Client) {
	t.Helper()
	network := transport.NewNetwork()
	d := soap.NewDispatcher()
	d.Register("urn:Echo", func(ctx context.Context, req *soap.Envelope) (*soap.Envelope, error) {
		return soap.New(xmlutil.NewElement(xmlutil.Q("urn:simgrid:test", "Pong"), "")), nil
	})
	mux := soap.NewMux()
	mux.Handle("/echo", d)
	network.Register("server", transport.NewServer(mux))

	chaos := NewChaos(seed)
	client := transport.NewClient().WithNetwork(network)
	decide := chaos.FaultFunc(src)
	client.WrapSchemes(func(_ string, rt transport.RoundTripper) transport.RoundTripper {
		return transport.WrapFaults(rt, decide)
	})
	return chaos, client
}

func echoOnce(client *transport.Client) error {
	_, err := client.Call(context.Background(), wsa.NewEPR("inproc://server/echo"), "urn:Echo",
		xmlutil.NewElement(xmlutil.Q("urn:simgrid:test", "Ping"), ""))
	return err
}

// TestPartitionBlocksAndHeals: a directed partition fails every request;
// healing restores the route; the reverse direction was never cut.
func TestPartitionBlocksAndHeals(t *testing.T) {
	chaos, client := chaosEcho(t, 1, "client")
	chaos.Enable(true)

	if err := echoOnce(client); err != nil {
		t.Fatalf("clean route failed: %v", err)
	}
	chaos.Partition("client", "server")
	if err := echoOnce(client); !errors.Is(err, transport.ErrInjectedDrop) {
		t.Fatalf("partitioned call returned %v, want injected drop", err)
	}
	chaos.Heal("client", "server")
	if err := echoOnce(client); err != nil {
		t.Fatalf("healed route failed: %v", err)
	}
}

// TestExemptionsAndSelfRoutes: exempt destinations and same-host calls
// never draw faults even under a certain-drop profile.
func TestExemptionsAndSelfRoutes(t *testing.T) {
	chaos, client := chaosEcho(t, 1, "client")
	chaos.SetDefaults(RouteFaults{Drop: 1})
	chaos.Enable(true)

	if err := echoOnce(client); !errors.Is(err, transport.ErrInjectedDrop) {
		t.Fatalf("drop-all profile let a call through: %v", err)
	}
	chaos.ExemptAddr("server", "/echo")
	if err := echoOnce(client); err != nil {
		t.Fatalf("exempt address still faulted: %v", err)
	}

	// Same-host traffic: a client whose source IS the server host.
	chaos2, client2 := chaosEcho(t, 1, "server")
	chaos2.SetDefaults(RouteFaults{Drop: 1})
	chaos2.Enable(true)
	if err := echoOnce(client2); err != nil {
		t.Fatalf("self-route faulted: %v", err)
	}
}

// TestExemptAddrIsPathScoped: exempting one path leaves the host's other
// paths faultable.
func TestExemptAddrIsPathScoped(t *testing.T) {
	chaos, client := chaosEcho(t, 1, "client")
	chaos.SetDefaults(RouteFaults{Drop: 1})
	chaos.ExemptAddr("server", "/echo")
	chaos.Enable(true)
	if err := echoOnce(client); err != nil {
		t.Fatalf("exempt path still faulted: %v", err)
	}
	chaos2, client2 := chaosEcho(t, 1, "client")
	chaos2.SetDefaults(RouteFaults{Drop: 1})
	chaos2.ExemptAddr("server", "/other")
	chaos2.Enable(true)
	if err := echoOnce(client2); !errors.Is(err, transport.ErrInjectedDrop) {
		t.Fatalf("non-exempt path let through: %v", err)
	}
}

// TestDisabledEngineIsTransparent: before Enable, even partitions and
// drop-all profiles pass everything (setup traffic must be reliable).
func TestDisabledEngineIsTransparent(t *testing.T) {
	chaos, client := chaosEcho(t, 1, "client")
	chaos.SetDefaults(RouteFaults{Drop: 1})
	chaos.PartitionBoth("client", "server")
	if err := echoOnce(client); err != nil {
		t.Fatalf("disabled engine faulted: %v", err)
	}
	if n := chaos.Decisions(); n != 0 {
		t.Fatalf("disabled engine recorded %d decisions", n)
	}
}

func notifyOnce(client *transport.Client) error {
	return client.Notify(context.Background(), wsa.NewEPR("inproc://server/echo"), "urn:Echo",
		xmlutil.NewElement(xmlutil.Q("urn:simgrid:test", "Ping"), ""))
}

// TestTargetRuleOverridesSelfRouteExemption: a target rule faults an
// exact address even when the caller lives on the same host — a
// co-located service failing, which no network-level profile can model.
func TestTargetRuleOverridesSelfRouteExemption(t *testing.T) {
	chaos, client := chaosEcho(t, 1, "server")
	chaos.Enable(true)
	if err := echoOnce(client); err != nil {
		t.Fatalf("clean self-route failed: %v", err)
	}
	chaos.setTarget("server", "/echo", TargetRule{Faults: RouteFaults{Drop: 1}})
	if err := echoOnce(client); !errors.Is(err, transport.ErrInjectedDrop) {
		t.Fatalf("targeted self-route returned %v, want injected drop", err)
	}
	chaos.clearTarget("server", "/echo")
	if err := echoOnce(client); err != nil {
		t.Fatalf("cleared target still faulted: %v", err)
	}
}

// TestTargetRuleSrcAndOneWayFilters: a rule scoped to another source
// leaves this client's calls clean, and a OneWayOnly rule drops one-way
// sends (silently — the caller sees no error) while round trips to the
// same address pass.
func TestTargetRuleSrcAndOneWayFilters(t *testing.T) {
	chaos, client := chaosEcho(t, 1, "client")
	chaos.setTarget("server", "/echo", TargetRule{Src: "other", Faults: RouteFaults{Drop: 1}})
	chaos.Enable(true)
	if err := echoOnce(client); err != nil {
		t.Fatalf("rule for another source faulted this one: %v", err)
	}

	chaos.setTarget("server", "/echo", TargetRule{OneWayOnly: true, Faults: RouteFaults{Drop: 1}})
	if err := echoOnce(client); err != nil {
		t.Fatalf("one-way-only rule faulted a round trip: %v", err)
	}
	before := chaos.Decisions()
	if err := notifyOnce(client); err != nil {
		t.Fatalf("one-way drop leaked an error: %v", err)
	}
	if got := chaos.Decisions(); got != before+1 {
		t.Fatalf("decisions %d → %d, want the one-way send drawn and dropped", before, got)
	}
}
