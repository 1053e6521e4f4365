package wsn

import (
	"context"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"

	"uvacg/internal/wsa"
	"uvacg/internal/wsrf"
)

// bruteMatch is Publish's old rule: every subscription the producer
// holds, asked whether it matches.
func bruteMatch(p *Producer, topic string) []string {
	p.mu.RLock()
	defer p.mu.RUnlock()
	var ids []string
	for id, sub := range p.subs {
		if !sub.paused && sub.te.Matches(topic) {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	return ids
}

func indexedMatch(p *Producer, topic string) []string {
	var ids []string
	for _, sub := range p.matching(topic) {
		ids = append(ids, sub.id)
	}
	sort.Strings(ids)
	return ids
}

// checkIndex requires byRoot to file exactly the ids of subs, each once,
// with no empty bucket left behind.
func checkIndex(t *testing.T, p *Producer) {
	t.Helper()
	p.mu.RLock()
	defer p.mu.RUnlock()
	filed := 0
	for root, ids := range p.byRoot {
		if len(ids) == 0 {
			t.Errorf("empty bucket %q left in the index", root)
		}
		for id := range ids {
			filed++
			if sub, ok := p.subs[id]; !ok || sub.te.segs[0] != root {
				t.Errorf("index files %q under %q: subscription %+v (known=%v)", id, root, sub, ok)
			}
		}
	}
	if filed != len(p.subs) {
		t.Errorf("index files %d ids, producer holds %d subscriptions", filed, len(p.subs))
	}
}

// TestIndexedMatchEqualsBruteForce: for random subscription sets over all
// three dialects — some paused, some destroyed, all then recovered from
// the home by a second producer — the subscriptions Publish reaches
// through the root-segment index are exactly those a scan of every
// subscription with Matches would reach.
func TestIndexedMatchEqualsBruteForce(t *testing.T) {
	segs := []string{"a", "b", "c", "*"}
	var topics []string
	for _, x := range segs {
		topics = append(topics, x)
		for _, y := range segs {
			topics = append(topics, x+"/"+y)
			for _, z := range segs {
				topics = append(topics, x+"/"+y+"/"+z)
			}
		}
	}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pick := func(from []string) string { return from[rng.Intn(len(from))] }
		randomExpr := func() *TopicExpression {
			switch rng.Intn(3) {
			case 0:
				return Simple(pick(segs[:3]))
			case 1:
				parts := make([]string, 1+rng.Intn(3))
				for i := range parts {
					parts[i] = pick(segs[:3])
				}
				return MustTopicExpression(DialectConcrete, strings.Join(parts, "/"))
			default:
				// Full: literal or wildcard segments, "//" gaps anywhere
				// but the front.
				expr := pick(segs)
				for i, n := 0, rng.Intn(3); i < n; i++ {
					expr += pick([]string{"/", "//"}) + pick(segs)
				}
				return MustTopicExpression(DialectFull, expr)
			}
		}

		h := newWSNHarness(t)
		ctx := context.Background()
		var eprs []wsa.EndpointReference
		for i := 0; i < 40; i++ {
			// A consumer of its own each: the same one asking twice for the
			// same expression would get the same subscription back.
			epr, err := h.producer.Subscribe(h.consEPR.WithProperty(wsrf.QResourceID, strconv.Itoa(i)), randomExpr())
			if err != nil {
				t.Fatal(err)
			}
			eprs = append(eprs, epr)
		}
		for _, epr := range eprs {
			switch rng.Intn(4) {
			case 0:
				if _, err := h.client.Call(ctx, epr, ActionPauseSubscription, PauseRequest()); err != nil {
					t.Fatal(err)
				}
			case 1:
				if err := h.producer.Unsubscribe(epr.Property(wsrf.QResourceID)); err != nil {
					t.Fatal(err)
				}
			}
		}
		// A restarted producer over the same home.
		owner2 := wsrf.MustService(wsrf.ServiceConfig{Path: "/ES2", Address: "inproc://node-a"})
		recovered := MustProducer(owner2, h.producer.SubscriptionService().Home(), h.client)

		for name, p := range map[string]*Producer{"live": h.producer, "recovered": recovered} {
			checkIndex(t, p)
			for _, topic := range topics {
				got, want := indexedMatch(p, topic), bruteMatch(p, topic)
				if strings.Join(got, ",") != strings.Join(want, ",") {
					t.Fatalf("seed %d, %s producer, topic %q: index reaches %v, brute force %v", seed, name, topic, got, want)
				}
			}
		}
		for _, topic := range topics {
			if got, want := indexedMatch(recovered, topic), indexedMatch(h.producer, topic); strings.Join(got, ",") != strings.Join(want, ",") {
				t.Fatalf("seed %d, topic %q: recovered producer reaches %v, live one %v", seed, topic, got, want)
			}
		}
	}
}
