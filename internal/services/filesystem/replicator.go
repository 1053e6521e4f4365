package filesystem

import (
	"context"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"uvacg/internal/pipeline"
	"uvacg/internal/resourcedb"
	"uvacg/internal/services/nodeinfo"
	"uvacg/internal/transport"
	"uvacg/internal/wsa"
	"uvacg/internal/wsn"
	"uvacg/internal/xmlutil"
)

// The replicator is the background half of the replication layer: it
// listens on the fss-replica topic for "stored" events, fans each hash
// out to K FSS nodes picked from the NIS catalog, and journals the
// acked holder set per hash so a restarted master still knows where
// every blob lives. Holder sets only ever grow on the journal side —
// a node crash loses that node's cache, not the record of who else
// holds the content.

// Journal QNames.
var (
	qReplicaState = xmlutil.Q(NS, "ReplicaState")
	qSizeAttr     = xmlutil.Q("", "size")
)

// ReplicatorConfig configures a Replicator.
type ReplicatorConfig struct {
	// Address is the base address of the host mounting the consumer,
	// e.g. "inproc://master" or "soap.tcp://host:port".
	Address string
	Client  *transport.Client
	Broker  wsa.EndpointReference
	NIS     wsa.EndpointReference
	// Replicas is the target holder count K per blob (default 2).
	// Job-set specs may ask for more; the larger value wins.
	Replicas int
	// Journal persists acked holder sets across restarts. Optional:
	// without it the replicator still fans out but forgets on restart.
	Journal *resourcedb.Table
	// Metrics, when set, records fan-out rounds under the
	// "/replication" pseudo-path.
	Metrics *pipeline.Metrics
	// OnAck, when set, observes every journaled holder set — the
	// simgrid invariant checker hangs its I7 ledger here.
	OnAck func(hash string, holders []string)
}

// Replicator fans stored content out to K FSS nodes and journals the
// acked holder sets.
type Replicator struct {
	addr     string
	client   *transport.Client
	broker   wsa.EndpointReference
	nis      wsa.EndpointReference
	replicas int
	journal  *resourcedb.Table
	metrics  *pipeline.Metrics
	onAck    func(hash string, holders []string)
	consumer *wsn.Consumer

	mu      sync.Mutex
	holders map[string]map[string]bool // hash → FSS addr set
	sizes   map[string]int64

	fanouts   atomic.Int64 // fan-out rounds run
	acked     atomic.Int64 // holder acks journaled
	shortfall atomic.Int64 // rounds ending below the replica target
}

// ReplicatorStats is a snapshot of replicator counters.
type ReplicatorStats struct {
	Fanouts   int64
	Acked     int64
	Shortfall int64
	Tracked   int // distinct hashes with known holders
}

// NewReplicator builds a replicator, rebuilding holder state from the
// journal so acked replica sets survive a restart.
func NewReplicator(cfg ReplicatorConfig) *Replicator {
	if cfg.Replicas <= 0 {
		cfg.Replicas = 2
	}
	r := &Replicator{
		addr:     cfg.Address,
		client:   cfg.Client,
		broker:   cfg.Broker,
		nis:      cfg.NIS,
		replicas: cfg.Replicas,
		journal:  cfg.Journal,
		metrics:  cfg.Metrics,
		onAck:    cfg.OnAck,
		consumer: wsn.NewConsumer(),
		holders:  make(map[string]map[string]bool),
		sizes:    make(map[string]int64),
	}
	r.recover()
	r.consumer.Handle(wsn.Simple(ReplicaTopic), r.onNotification)
	return r
}

// recover reloads journaled holder sets.
func (r *Replicator) recover() {
	if r.journal == nil {
		return
	}
	ids, err := r.journal.Scan(func(id string, doc *xmlutil.Element) bool {
		return doc != nil && doc.Name == qReplicaState
	})
	if err != nil {
		return
	}
	for _, hash := range ids {
		doc, ok, err := r.journal.Get(hash)
		if err != nil || !ok || !ValidHash(hash) {
			continue
		}
		set := make(map[string]bool)
		for _, h := range doc.ChildrenNamed(qHolder) {
			if h.Text != "" {
				set[h.Text] = true
			}
		}
		if len(set) == 0 {
			continue
		}
		r.holders[hash] = set
		if size, err := strconv.ParseInt(doc.Attr(qSizeAttr), 10, 64); err == nil {
			r.sizes[hash] = size
		}
	}
}

// Consumer returns the replicator's notification consumer; the wiring
// must mount it at ConsumerPath on the host's mux.
func (r *Replicator) Consumer() *wsn.Consumer { return r.consumer }

// ConsumerPath returns the consumer's mount path.
func (r *Replicator) ConsumerPath() string { return "/ReplicaConsumer" }

// ConsumerEPR returns the consumer's endpoint.
func (r *Replicator) ConsumerEPR() wsa.EndpointReference {
	return wsa.NewEPR(r.addr + r.ConsumerPath())
}

// Start subscribes the replicator to the replica topic; master.Start calls
// it before anything it starts can publish there, since the broker keeps
// nothing for a late subscriber. With the broker unreachable it returns
// the error; events published meanwhile are lost, but the next "stored"
// event for the same content re-triggers the fan-out.
func (r *Replicator) Start(ctx context.Context) error {
	_, err := wsn.SubscribeVia(ctx, r.client, r.broker, r.ConsumerEPR(), wsn.Simple(ReplicaTopic))
	return err
}

// Holders returns the known holder addresses for a hash, sorted.
func (r *Replicator) Holders(hash string) []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return sortedKeys(r.holders[hash])
}

// Stats snapshots the replicator counters.
func (r *Replicator) Stats() ReplicatorStats {
	r.mu.Lock()
	tracked := len(r.holders)
	r.mu.Unlock()
	return ReplicatorStats{
		Fanouts:   r.fanouts.Load(),
		Acked:     r.acked.Load(),
		Shortfall: r.shortfall.Load(),
		Tracked:   tracked,
	}
}

// onNotification handles one replica event. "stored" events trigger a
// fan-out; "replicated" events (including the echo of our own
// publication) only merge holder knowledge — they never fan out again,
// so the topic cannot loop.
func (r *Replicator) onNotification(ctx context.Context, n wsn.Notification) {
	if n.Topic == ReplicaWantTopic {
		if want, err := ParseReplicaWant(n.Message); err == nil {
			r.mu.Lock()
			if want > r.replicas {
				r.replicas = want
			}
			r.mu.Unlock()
		}
		return
	}
	rc, err := ParseReplicaChanged(n.Message)
	if err != nil {
		return
	}
	r.merge(rc)
	if rc.Kind != ReplicaStored {
		return
	}
	start := time.Now()
	err = r.fanOut(ctx, rc)
	if r.metrics != nil {
		r.metrics.Record(pipeline.Key{Path: "/replication", Action: "fan-out"}, time.Since(start), err != nil)
	}
}

// merge folds an event's holder lists and sizes into local state,
// journaling any hash whose set grew. Returns the hashes whose holder
// sets changed.
func (r *Replicator) merge(rc ReplicaChanged) []string {
	var changed []string
	r.mu.Lock()
	for _, e := range rc.Manifest.Entries {
		r.sizes[e.Hash] = e.Size
	}
	for hash, addrs := range rc.Holders {
		set := r.holders[hash]
		if set == nil {
			set = make(map[string]bool)
			r.holders[hash] = set
		}
		grew := false
		for _, a := range addrs {
			if a != "" && !set[a] {
				set[a] = true
				grew = true
			}
		}
		if grew {
			changed = append(changed, hash)
		}
	}
	// Snapshot what we must journal while still consistent.
	type snap struct {
		hash    string
		size    int64
		holders []string
	}
	snaps := make([]snap, 0, len(changed))
	for _, hash := range changed {
		snaps = append(snaps, snap{hash, r.sizes[hash], sortedKeys(r.holders[hash])})
	}
	r.mu.Unlock()
	sort.Strings(changed)
	for _, s := range snaps {
		r.journalState(s.hash, s.size, s.holders)
	}
	return changed
}

// journalState persists one hash's holder set and reports the ack.
func (r *Replicator) journalState(hash string, size int64, holders []string) {
	if r.journal != nil {
		doc := &xmlutil.Element{Name: qReplicaState}
		doc.SetAttr(qSizeAttr, strconv.FormatInt(size, 10))
		for _, a := range holders {
			doc.Append(xmlutil.NewElement(qHolder, a))
		}
		if err := r.journal.Put(hash, doc); err != nil {
			return
		}
	}
	r.acked.Add(1)
	if r.onAck != nil {
		r.onAck(hash, holders)
	}
}

// fanOut brings every hash in a stored event up to the replica target:
// it derives candidate FSS addresses from the NIS catalog, asks the
// deterministically-first non-holders to Replicate, and journals plus
// republishes whatever they ack.
func (r *Replicator) fanOut(ctx context.Context, rc ReplicaChanged) error {
	r.fanouts.Add(1)
	r.mu.Lock()
	want := r.replicas
	r.mu.Unlock()

	procs, err := nodeinfo.GetProcessorsVia(ctx, r.client, r.nis)
	if err != nil {
		r.shortfall.Add(1)
		return err
	}
	candidates := make([]string, 0, len(procs))
	seen := make(map[string]bool)
	for _, p := range procs {
		addr := ServiceAddressFor(p.ES.Address)
		if addr != "" && !seen[addr] {
			seen[addr] = true
			candidates = append(candidates, addr)
		}
	}
	sort.Strings(candidates)

	// Group the needed blobs by target so each FSS gets one Replicate
	// call per round.
	perTarget := make(map[string][]BlobRef)
	short := false
	r.mu.Lock()
	for _, e := range rc.Manifest.Entries {
		held := r.holders[e.Hash]
		need := want - len(held)
		if need <= 0 {
			continue
		}
		sources := sortedKeys(held)
		for _, addr := range candidates {
			if need == 0 {
				break
			}
			if held[addr] {
				continue
			}
			perTarget[addr] = append(perTarget[addr], BlobRef{Hash: e.Hash, Size: e.Size, Sources: sources})
			need--
		}
		if need > 0 {
			short = true
		}
	}
	r.mu.Unlock()
	if short {
		r.shortfall.Add(1)
	}
	if len(perTarget) == 0 {
		return nil
	}

	targets := make([]string, 0, len(perTarget))
	for addr := range perTarget {
		targets = append(targets, addr)
	}
	sort.Strings(targets)

	ackedAny := false
	var lastErr error
	for _, addr := range targets {
		held, err := ReplicateVia(ctx, r.client, wsa.NewEPR(addr), perTarget[addr])
		if err != nil {
			lastErr = err
			continue
		}
		if len(held) == 0 {
			continue
		}
		holders := make(map[string][]string, len(held))
		for _, hash := range held {
			holders[hash] = []string{addr}
		}
		if len(r.merge(ReplicaChanged{Kind: ReplicaReplicated, Holders: holders})) > 0 {
			ackedAny = true
		}
	}

	if ackedAny {
		r.publishReplicated(ctx, rc.Manifest)
	}
	return lastErr
}

// publishReplicated announces the journaled holder sets for a manifest
// so schedulers tracking locality learn where the replicas landed.
// Best-effort, like every producer-side publish.
func (r *Replicator) publishReplicated(ctx context.Context, m Manifest) {
	holders := make(map[string][]string, len(m.Entries))
	r.mu.Lock()
	for _, e := range m.Entries {
		if set := r.holders[e.Hash]; len(set) > 0 {
			holders[e.Hash] = sortedKeys(set)
		}
	}
	r.mu.Unlock()
	msg, err := ReplicaChangedMessage(ReplicaChanged{
		Kind:     ReplicaReplicated,
		Manifest: m,
		Holders:  holders,
	})
	if err != nil {
		return
	}
	n := wsn.Notification{Topic: replicaChangedTopic, Producer: r.ConsumerEPR(), Message: msg}
	_ = wsn.PublishViaBroker(context.WithoutCancel(ctx), r.client, r.broker, n)
}

// sortedKeys returns a set's members in sorted order.
func sortedKeys(set map[string]bool) []string {
	if len(set) == 0 {
		return nil
	}
	out := make([]string, 0, len(set))
	for a := range set {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}
