package scheduler

import (
	"context"
	"errors"
	"log"
	"strconv"
	"time"

	"uvacg/internal/lease"
	"uvacg/internal/soap"
	"uvacg/internal/wsa"
	"uvacg/internal/wsn"
	"uvacg/internal/wsrf"
	"uvacg/internal/xmlutil"
)

// WrongShardFaultCode is the BaseFault error code a master returns for
// a Submit whose job set hashes into a shard it does not own. The
// fault's Originator carries the owning scheduler's EPR so clients can
// re-route without any out-of-band shard map.
const WrongShardFaultCode = "WrongShardFault"

// ShardMapTopic is the broker topic shard ownership changes are
// published on ("shard-map/changed"); peers and clients subscribe to it
// to keep their routing view fresh without polling the lease table.
const ShardMapTopic = "shard-map"

// Sharding opts a scheduler into multi-master operation: the service
// only accepts, dispatches and recovers job sets whose name hashes
// into a shard its lease Manager currently holds.
type Sharding struct {
	// Manager runs the lease protocol for this master.
	Manager *lease.Manager
	// PeerForShard statically maps a shard to the scheduler that
	// prefers it — the redirect fallback when neither the lease table
	// nor the pushed shard map can name a live owner.
	PeerForShard func(shard int) (wsa.EndpointReference, bool)
	// RenewInterval is the lease maintenance cadence; defaults to
	// Manager.TTL()/3.
	RenewInterval time.Duration
	// Observer, when set, sees every ownership transition this master
	// goes through (simgrid's I5 ledger).
	Observer func(ev ShardEvent)
}

// ShardEvent is one ownership transition at one master.
type ShardEvent struct {
	Shard    int
	Epoch    uint64
	Owner    string
	Acquired bool // false: the lease was lost or expired away
}

// DispatchRecord describes one job dispatch as the scheduler commits
// to it — stamped with the shard lease epoch it was made under, which
// is what lets an external checker prove no two masters ever scheduled
// the same shard concurrently (invariant I5).
type DispatchRecord struct {
	Topic string
	Job   string
	Node  string
	Owner string
	Shard int
	Epoch uint64
}

// errShardLost aborts a dispatch whose shard lease went away between
// reservation and the Run call. It is deliberately not a job failure:
// the set now belongs to another master, and this one must simply stop.
var errShardLost = errors.New("scheduler: shard lease lost")

var (
	qShardOwner = xmlutil.Q(NS, "ShardOwner")
	qShardAttr  = xmlutil.Q("", "shard")
	qEpochAttr  = xmlutil.Q("", "epoch")
	qOwnerAttr  = xmlutil.Q("", "owner")
)

// shardOf routes a job-set name onto a shard.
func (s *Service) shardOf(name string) int {
	return lease.ShardOf(name, s.sharding.Manager.Shards())
}

// ownsSet reports whether this master may schedule the named set.
func (s *Service) ownsSet(name string) bool {
	return s.sharding == nil || s.sharding.Manager.Held(s.shardOf(name))
}

// fenced reports whether the run was parked — its shard belongs to
// another master now, or it was evicted back into the admission queue —
// and any further write here would race whoever owns it next.
func (r *run) fenced() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.st.parked
}

// dispatchFence rejects a dispatch whose run was parked or whose shard
// lease is no longer held. Checked immediately before the Run RPC so a
// master that just lost its lease cannot place new work: its clock
// fences it at the lease expiry, strictly before any peer may claim
// the shard (the claim waits out the grace period).
func (s *Service) dispatchFence(r *run) error {
	if r.fenced() {
		return errShardLost
	}
	if s.sharding != nil && !s.sharding.Manager.Held(s.shardOf(r.spec.Name)) {
		return errShardLost
	}
	return nil
}

// recordDispatch reports a committed dispatch to the ledger hook.
func (s *Service) recordDispatch(r *run, jobName, node string) {
	if s.onDispatch == nil {
		return
	}
	rec := DispatchRecord{
		Topic: r.topic,
		Job:   jobName,
		Node:  node,
		Owner: s.svc.EPR().Address,
	}
	if s.sharding != nil {
		rec.Shard = s.shardOf(r.spec.Name)
		rec.Epoch, _ = s.sharding.Manager.Epoch(rec.Shard) // not held any more: epoch 0 (see I5)
	}
	s.onDispatch(rec)
}

// wrongShardFault builds the typed redirect: a WrongShardFault whose
// Originator is the best known owner of the set's shard.
func (s *Service) wrongShardFault(name string, shard int) error {
	f := wsrf.NewBaseFault(WrongShardFaultCode,
		"job set %q hashes to shard %d, which this master does not own", name, shard)
	if epr, ok := s.shardOwner(shard); ok {
		f = f.WithOriginator(epr)
	}
	return f.SOAPFault(soap.CodeSender)
}

// shardOwner resolves a shard's owner endpoint: the lease table first
// (authoritative), then the broker-pushed shard map, then the static
// peer layout. An owner that resolves to this master itself is
// suppressed — redirecting a caller back here would loop.
func (s *Service) shardOwner(shard int) (wsa.EndpointReference, bool) {
	self := s.svc.EPR().Address
	if rec, ok, err := s.sharding.Manager.OwnerOf(shard); err == nil && ok && rec.Owner != "" && rec.Owner != self {
		return wsa.NewEPR(rec.Owner), true
	}
	s.mu.RLock()
	cached := s.shardOwners[shard]
	s.mu.RUnlock()
	if cached != "" && cached != self {
		return wsa.NewEPR(cached), true
	}
	if s.sharding.PeerForShard != nil {
		if epr, ok := s.sharding.PeerForShard(shard); ok && epr.Address != self {
			return epr, true
		}
	}
	return wsa.EndpointReference{}, false
}

// RedirectTarget extracts the owner endpoint from a WrongShardFault
// error, if err carries one — clients (gridsub, the simulator) use it
// to follow submit redirects transparently.
func RedirectTarget(err error) (wsa.EndpointReference, bool) {
	bf, ok := wsrf.BaseFaultFromError(err)
	if !ok || bf.ErrorCode != WrongShardFaultCode || bf.Originator.IsZero() {
		return wsa.EndpointReference{}, false
	}
	return bf.Originator, true
}

// shardOwnerMessage renders a shard-map change notification payload.
func shardOwnerMessage(rec lease.Record) *xmlutil.Element {
	el := xmlutil.NewElement(qShardOwner, "")
	el.SetAttr(qShardAttr, strconv.Itoa(rec.Shard))
	el.SetAttr(qEpochAttr, strconv.FormatUint(rec.Epoch, 10))
	el.SetAttr(qOwnerAttr, rec.Owner)
	return el
}

// parseShardOwner decodes a shard-map change payload.
func parseShardOwner(el *xmlutil.Element) (shard int, epoch uint64, owner string, err error) {
	if el == nil || el.Name != qShardOwner {
		return 0, 0, "", errors.New("scheduler: message is not a ShardOwner")
	}
	if shard, err = strconv.Atoi(el.Attr(qShardAttr)); err != nil {
		return 0, 0, "", err
	}
	if epoch, err = strconv.ParseUint(el.Attr(qEpochAttr), 10, 64); err != nil {
		return 0, 0, "", err
	}
	return shard, epoch, el.Attr(qOwnerAttr), nil
}

// publishShardChange announces a fresh claim on the shard-map topic.
// One-way and best-effort: the lease table stays authoritative, the
// push only saves peers and clients a table read.
func (s *Service) publishShardChange(ctx context.Context, rec lease.Record) {
	n := wsn.Notification{
		Topic:    ShardMapTopic + "/changed",
		Producer: s.svc.EPR(),
		Message:  shardOwnerMessage(rec),
	}
	_ = wsn.PublishViaBroker(ctx, s.client, s.broker, n)
}

// noteShardOwner applies a shard-map change (pushed or local) to the
// routing cache, keeping the highest epoch seen per shard.
func (s *Service) noteShardOwner(shard int, epoch uint64, owner string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if epoch >= s.shardEpochs[shard] {
		s.shardOwners[shard] = owner
		s.shardEpochs[shard] = epoch
	}
}

// parkShard lets go of every set in a lost shard without touching its
// persisted document or its live jobs: the new owner recovers from the
// documents — a Queued one is re-parked on its own queue — and
// still-running jobs keep publishing events the new owner's subscription
// will consume.
func (s *Service) parkShard(shard int) {
	for id, h := range s.sets.all() {
		if s.shardOf(h.name()) != shard {
			continue
		}
		if r := s.letGo(id); r != nil {
			// The run now belongs to another master: timers stop, and its
			// tenant's running slot goes back to this one's queue.
			s.fire(context.Background(), r, event{kind: evShardLost})
		}
	}
}

// StartSharding begins the lease protocol: claim this master's
// preferred shards synchronously (so a following Recover covers them),
// then renew, fence and claim orphans in the background until ctx is
// done. Shards acquired later trigger their own RecoverShard. Returns
// the initially owned shards.
func (s *Service) StartSharding(ctx context.Context) []int {
	if s.sharding == nil {
		return nil
	}
	// Routing pushes are best-effort; the lease table remains the
	// authority when the subscription cannot be established.
	s.subscribeStanding(ctx, ShardMapTopic)

	mgr := s.sharding.Manager
	announce := func(rec lease.Record) {
		s.noteShardOwner(rec.Shard, rec.Epoch, rec.Owner)
		s.publishShardChange(ctx, rec)
		if s.sharding.Observer != nil {
			s.sharding.Observer(ShardEvent{Shard: rec.Shard, Epoch: rec.Epoch, Owner: rec.Owner, Acquired: true})
		}
	}
	mgr.Tick(lease.Hooks{OnAcquired: announce})
	owned := mgr.Owned()

	bg := context.WithoutCancel(ctx)
	hooks := lease.Hooks{
		OnAcquired: func(rec lease.Record) {
			announce(rec)
			go func() {
				if _, err := s.RecoverShard(bg, rec.Shard); err != nil {
					log.Printf("scheduler: recover shard %d: %v", rec.Shard, err)
				}
			}()
		},
		OnLost: func(shard int, epoch uint64) {
			if s.sharding.Observer != nil {
				s.sharding.Observer(ShardEvent{Shard: shard, Epoch: epoch, Owner: mgr.Owner(), Acquired: false})
			}
			s.parkShard(shard)
		},
	}
	interval := s.sharding.RenewInterval
	if interval <= 0 {
		interval = mgr.TTL() / 3
	}
	go mgr.Maintain(ctx, interval, hooks)
	go s.republishLoop(ctx, 2*interval)
	return owned
}

// republishLoop periodically sweeps the persisted job sets this master
// owns for terminal documents not yet stamped notified and republishes
// their terminal event. A single-master deployment talks to a co-located
// broker and repairs lost terminal publishes on Recover; a sharded master
// reaches its broker over the network, so a dropped publish would
// otherwise stay lost until the next restart — this loop gives invariant
// "at-least-once terminal notification" a repair path that does not
// require the master to die first. Duplicates are possible — the sweep can
// race the completion path's own first publish, and a marker that could
// not be stamped costs one more next time — and allowed.
func (s *Service) republishLoop(ctx context.Context, interval time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			_ = s.sweep(ctx, s.ownsSet, "replayed after delivery failure", nil)
		}
	}
}
