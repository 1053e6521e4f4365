package scheduler

import (
	"context"
	"sort"

	"uvacg/internal/services/filesystem"
	"uvacg/internal/services/nodeinfo"
	"uvacg/internal/wsa"
	"uvacg/internal/wsn"
)

// The replica cache is the scheduler's view of where content lives: a
// push-fed mirror of the fss-replica topic. Dispatch reads it twice —
// once to annotate FileRefs with content hashes and replica EPRs (so a
// staging FSS can pull from the nearest holder instead of the origin),
// and once to build the Locality signal the DataAware policy weighs
// against effective speed.

// replicaFile is what a "stored" event taught us about one source key.
type replicaFile struct {
	hash string
	size int64
}

// replicaCache mirrors replica manifests and holder sets.
type replicaCache struct {
	// files maps filesystem.SourceKey → content identity.
	files map[string]replicaFile
	// holders maps content hash → FSS service addresses holding it.
	holders map[string]map[string]bool
	pushes  int64
}

// SubscribeReplicas subscribes the SS consumer to the replica topic when
// the policy weighs locality. master.Start calls it before anything it
// starts can publish there: the broker keeps nothing for a late
// subscriber. A cold cache only costs locality-blind placement, never a
// failed dispatch.
func (s *Service) SubscribeReplicas(ctx context.Context) error {
	if !s.trackReplicas {
		return nil
	}
	_, err := wsn.SubscribeVia(ctx, s.client, s.broker, s.ConsumerEPR(), wsn.Simple(filesystem.ReplicaTopic))
	return err
}

// storeReplica folds one replica event into the cache.
func (s *Service) storeReplica(rc filesystem.ReplicaChanged) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.rep.files == nil {
		s.rep.files = make(map[string]replicaFile)
		s.rep.holders = make(map[string]map[string]bool)
	}
	s.rep.pushes++
	for _, e := range rc.Manifest.Entries {
		if e.Source != "" {
			s.rep.files[e.Source] = replicaFile{hash: e.Hash, size: e.Size}
		}
	}
	for hash, addrs := range rc.Holders {
		set := s.rep.holders[hash]
		if set == nil {
			set = make(map[string]bool)
			s.rep.holders[hash] = set
		}
		for _, a := range addrs {
			if a != "" {
				set[a] = true
			}
		}
	}
}

// annotateReplicas fills Hash/Size/Replicas on every FileRef the cache
// recognizes and returns the Locality signal over the catalog: how many
// of these input bytes each host's co-located FSS already holds.
func (s *Service) annotateReplicas(files []filesystem.FileRef, procs []nodeinfo.Processor) Locality {
	if !s.trackReplicas {
		return Locality{}
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	var loc Locality
	for i := range files {
		rf, ok := s.rep.files[filesystem.SourceKey(files[i].Source, files[i].RemoteName)]
		if !ok {
			continue
		}
		files[i].Hash = rf.hash
		files[i].Size = rf.size
		holders := s.rep.holders[rf.hash]
		files[i].Replicas = files[i].Replicas[:0]
		for _, addr := range sortedAddrs(holders) {
			files[i].Replicas = append(files[i].Replicas, wsa.NewEPR(addr))
		}
		loc.TotalBytes += rf.size
		for _, p := range procs {
			if holders[filesystem.ServiceAddressFor(p.ES.Address)] {
				if loc.LocalBytes == nil {
					loc.LocalBytes = make(map[string]int64)
				}
				loc.LocalBytes[p.Host] += rf.size
			}
		}
	}
	return loc
}

// publishReplicaWant tells the replicator a job set asked for a deeper
// replica target than the daemon default. Best-effort.
func (s *Service) publishReplicaWant(ctx context.Context, want int) {
	if want <= 0 || s.broker.IsZero() {
		return
	}
	n := wsn.Notification{
		Topic:    filesystem.ReplicaWantTopic,
		Producer: s.ConsumerEPR(),
		Message:  filesystem.ReplicaWantMessage(want),
	}
	_ = wsn.PublishViaBroker(context.WithoutCancel(ctx), s.client, s.broker, n)
}

// ReplicaStats reports the replica cache: source keys with known
// hashes, distinct hashes with holders, and events applied.
func (s *Service) ReplicaStats() (files, blobs int, pushes int64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.rep.files), len(s.rep.holders), s.rep.pushes
}

// sortedAddrs returns a holder set in deterministic order.
func sortedAddrs(set map[string]bool) []string {
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
