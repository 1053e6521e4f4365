// Replication ledgers: what every FSS staged and what the replicator
// acked, kept in the harness so they survive master crashes. Invariant
// I7 compares them against the submitted content and the recovered
// journal.
package simgrid

import (
	"uvacg/internal/services/filesystem"
)

// noteStage appends one staged file to the stage ledger (node.Config
// OnStage hook; called from every machine's FSS).
func (c *Cluster) noteStage(rec filesystem.StageRecord) {
	c.mu.Lock()
	c.stages = append(c.stages, rec)
	c.mu.Unlock()
}

// noteReplicaAck folds one acked holder set into the replica ledger
// (replicator OnAck hook). The ledger is a union across all master
// incarnations: journal entries only ever grow, so any holder a crashed
// incarnation acked must still be known after recovery.
func (c *Cluster) noteReplicaAck(hash string, holders []string) {
	c.mu.Lock()
	if c.ackedReplicas == nil {
		c.ackedReplicas = make(map[string]map[string]bool)
	}
	set := c.ackedReplicas[hash]
	if set == nil {
		set = make(map[string]bool)
		c.ackedReplicas[hash] = set
	}
	for _, h := range holders {
		set[h] = true
	}
	c.mu.Unlock()
}

// StageRecords snapshots the stage ledger: every file any FSS staged,
// with the hash it verified at install time and the route it arrived by.
func (c *Cluster) StageRecords() []filesystem.StageRecord {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]filesystem.StageRecord(nil), c.stages...)
}

// AckedReplicas snapshots the replica ledger: for each content hash, the
// union of every holder set the replicator ever acked.
func (c *Cluster) AckedReplicas() map[string][]string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string][]string, len(c.ackedReplicas))
	for hash, set := range c.ackedReplicas {
		holders := make([]string, 0, len(set))
		for h := range set {
			holders = append(holders, h)
		}
		out[hash] = holders
	}
	return out
}

// Replicator returns the current master incarnation's replicator, nil
// when replication is off.
func (c *Cluster) Replicator() *filesystem.Replicator { return c.Master().m.Replicator }
