package scheduler

import (
	"context"

	"uvacg/internal/admission"
)

// Set-level priority preemption. An interactive-class arrival that
// finds its tenant's running quota exhausted may evict the tenant's
// youngest running scavenger set: the victim's live processes are
// killed, its document is journaled back to Queued through the WAL
// (so the preempted-but-acked set survives a crash exactly like any
// other parked submission), and its admission entry is requeued in
// sequence order — it reruns once the interactive burst drains.

// SetPreempted is the non-terminal event kind published on a victim's
// topic ("<topic>/jobset/preempted"); listeners that only watch for
// terminal states ignore it.
const SetPreempted = "Preempted"

// maybePreempt runs after an interactive-class enqueue: if the tenant
// cannot start the new set because its running quota is full, evict a
// scavenger victim to make room. Best-effort — no victim, no eviction.
// The eviction is the core's preempt transition: kill the live jobs,
// journal the set back to Queued, requeue its entry, free the slot, tell
// listeners ("preempted" is not a terminal kind, so terminal-event
// watchers are undisturbed).
func (s *Service) maybePreempt(ctx context.Context, tenant string) {
	if !s.preempt || s.adm == nil || !s.adm.AtRunningCap(tenant) {
		return
	}
	if victim := s.pickVictim(tenant); victim != nil {
		s.fire(ctx, victim, event{kind: evPreempt})
	}
}

// pickVictim chooses the tenant's youngest (highest admission sequence)
// running scavenger set — the one that has, in expectation, the least
// sunk work.
func (s *Service) pickVictim(tenant string) (best *run) {
	for _, h := range s.sets.all() {
		r := h.run
		if r == nil || !r.hasEntry || r.entry.Tenant != tenant || r.entry.Class != admission.ClassScavenger {
			continue
		}
		r.mu.Lock()
		running := r.st.status == SetRunning && !r.st.parked
		r.mu.Unlock()
		if running && (best == nil || r.entry.Seq > best.entry.Seq) {
			best = r
		}
	}
	return best
}
