package simgrid

import (
	"context"
	"errors"
	"fmt"
	"time"

	"uvacg/internal/admission"
	"uvacg/internal/services/scheduler"
	"uvacg/internal/wssec"
)

var errNoAdmission = errors.New("simgrid: cluster runs no admission queues")

func errUnknownTenant(t string) error { return fmt.Errorf("simgrid: unknown tenant %q", t) }

// AdmissionConfig puts every scheduler in the cluster behind a durable
// multi-tenant admission queue: Submit journals the set as Queued and
// acks, a fair-share pump activates it later. nil keeps the classic
// direct-dispatch path.
type AdmissionConfig struct {
	// MaxQueued bounds the global parked backlog (0 = unlimited).
	MaxQueued int
	// TenantQueued bounds each tenant's parked sets (0 = unlimited).
	TenantQueued int
	// TenantRunning bounds each tenant's concurrently running sets.
	TenantRunning int
	// Weights sets per-tenant fair-share weights (default 1 each).
	Weights map[string]int
	// RetryAfter is the QueueFullFault backoff hint.
	RetryAfter time.Duration
	// Tenants maps tenant account names to passwords. When non-empty the
	// schedulers verify UsernameTokens (anonymous still allowed), so
	// SubmitAs can tag submissions with a tenant identity. Note that
	// authenticated submissions are "secured" in the paper's sense:
	// their credentials are never persisted, so they do not survive a
	// master crash while parked — crash drills should submit anonymously.
	Tenants map[string]string
}

// AdmissionEnabled reports whether the cluster runs admission queues.
func (c *Cluster) AdmissionEnabled() bool { return c.cfg.Admission != nil }

// newAdmissionQueue builds one scheduler's admission queue, feeding the
// cluster-wide event ledger invariant I6 audits.
func (c *Cluster) newAdmissionQueue() *admission.Queue {
	a := c.cfg.Admission
	return admission.New(admission.Config{
		MaxQueued:     a.MaxQueued,
		TenantQueued:  a.TenantQueued,
		TenantRunning: a.TenantRunning,
		Weights:       a.Weights,
		RetryAfter:    a.RetryAfter,
		Observer:      c.noteAdmissionEvent,
	})
}

// admissionVerifier is the WS-Security config tenant-tagged submits
// authenticate against; nil when no tenant accounts are configured.
func (c *Cluster) admissionVerifier() *wssec.VerifierConfig {
	a := c.cfg.Admission
	if a == nil || len(a.Tenants) == 0 {
		return nil
	}
	accounts := make(wssec.StaticAccounts, len(a.Tenants))
	for name, pw := range a.Tenants {
		accounts[name] = pw
	}
	return &wssec.VerifierConfig{Accounts: accounts, Required: false}
}

// noteAdmissionEvent appends one queue transition to the admission
// ledger. All masters share the ledger; entries keep their admission
// sequence across requeues, so conservation is checkable per (tenant,
// seq) even across shard moves and restarts.
func (c *Cluster) noteAdmissionEvent(ev admission.Event) {
	c.mu.Lock()
	c.admEvents = append(c.admEvents, ev)
	c.mu.Unlock()
}

// liveAdmissionStats snapshots every live master incarnation's queue,
// keyed by host name. Crashed incarnations are skipped — their queues
// died with them, and their parked entries are the journal's (and the
// recovering owner's) responsibility.
func (c *Cluster) liveAdmissionStats() map[string]admission.QueueStats {
	out := make(map[string]admission.QueueStats)
	for host, ss := range c.liveSchedulers() {
		if st, ok := ss.AdmissionStats(); ok {
			out[host] = st
		}
	}
	return out
}

// liveSchedulers maps host → scheduler for every master incarnation that
// has not been crashed.
func (c *Cluster) liveSchedulers() map[string]*scheduler.Service {
	c.mu.Lock()
	masters := append([]*masterHost{c.master}, c.masters...)
	c.mu.Unlock()
	out := make(map[string]*scheduler.Service)
	for _, m := range masters {
		if m != nil && !m.f.dead.Load() {
			out[m.host] = m.m.Scheduler
		}
	}
	return out
}

// AdmissionEvents snapshots the admission ledger.
func (c *Cluster) AdmissionEvents() []admission.Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]admission.Event(nil), c.admEvents...)
}

// SubmitAs is Submit with a tenant identity: the submission carries the
// tenant's UsernameToken, so the admission queue files it under that
// tenant's quota and fair-share weight.
func (c *Cluster) SubmitAs(ctx context.Context, spec *scheduler.JobSetSpec, tenant string) (Ack, error) {
	a := c.cfg.Admission
	if a == nil {
		return Ack{}, errNoAdmission
	}
	pw, ok := a.Tenants[tenant]
	if !ok {
		return Ack{}, errUnknownTenant(tenant)
	}
	return c.submit(ctx, spec, wssec.Credentials{Username: tenant, Password: pw})
}
