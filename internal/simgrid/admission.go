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

// AdmissionConfig puts the cluster's scheduler behind a durable
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
	// scheduler verifies UsernameTokens (anonymous still allowed), so
	// SubmitAs can tag submissions with a tenant identity. Note that
	// authenticated submissions are "secured" in the paper's sense:
	// their credentials are never persisted, so they do not survive a
	// master crash while parked — crash drills should submit anonymously.
	Tenants map[string]string
}

// AdmissionEnabled reports whether the cluster runs admission queues.
func (c *Cluster) AdmissionEnabled() bool { return c.cfg.Admission != nil }

// newAdmissionQueue builds one master incarnation's admission queue,
// feeding the cluster-wide event ledger invariant I6 audits.
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
// ledger. Every master incarnation writes to the one ledger; entries keep
// their admission sequence across requeues, so conservation is checkable
// per (tenant, seq) even across restarts.
func (c *Cluster) noteAdmissionEvent(ev admission.Event) {
	c.mu.Lock()
	c.admEvents = append(c.admEvents, ev)
	c.mu.Unlock()
}

// liveScheduler returns the master's scheduler, nil while the master is
// crashed: a dead incarnation's queue and books died with it, and what
// it had acked is the journal's (and the next incarnation's) to honor.
func (c *Cluster) liveScheduler() *scheduler.Service {
	if m := c.Master(); !m.f.dead.Load() {
		return m.m.Scheduler
	}
	return nil
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
