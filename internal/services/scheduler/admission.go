package scheduler

import (
	"context"
	"errors"
	"strconv"
	"time"

	"uvacg/internal/admission"
	"uvacg/internal/soap"
	"uvacg/internal/wsrf"
	"uvacg/internal/wssec"
	"uvacg/internal/xmlutil"
)

// Admission-control document attributes. The job-set WS-Resource
// doubles as the enqueue journal: a Submit accepted by admission is
// persisted with status Queued plus these coordinates before the ack,
// and a restarted master rebuilds its queues by replaying them (the
// PR 3 durability invariant I3, extended to parked submissions as I6).
var (
	qTenantAttr = xmlutil.Q("", "tenant")
	qClassAttr  = xmlutil.Q("", "class")
	qAdmitSeq   = xmlutil.Q("", "admitSeq")

	qQueuePos = xmlutil.Q(NS, "QueuePosition")
)

// admissionRetryDelay paces activation retries after a transient
// failure (broker unreachable, journal write refused). Retries are
// unbounded by design — the enqueue was acked, so dropping the set
// would lose it; the delay only keeps a dead broker from spinning the
// pump.
const admissionRetryDelay = 500 * time.Millisecond

// ParseQueuePosition extracts the admission queue position from a
// SubmitJobSetResponse; ok is false when the master ran no admission
// queue (the set started immediately).
func ParseQueuePosition(body *xmlutil.Element) (int, bool) {
	if body == nil || body.Name != qSubmitResp {
		return 0, false
	}
	n, err := strconv.Atoi(body.ChildText(qQueuePos))
	if err != nil || n < 1 {
		return 0, false
	}
	return n, true
}

// admitSubmit is handleSubmit's admission path: reserve a quota slot,
// journal the set as a Queued document (the durable Put is the enqueue
// record), park it, and ack with the queue position. The broker
// subscriptions the legacy path establishes here are deferred to
// activation, so an accepted Submit costs exactly one journaled write.
// The run exists only to render that document; activation builds the
// live one from it.
func (s *Service) admitSubmit(ctx context.Context, r *run) (*xmlutil.Element, error) {
	tenant := s.adm.TenantOf(r.creds.Username)
	res, err := s.adm.Reserve(tenant, r.spec.Class)
	if err != nil {
		var bf *wsrf.BaseFault
		if errors.As(err, &bf) {
			// QueueFullFault is backpressure, not breakage: Receiver code,
			// and the Retry-After cause rides in the fault detail.
			return nil, bf.SOAPFault(soap.CodeReceiver)
		}
		return nil, soap.SenderFault("%v", err)
	}

	doc := jobSetDocument(r)
	doc.SetAttr(qTenantAttr, tenant)
	doc.SetAttr(qClassAttr, admission.NormalizeClass(r.spec.Class))
	doc.SetAttr(qAdmitSeq, strconv.FormatUint(res.Seq, 10))
	setEPR, err := s.svc.CreateResource(r.id, doc)
	if err != nil {
		res.Abort()
		return nil, soap.ReceiverFault("scheduler: create job set resource: %v", err)
	}

	// Parked before Commit shows the entry to the pump: an activation that
	// draws it at once must find the credentials.
	e := admission.Entry{ID: r.id, Name: r.spec.Name, Topic: r.topic, Tenant: res.Tenant, Class: res.Class, Seq: res.Seq}
	s.sets.park(e, r.creds)
	e, pos := res.Commit(e)
	if e.Class == admission.ClassInteractive {
		// An interactive arrival may evict a running scavenger set to
		// free its tenant's quota slot; off the request path.
		go s.maybePreempt(context.WithoutCancel(ctx), tenant)
	}

	return xmlutil.NewContainer(qSubmitResp,
		setEPR.ElementNamed(qJobSetEPR),
		xmlutil.NewElement(qTopicOut, r.topic),
		xmlutil.NewElement(qQueuePos, strconv.Itoa(pos)),
	), nil
}

// StartAdmission launches the dequeue pump: a loop that draws entries
// from the admission queue in fair-share order and activates each in
// its own goroutine. Call it once, alongside Recover, after the
// consumer is mounted; it exits when ctx ends. A nil admission queue
// makes it a no-op.
func (s *Service) StartAdmission(ctx context.Context) {
	if s.adm == nil {
		return
	}
	go func() {
		for {
			e, err := s.adm.Next(ctx)
			if err != nil {
				return
			}
			go s.activate(context.WithoutCancel(ctx), e)
		}
	}()
}

// activate promotes one dequeued set into a live run: re-load the
// journaled document and take the set on. Its own: the tenant's running
// slot, charged by Next, which every path that does not produce a live
// run gives back — at once, or after re-queueing the entry.
// The set stays parked in the registry, credentials and all, until takeOn
// makes it live: a sweep that overlaps the activation leaves it alone.
func (s *Service) activate(ctx context.Context, e admission.Entry) {
	doc, err := s.svc.Home().Load(e.ID)
	if err != nil || doc.ChildText(QStatus) != SetQueued {
		// Destroyed, cancelled or already activated while parked.
		s.adm.Done(e.Tenant)
		return
	}
	// Persisted per-job progress is honored: a preempted set comes back
	// through the queue with completed jobs (and consumed retry budget)
	// already journaled, and must not redo that work. A set that cannot be
	// run is takeOn's to fail.
	r, _ := s.restoreRun(e.ID, doc, s.sets.get(e.ID).creds)
	r.tenant, r.entry, r.hasEntry = e.Tenant, e, true
	if live, err := s.takeOn(ctx, r, activated); err != nil {
		// Transient: the entry goes back into the queue after a pause, and
		// only then does the slot go back.
		time.AfterFunc(admissionRetryDelay, func() {
			s.adm.Requeue(e)
			s.adm.Done(e.Tenant)
		})
	} else if !live {
		s.releaseAdmission(r) // unless failing the set already has
	}
}

// park puts a set's entry into the admission queue — in admission-sequence
// order, so replay after a crash rebuilds the old queue — with the
// credentials activation will need (memory only). Idempotent against
// overlapping sweeps: false means the set is already parked or live here.
func (s *Service) park(e admission.Entry, creds wssec.Credentials) bool {
	if !s.sets.park(e, creds) {
		return false
	}
	s.adm.Requeue(e)
	return true
}

// unparkForCancel takes a still-parked set out of the admission queue
// and returns a run over the invocation's own document for the cancel
// transition to act on. nil means the set is not parked, or activation has
// drawn its entry already (and still needs the credentials parked with
// it); the caller falls back to the live-run path.
func (s *Service) unparkForCancel(inv *wsrf.Invocation) *run {
	h := s.sets.get(inv.ResourceID)
	if !h.parked() || !s.adm.Remove(h.entry.Tenant, h.entry.Seq) {
		return nil
	}
	s.letGo(inv.ResourceID)
	// Whatever restoreRun thinks of the snapshot, the run it returns is
	// good for cancelling.
	r, _ := s.restoreRun(inv.ResourceID, inv.Doc, h.creds)
	r.tenant = "" // a parked set holds no running slot to give back
	return r
}

// releaseAdmission frees the tenant's running slot exactly once, on
// whichever terminal transition (complete, fail, cancel, destroy, park)
// reaches the run first. No-op for runs that never went through
// admission.
func (s *Service) releaseAdmission(r *run) {
	if s.adm != nil && r.tenant != "" && !r.released.Swap(true) {
		s.adm.Done(r.tenant)
	}
}

// queuedEntry reads a parked document's admission coordinates back into
// an Entry — the recovery half of the journal.
func queuedEntry(id string, doc *xmlutil.Element) (admission.Entry, bool) {
	e := admission.Entry{
		ID:     id,
		Name:   doc.ChildText(QName),
		Topic:  doc.ChildText(QTopic),
		Tenant: doc.Attr(qTenantAttr),
		Class:  doc.Attr(qClassAttr),
	}
	seq, err := strconv.ParseUint(doc.Attr(qAdmitSeq), 10, 64)
	if err != nil || e.Topic == "" || e.Tenant == "" {
		return admission.Entry{}, false
	}
	e.Seq = seq
	return e, true
}

// AdmissionStats snapshots the admission queue; zero when the master
// runs none.
func (s *Service) AdmissionStats() (admission.QueueStats, bool) {
	if s.adm == nil {
		return admission.QueueStats{}, false
	}
	return s.adm.Stats(), true
}
