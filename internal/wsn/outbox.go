package wsn

import (
	"context"
	"sync"
	"time"

	"uvacg/internal/wsa"
)

// maxBatch bounds the messages of one Notify: about 45 KB of job events,
// far inside soap.MaxEnvelopeBytes, however long a destination was busy.
const maxBatch = 64

// Delivery is one notification bound for one consumer. Done, when set, is
// called once with the outcome of the exchange that carried it.
type Delivery struct {
	To   wsa.EndpointReference
	N    Notification
	Done func(error)
}

// Outbox is the sending side of notification delivery: per destination a
// FIFO queue and at most one Notify on the wire. A delivery for an idle
// destination leaves at once; what queues while an exchange is in flight
// leaves after it as one Notify carrying every pending message
// (WS-BaseNotification allows 1..n). So messages reach the wire in the
// order queued, a burst costs an exchange per round trip, not per message,
// and a slow destination delays only itself. No timer, nothing to tune; an
// idle destination holds no goroutine and no memory.
type Outbox struct {
	send func(ctx context.Context, to wsa.EndpointReference, batch []Notification) error

	mu sync.Mutex
	// queues holds a destination (by canonical EPR) exactly while a
	// goroutine is sending for it; an empty queue there means "in flight".
	queues map[string][]queued
}

type queued struct {
	ctx context.Context
	Delivery
}

// NewOutbox builds an outbox that hands each batch to send.
func NewOutbox(send func(ctx context.Context, to wsa.EndpointReference, batch []Notification) error) *Outbox {
	return &Outbox{send: send, queues: make(map[string][]queued)}
}

// Enqueue queues deliveries in the order given and returns without waiting
// for any. What one call queues for an idle destination leaves together,
// as one Notify. A batch travels under the values of its first message's
// ctx (its request ID: an envelope has one), detached from its
// cancellation: the request that caused an event does not outlive it, the
// event must.
func (o *Outbox) Enqueue(ctx context.Context, deliveries ...Delivery) {
	var idle []wsa.EndpointReference
	o.mu.Lock()
	for _, d := range deliveries {
		key := d.To.String()
		q, busy := o.queues[key]
		if !busy {
			idle = append(idle, d.To)
		}
		o.queues[key] = append(q, queued{ctx, d})
	}
	o.mu.Unlock()
	for _, to := range idle {
		go o.drain(to)
	}
}

// drain sends to's queue, a batch per exchange, until it is empty.
func (o *Outbox) drain(to wsa.EndpointReference) {
	key := to.String()
	for {
		o.mu.Lock()
		q := o.queues[key]
		if len(q) == 0 {
			delete(o.queues, key)
			o.mu.Unlock()
			return
		}
		batch := q[:min(len(q), maxBatch)]
		o.queues[key] = q[len(batch):]
		o.mu.Unlock()

		ns := make([]Notification, len(batch))
		for i, m := range batch {
			ns[i] = m.N
		}
		err := o.send(context.WithoutCancel(batch[0].ctx), to, ns)
		for _, m := range batch {
			if m.Done != nil {
				m.Done(err)
			}
		}
	}
}

// Drain waits until every queue is empty — nothing queued, nothing on the
// wire — or ctx ends. It polls: only a shutdown waits here.
func (o *Outbox) Drain(ctx context.Context) error {
	for {
		o.mu.Lock()
		busy := len(o.queues)
		o.mu.Unlock()
		if busy == 0 {
			return nil
		}
		select {
		case <-time.After(time.Millisecond):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}
