package wsn

import (
	"context"
	"sync"

	"uvacg/internal/soap"
)

// Consumer is the light-weight notification receiver clients run
// (paper §4.6): a NotificationConsumer endpoint that filters incoming
// notifications through topic expressions and calls the registered
// functions — "notification consumers (sinks) register interest in
// various notification types (the topics) and provide functions to be
// called when those notifications are received" (paper §5).
type Consumer struct {
	dispatcher *soap.Dispatcher

	mu       sync.RWMutex
	handlers []consumerHandler
}

type consumerHandler struct {
	te *TopicExpression
	fn func(context.Context, Notification)
}

// NewConsumer builds a consumer endpoint.
func NewConsumer() *Consumer {
	c := &Consumer{dispatcher: soap.NewDispatcher()}
	c.dispatcher.Register(ActionNotify, c.handleNotify)
	return c
}

// Mount registers the consumer on a mux at path.
func (c *Consumer) Mount(mux *soap.Mux, path string) { mux.Handle(path, c.dispatcher) }

// Handle registers fn for notifications matching te. Registration order
// is preserved; every matching handler fires. The context is the
// delivery's request context, values included (so a propagated request
// ID survives into whatever work the handler kicks off).
func (c *Consumer) Handle(te *TopicExpression, fn func(context.Context, Notification)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.handlers = append(c.handlers, consumerHandler{te: te, fn: fn})
}

// Channel registers a buffered channel for notifications matching te and
// returns it. Notifications overflowing the buffer are dropped rather
// than blocking delivery (the consumer is on the one-way path).
func (c *Consumer) Channel(te *TopicExpression, buffer int) <-chan Notification {
	ch := make(chan Notification, buffer)
	c.Handle(te, func(_ context.Context, n Notification) {
		select {
		case ch <- n:
		default:
		}
	})
	return ch
}

func (c *Consumer) handleNotify(ctx context.Context, req *soap.Envelope) (*soap.Envelope, error) {
	notifications, err := ParseNotifyBody(req.Body)
	if err != nil {
		return nil, soap.SenderFault("%v", err)
	}
	c.mu.RLock()
	handlers := make([]consumerHandler, len(c.handlers))
	copy(handlers, c.handlers)
	c.mu.RUnlock()
	for _, n := range notifications {
		for _, h := range handlers {
			if h.te.Matches(n.Topic) {
				h.fn(ctx, n)
			}
		}
	}
	return nil, nil
}
