// Package warm runs units of work on goroutines whose stacks have
// already grown.
//
// A goroutine starts with a small stack and grows it, by copying, the
// first time a deep call needs more: the recursive SOAP decoder and
// encoder and the interceptor chains do, on every message. A goroutine
// started per message pays that growth every time. Go hands a unit to
// the worker that parked most recently, whose stack grew most recently,
// and starts a worker only when none is idle. Nothing is bounded, so
// nothing can wait for a worker: Go behaves as the go statement does,
// panics included, except that the goroutine may be an old one.
package warm

import (
	"sync"
	"time"
)

// idleWindow is how long a worker stays parked without work before it
// exits. It is a constant: long enough to span the gaps between a busy
// daemon's messages, short enough that an idle process holds no workers.
const idleWindow = time.Second

// worker is one parked-or-busy goroutine; work carries its next unit.
// The channel holds one unit, so Go never waits on a worker.
type worker struct {
	work chan func()
}

var (
	mu sync.Mutex
	// parked is a stack: the worker parked last is on top.
	parked []*worker
)

// Go runs f on a parked worker, or on a new goroutine when none is idle.
// It never blocks.
func Go(f func()) {
	mu.Lock()
	if n := len(parked); n > 0 {
		w := parked[n-1]
		parked[n-1] = nil
		parked = parked[:n-1]
		mu.Unlock()
		w.work <- f
		return
	}
	mu.Unlock()
	w := &worker{work: make(chan func(), 1)}
	go w.loop(f)
}

// loop runs f, then whatever it is handed while parked, until a whole
// idle window passes with nothing.
func (w *worker) loop(f func()) {
	idle := time.NewTimer(idleWindow)
	for {
		f()
		f = nil // the unit's closure is garbage while the worker waits
		mu.Lock()
		parked = append(parked, w)
		mu.Unlock()
		if !idle.Stop() {
			select { // a fire the last unit outlasted
			case <-idle.C:
			default:
			}
		}
		idle.Reset(idleWindow)
		select {
		case f = <-w.work:
		case <-idle.C:
			if !unpark(w) {
				// Go took this worker off the stack as the window ended:
				// its unit is on the way.
				f = <-w.work
				continue
			}
			return
		}
	}
}

// unpark removes w from the stack and reports whether it was there. A
// worker that times out has usually parked longest, at the bottom.
func unpark(w *worker) bool {
	mu.Lock()
	defer mu.Unlock()
	for i, p := range parked {
		if p == w {
			copy(parked[i:], parked[i+1:])
			parked[len(parked)-1] = nil
			parked = parked[:len(parked)-1]
			return true
		}
	}
	return false
}
