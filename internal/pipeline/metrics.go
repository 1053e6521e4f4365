package pipeline

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	"uvacg/internal/soap"
)

// bucketBounds are the upper edges of the latency histogram, chosen to
// bracket the testbed's observed range: in-process property reads land
// around a few hundred microseconds, HTTP hops in the milliseconds,
// file movement in the seconds.
var bucketBounds = []time.Duration{
	100 * time.Microsecond,
	300 * time.Microsecond,
	time.Millisecond,
	3 * time.Millisecond,
	10 * time.Millisecond,
	30 * time.Millisecond,
	100 * time.Millisecond,
	300 * time.Millisecond,
	time.Second,
	3 * time.Second,
	10 * time.Second,
}

// NumBuckets is the histogram size: len(bucketBounds) edges plus the
// overflow bucket.
const NumBuckets = 12

// Key identifies one instrumented operation.
type Key struct {
	Path   string // service path, e.g. "/Scheduler"
	Action string // WS-Addressing action URI
}

// Stats is the accumulated record for one (path, action).
type Stats struct {
	Calls   uint64 // completed attempts, faults included
	Faults  uint64 // attempts that returned an error
	Total   time.Duration
	Min     time.Duration
	Max     time.Duration
	Buckets [NumBuckets]uint64
}

// Mean returns the average latency, zero when no calls completed.
func (s Stats) Mean() time.Duration {
	if s.Calls == 0 {
		return 0
	}
	return s.Total / time.Duration(s.Calls)
}

// Metrics accumulates per-action call statistics. One instance can be
// shared by any number of interceptor installations (client and server
// sides both); all methods are safe for concurrent use.
type Metrics struct {
	mu    sync.Mutex
	stats map[Key]*Stats
}

// NewMetrics creates an empty accumulator.
func NewMetrics() *Metrics { return &Metrics{stats: make(map[Key]*Stats)} }

// Interceptor returns an interceptor recording every call that passes
// through it. Installed innermost on a client chain it counts each wire
// attempt (retries included); outermost, each logical call.
func (m *Metrics) Interceptor() soap.Interceptor {
	return func(ctx context.Context, call *soap.CallInfo, next soap.Handler) (*soap.Envelope, error) {
		start := time.Now()
		resp, err := next(ctx, call)
		m.Record(Key{Path: call.Path, Action: call.Action}, time.Since(start), err != nil)
		return resp, err
	}
}

// Record adds one observation. Exposed for harnesses that measure
// outside an interceptor chain.
func (m *Metrics) Record(k Key, d time.Duration, fault bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.stats[k]
	if !ok {
		// The table outlives the call: its key is a copy, not a view of
		// the message the path and action were read from.
		s = &Stats{Min: d}
		m.stats[Key{Path: strings.Clone(k.Path), Action: strings.Clone(k.Action)}] = s
	}
	s.Calls++
	if fault {
		s.Faults++
	}
	s.Total += d
	if d < s.Min {
		s.Min = d
	}
	if d > s.Max {
		s.Max = d
	}
	b := sort.Search(len(bucketBounds), func(i int) bool { return d <= bucketBounds[i] })
	s.Buckets[b]++
}

// Snapshot returns a copy of the accumulated statistics.
func (m *Metrics) Snapshot() map[Key]Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[Key]Stats, len(m.stats))
	for k, s := range m.stats {
		out[k] = *s
	}
	return out
}

// Dump writes a human-readable table of the statistics, sorted by path
// then action, histograms included for rows with calls.
func (m *Metrics) Dump(w io.Writer) {
	snap := m.Snapshot()
	keys := make([]Key, 0, len(snap))
	for k := range snap {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Path != keys[j].Path {
			return keys[i].Path < keys[j].Path
		}
		return keys[i].Action < keys[j].Action
	})
	if len(keys) == 0 {
		fmt.Fprintln(w, "pipeline: no calls recorded")
		return
	}
	for _, k := range keys {
		s := snap[k]
		fmt.Fprintf(w, "%s %s\n", k.Path, k.Action)
		fmt.Fprintf(w, "  calls=%d faults=%d min=%s mean=%s max=%s\n",
			s.Calls, s.Faults, s.Min, s.Mean(), s.Max)
		for i, n := range s.Buckets {
			if n == 0 {
				continue
			}
			if i < len(bucketBounds) {
				fmt.Fprintf(w, "  <=%-8s %d\n", bucketBounds[i], n)
			} else {
				fmt.Fprintf(w, "  >%-9s %d\n", bucketBounds[len(bucketBounds)-1], n)
			}
		}
	}
}
