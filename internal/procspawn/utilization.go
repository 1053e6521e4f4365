package procspawn

import (
	"sync"
	"time"
)

// UtilizationMonitor is the Processor Utilization Windows service: it
// samples the machine's processor utilization and calls its notify
// function "whenever the utilization of the machine's processors
// changes by more than a configurable amount" (paper §4.4). The Node
// Info Service is the usual recipient. Its ticker is the only thing that
// samples: no spawn, reservation or exit waits for a sample or for the
// report one may send, and one goroutine sampling means at most one
// report in flight, carrying the latest value.
type UtilizationMonitor struct {
	spawner   *Spawner
	threshold float64
	interval  time.Duration
	// background models load from outside the grid (the machine's owner
	// using it); nil means idle.
	background func() float64
	notify     func(utilization float64)

	mu           sync.Mutex
	lastReported float64
	reported     bool
	samples      int
	notifies     int
	stop         chan struct{}
	stopped      chan struct{}
}

// MonitorConfig configures a UtilizationMonitor.
type MonitorConfig struct {
	// Threshold is the minimum utilization delta (0..1) that triggers a
	// notification. The paper calls this "a configurable amount".
	Threshold float64
	// Interval is the sampling period for the background loop.
	Interval time.Duration
	// Background, when set, supplies non-grid load (0..1).
	Background func() float64
	// Notify receives threshold-crossing utilization values.
	Notify func(utilization float64)
}

// NewUtilizationMonitor builds a monitor over a spawner.
func NewUtilizationMonitor(s *Spawner, cfg MonitorConfig) *UtilizationMonitor {
	if cfg.Interval == 0 {
		cfg.Interval = 50 * time.Millisecond
	}
	return &UtilizationMonitor{
		spawner:    s,
		threshold:  cfg.Threshold,
		interval:   cfg.Interval,
		background: cfg.Background,
		notify:     cfg.Notify,
	}
}

// Utilization computes the machine's current processor utilization:
// grid load (running processes plus reserved slots) spread over the
// cores, plus background load, clamped to [0, 1].
func (m *UtilizationMonitor) Utilization() float64 {
	util, _ := m.Reading()
	return util
}

// Reading is one sample: Utilization and the grid load it was computed
// from. A reader that knows both can tell this grid's own jobs from load
// the grid did not cause.
func (m *UtilizationMonitor) Reading() (utilization float64, gridLoad int) {
	gridLoad = m.spawner.Load()
	util := float64(gridLoad) / float64(m.spawner.Cores())
	if m.background != nil {
		util += m.background()
	}
	return min(max(util, 0), 1), gridLoad
}

// Sample takes one sample, notifying if the delta from the last
// *reported* value meets the threshold. The first sample always
// notifies (the NIS needs an initial value). It reports whether a
// notification fired.
func (m *UtilizationMonitor) Sample() bool {
	util := m.Utilization()
	m.mu.Lock()
	m.samples++
	shouldNotify := !m.reported || abs(util-m.lastReported) >= m.threshold
	if shouldNotify {
		m.lastReported = util
		m.reported = true
		m.notifies++
	}
	notify := m.notify
	m.mu.Unlock()
	if shouldNotify && notify != nil {
		notify(util)
	}
	return shouldNotify
}

func abs(f float64) float64 {
	if f < 0 {
		return -f
	}
	return f
}

// Stats reports samples taken and notifications sent — the data behind
// experiment E8 (notification volume vs threshold).
func (m *UtilizationMonitor) Stats() (samples, notifies int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.samples, m.notifies
}

// Start launches the periodic sampling loop.
func (m *UtilizationMonitor) Start() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.stop != nil {
		return
	}
	m.stop = make(chan struct{})
	m.stopped = make(chan struct{})
	go func(stop, stopped chan struct{}) {
		defer close(stopped)
		ticker := time.NewTicker(m.interval)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
				m.Sample()
			}
		}
	}(m.stop, m.stopped)
}

// Stop halts the sampling loop.
func (m *UtilizationMonitor) Stop() {
	m.mu.Lock()
	stop, stopped := m.stop, m.stopped
	m.stop, m.stopped = nil, nil
	m.mu.Unlock()
	if stop != nil {
		close(stop)
		<-stopped
	}
}
