package procspawn

import (
	"sync"
	"time"
)

// Process is one simulated process — the live half of a "WS-Resource as
// process" (paper §3). The Execution Service holds these handles and
// exposes their state as resource properties.
type Process struct {
	PID        int64
	Owner      string
	WorkingDir string
	Executable string

	kill chan struct{}
	done chan struct{}

	mu       sync.Mutex
	state    ProcessState
	exitCode int
	cpuTime  time.Duration
	killOnce sync.Once
}

// State returns the current lifecycle state.
func (p *Process) State() ProcessState {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.state
}

// ExitCode returns the exit code and whether the process has finished —
// the ES method that lets clients "inquire about its exit code (if it
// has exited)" (paper §4.2).
func (p *Process) ExitCode() (int, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.state == StateRunning {
		return 0, false
	}
	return p.exitCode, true
}

// CPUTime returns the simulated CPU time consumed so far — the job's
// second resource property (paper §4.2).
func (p *Process) CPUTime() time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.cpuTime
}

func (p *Process) addCPUTime(d time.Duration) {
	p.mu.Lock()
	p.cpuTime += d
	p.mu.Unlock()
}

// Kill requests termination. Safe to call multiple times and after
// exit.
func (p *Process) Kill() {
	p.killOnce.Do(func() { close(p.kill) })
}

func (p *Process) killRequested() bool {
	select {
	case <-p.kill:
		return true
	default:
		return false
	}
}
