package procspawn

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"uvacg/internal/vfs"
	"uvacg/internal/warm"
	"uvacg/internal/wssec"
)

// ProcessState is a simulated process's lifecycle state.
type ProcessState string

// Process states. A job's Status resource property reports these
// (paper §4.2: "running, exited, etc.").
const (
	StateRunning ProcessState = "Running"
	StateExited  ProcessState = "Exited"
	StateKilled  ProcessState = "Killed"
)

// Exit codes the runtime itself produces.
const (
	// ExitKilled is reported when the process was killed.
	ExitKilled = 137
	// ExitMissingInput is reported when a read names an absent file.
	ExitMissingInput = 2
)

// Config describes the simulated machine the spawner runs on.
type Config struct {
	// Accounts, when non-nil, verifies the username/password each spawn
	// request must carry (paper §4.2).
	Accounts wssec.StaticAccounts
	// FS is the machine's grid file system; working directories live in
	// it.
	FS *vfs.FS
	// Cores is the processor count (drives utilization).
	Cores int
	// SpeedMHz is the simulated clock speed; compute ops finish
	// proportionally faster on faster machines.
	SpeedMHz float64
	// UnitTime is the wall duration of one compute unit at 1000 MHz.
	// Defaults to 50µs: large enough to model heterogeneity, small
	// enough for fast tests.
	UnitTime time.Duration
}

// Spawner launches and tracks simulated processes — the ProcSpawn
// Windows service.
type Spawner struct {
	cfg     Config
	nextPID int64
	// running counts processes in StateRunning; it moves where a
	// Process's state moves, so RunningCount never scans procs.
	running atomic.Int64
	// reserved counts slots claimed by Reserve and not yet released.
	reserved atomic.Int64

	mu    sync.RWMutex
	procs map[int64]*Process
}

// NewSpawner validates cfg and builds a spawner.
func NewSpawner(cfg Config) (*Spawner, error) {
	if cfg.FS == nil {
		return nil, fmt.Errorf("procspawn: config needs a file system")
	}
	if cfg.Cores <= 0 {
		return nil, fmt.Errorf("procspawn: cores must be positive, got %d", cfg.Cores)
	}
	if cfg.SpeedMHz <= 0 {
		return nil, fmt.Errorf("procspawn: speed must be positive, got %v", cfg.SpeedMHz)
	}
	if cfg.UnitTime == 0 {
		cfg.UnitTime = 50 * time.Microsecond
	}
	return &Spawner{cfg: cfg, procs: make(map[int64]*Process)}, nil
}

// Cores reports the configured core count.
func (s *Spawner) Cores() int { return s.cfg.Cores }

// SpawnSpec is one launch request from the Execution Service.
type SpawnSpec struct {
	// Executable is the script file's name inside WorkingDir.
	Executable string
	// WorkingDir is the job directory the FSS created.
	WorkingDir string
	// Username/Password select the account the process runs as; they
	// must verify against the spawner's account table.
	Username string
	Password string
	// OnExit, when set, is called exactly once from the process
	// goroutine when the process leaves the Running state — the
	// "notification message to the ES with the job's exit code"
	// (paper §4.2).
	OnExit func(p *Process)
}

// Spawn verifies credentials, parses the executable and starts the
// process.
func (s *Spawner) Spawn(spec SpawnSpec) (*Process, error) {
	if s.cfg.Accounts != nil {
		expected, ok := s.cfg.Accounts[spec.Username]
		if !ok {
			return nil, fmt.Errorf("procspawn: unknown account %q", spec.Username)
		}
		if expected != spec.Password {
			return nil, fmt.Errorf("procspawn: access denied for %q", spec.Username)
		}
	}
	content, err := s.cfg.FS.Read(spec.WorkingDir, spec.Executable)
	if err != nil {
		return nil, fmt.Errorf("procspawn: executable: %w", err)
	}
	script, err := ParseScript(content)
	if err != nil {
		return nil, err
	}
	// The process outlives the Run message its spec was read from: it
	// keeps copies.
	p := &Process{
		PID:        atomic.AddInt64(&s.nextPID, 1),
		Owner:      strings.Clone(spec.Username),
		WorkingDir: strings.Clone(spec.WorkingDir),
		Executable: strings.Clone(spec.Executable),
		state:      StateRunning,
		kill:       make(chan struct{}),
		done:       make(chan struct{}),
	}
	s.mu.Lock()
	s.procs[p.PID] = p
	s.running.Add(1)
	s.mu.Unlock()

	warm.Go(func() { s.run(p, script, spec.OnExit) })
	return p, nil
}

// run interprets the script; it is the simulated process body.
func (s *Spawner) run(p *Process, script *Script, onExit func(*Process)) {
	defer func() {
		close(p.done)
		if onExit != nil {
			onExit(p)
		}
	}()
	exitCode := 0
loop:
	for _, o := range script.ops {
		if p.killRequested() {
			break
		}
		switch o.kind {
		case opRead:
			if !s.cfg.FS.Exists(p.WorkingDir, o.arg1) {
				exitCode = ExitMissingInput
				break loop
			}
		case opCompute:
			if !s.compute(p, o.n) {
				break loop // killed mid-compute
			}
		case opTransform:
			data, err := s.cfg.FS.Read(p.WorkingDir, o.arg1)
			if err != nil {
				exitCode = ExitMissingInput
				break loop
			}
			out := transforms[o.arg3](data)
			if err := s.cfg.FS.Write(p.WorkingDir, o.arg2, out); err != nil {
				exitCode = 1
				break loop
			}
		case opWrite:
			if err := s.cfg.FS.Write(p.WorkingDir, o.arg1, []byte(o.arg2)); err != nil {
				exitCode = 1
				break loop
			}
		case opAppend:
			src, err := s.cfg.FS.Read(p.WorkingDir, o.arg2)
			if err != nil {
				exitCode = ExitMissingInput
				break loop
			}
			existing, err := s.cfg.FS.Read(p.WorkingDir, o.arg1)
			if err != nil {
				existing = nil
			}
			// A fresh slice: existing is the stored file, which other
			// directories may share, and appending in place would write
			// into its array's spare capacity.
			if err := s.cfg.FS.Write(p.WorkingDir, o.arg1, slices.Concat(existing, src)); err != nil {
				exitCode = 1
				break loop
			}
		case opExit:
			exitCode = int(o.n)
			break loop
		}
	}
	p.mu.Lock()
	if p.killRequested() {
		p.state = StateKilled
		p.exitCode = ExitKilled
	} else {
		p.state = StateExited
		p.exitCode = exitCode
	}
	s.running.Add(-1)
	p.mu.Unlock()
}

// compute burns simulated CPU in small slices so Kill stays responsive
// and core contention is modelled: when more processes run than the
// machine has cores, each advances proportionally slower (time-sliced
// scheduling), which is what makes the Scheduler's placement decisions
// matter. It reports false when interrupted by a kill.
func (s *Spawner) compute(p *Process, units int64) bool {
	// One unit takes UnitTime at 1000 MHz with a core to itself;
	// faster clocks shrink it.
	perUnit := time.Duration(float64(s.cfg.UnitTime) * 1000.0 / s.cfg.SpeedMHz)
	remaining := time.Duration(units) * perUnit
	const slice = 2 * time.Millisecond
	for remaining > 0 {
		slowdown := 1.0
		if r := s.RunningCount(); r > s.cfg.Cores {
			slowdown = float64(r) / float64(s.cfg.Cores)
		}
		step := slice
		progress := time.Duration(float64(step) / slowdown)
		if progress >= remaining {
			progress = remaining
			step = time.Duration(float64(remaining) * slowdown)
		}
		select {
		case <-p.kill:
			return false
		case <-time.After(step):
		}
		p.addCPUTime(progress)
		remaining -= progress
	}
	return true
}

// Reserve claims a processor slot before the process exists — the
// Execution Service holds one per job from the Run request until the
// staged process actually spawns, so the machine's next utilization
// sample counts the job while it stages. The returned release function
// is idempotent.
func (s *Spawner) Reserve() (release func()) {
	s.reserved.Add(1)
	var once sync.Once
	return func() { once.Do(func() { s.reserved.Add(-1) }) }
}

// Load reports running processes plus reserved slots — the quantity
// utilization is computed from.
func (s *Spawner) Load() int { return s.RunningCount() + int(s.reserved.Load()) }

// RunningCount reports how many processes are currently running.
func (s *Spawner) RunningCount() int { return int(s.running.Load()) }

// Reap removes a finished process's record, reporting success.
func (s *Spawner) Reap(pid int64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.procs[pid]
	if !ok || p.State() == StateRunning {
		return false
	}
	delete(s.procs, pid)
	return true
}
