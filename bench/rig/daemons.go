// Package rig runs the benchmark's real-daemon side: it launches a fresh
// gridmaster and gridnodes, drives them from one load-generator process
// speaking gridsub's wire, verifies every fetched output and reduces a
// run to named metrics. The daemons are measured as shipped; everything
// here observes them from outside (sockets, /proc, their -metrics dump).
package rig

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"time"

	"uvacg/internal/services/nodeinfo"
	"uvacg/internal/transport"
	"uvacg/internal/wsa"
)

// NodeCount and NodeCores fix the grid every workload runs on: one
// master and two 2-core nodes, which saturates the 2-core box the
// bounds were set on without oversubscribing the simulated cores.
const (
	NodeCount = 2
	NodeCores = 2
)

// GridOptions selects how the daemons are started. The zero value is
// the in-memory, untraced grid of bag16.
type GridOptions struct {
	// BinDir holds the gridmaster and gridnode binaries built from this
	// checkout.
	BinDir string
	// WorkDir receives one scratch directory per grid (logs, data
	// directories); Kill removes it.
	WorkDir string
	// Durable starts every daemon on -data-dir with -fsync=false: the
	// journal is written and replay-able, but no commit waits for the
	// disk, whose sync latency on a shared VM swings several-fold for
	// minutes at a time (the ledger's wal.commit_fsync_us has that number).
	Durable bool
	// Traced adds -metrics, and -compact-bytes -1 on durable grids so
	// the WAL on disk at the end of the run is every byte journaled.
	Traced bool
}

// Daemon is one launched process.
type Daemon struct {
	Name    string
	Role    string // "gridmaster" or "gridnode"
	Addr    string // host:port it listens on
	DataDir string
	LogPath string

	cmd    *exec.Cmd
	exited chan struct{} // closed once Wait has returned
}

// Pid is the daemon's process ID.
func (d *Daemon) Pid() int { return d.cmd.Process.Pid }

// Exited reports whether the process has ended.
func (d *Daemon) Exited() bool {
	select {
	case <-d.exited:
		return true
	default:
		return false
	}
}

// Grid is a running master with its nodes.
type Grid struct {
	Master    *Daemon
	Nodes     []*Daemon
	MasterURL string

	dir     string
	stopped bool
}

// Daemons lists the master first, then the nodes.
func (g *Grid) Daemons() []*Daemon { return append([]*Daemon{g.Master}, g.Nodes...) }

// StartGrid launches a fresh gridmaster and NodeCount gridnodes on free
// loopback ports and returns once the master's Node Info Service lists
// every node. On any failure everything already started is killed and
// the scratch directory removed.
func StartGrid(ctx context.Context, opts GridOptions) (g *Grid, err error) {
	if err := os.MkdirAll(opts.WorkDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(opts.WorkDir, "grid-")
	if err != nil {
		return nil, err
	}
	g = &Grid{dir: dir}
	defer func() {
		if err != nil {
			g.Kill()
		}
	}()

	masterAddr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	g.MasterURL = "http://" + masterAddr
	g.Master, err = g.launch(opts, "gridmaster", "master", masterAddr)
	if err != nil {
		return nil, err
	}
	client := transport.NewClient()
	defer client.CloseIdleConnections()
	nis := wsa.NewEPR(g.MasterURL + "/NodeInfoService")
	// A node started before the master listens exits 1, so wait for the
	// NIS to answer before launching any.
	if err := g.pollNIS(ctx, client, nis, 0); err != nil {
		return nil, err
	}
	for i := 0; i < NodeCount; i++ {
		addr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		// The pid in the name keeps a stray node of another run from
		// satisfying this run's readiness poll.
		name := fmt.Sprintf("bn%d-%d", os.Getpid(), i+1)
		n, err := g.launch(opts, "gridnode", name, addr, "-name", name, "-master", g.MasterURL, "-cores", strconv.Itoa(NodeCores))
		if err != nil {
			return nil, err
		}
		g.Nodes = append(g.Nodes, n)
	}
	if err := g.pollNIS(ctx, client, nis, NodeCount); err != nil {
		return nil, err
	}
	return g, nil
}

// freeAddr asks the kernel for an unused loopback port. The port is
// released before the daemon binds it; if anything takes it in between,
// the daemon's bind fails, it exits, and pollNIS reports that instead of
// measuring someone else's listener.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

func (g *Grid) launch(opts GridOptions, role, name, addr string, extra ...string) (*Daemon, error) {
	d := &Daemon{Name: name, Role: role, Addr: addr, LogPath: filepath.Join(g.dir, name+".log"), exited: make(chan struct{})}
	args := append([]string{"-addr", addr, "-host", "127.0.0.1"}, extra...)
	if opts.Durable {
		d.DataDir = filepath.Join(g.dir, name+"-data")
		args = append(args, "-data-dir", d.DataDir, "-fsync=false")
		if opts.Traced {
			args = append(args, "-compact-bytes", "-1")
		}
	}
	if opts.Traced {
		args = append(args, "-metrics")
	}
	logFile, err := os.Create(d.LogPath)
	if err != nil {
		return nil, err
	}
	defer logFile.Close()
	d.cmd = exec.Command(filepath.Join(opts.BinDir, role), args...)
	d.cmd.Stdout = logFile
	d.cmd.Stderr = logFile
	// Own process group: a terminal's Ctrl-C reaches gridbench alone,
	// which then stops the daemons itself, in order. Pdeathsig covers the
	// one exit path no handler runs on: gridbench itself being SIGKILLed.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", role, err)
	}
	go func() {
		_ = d.cmd.Wait() // the exit status of a killed daemon carries nothing
		close(d.exited)
	}()
	return d, nil
}

// pollNIS polls the master's processor catalog until it lists want of
// this grid's nodes (want 0: until it answers at all). It fails as soon
// as any launched daemon has exited.
func (g *Grid) pollNIS(ctx context.Context, client *transport.Client, nis wsa.EndpointReference, want int) error {
	ctx, cancel := context.WithTimeout(ctx, 20*time.Second)
	defer cancel()
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	var lastErr error
	for {
		for _, d := range g.Daemons() {
			if d != nil && d.Exited() {
				return fmt.Errorf("%s %s exited during start-up (is %s taken?): %s", d.Role, d.Name, d.Addr, tailOf(d.LogPath))
			}
		}
		procs, err := nodeinfo.GetProcessorsVia(ctx, client, nis)
		if err == nil {
			listed := 0
			for _, p := range procs {
				for _, n := range g.Nodes {
					if p.Host == n.Name {
						listed++
					}
				}
			}
			if listed >= want {
				return nil
			}
		}
		lastErr = err
		select {
		case <-ctx.Done():
			return fmt.Errorf("grid not ready (%d node(s) wanted): %v (last poll: %v)", want, ctx.Err(), lastErr)
		case <-tick.C:
		}
	}
}

func tailOf(path string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return err.Error()
	}
	if len(data) > 400 {
		data = data[len(data)-400:]
	}
	return string(data)
}

// Kill stops every daemon with SIGKILL, waits for each to end and
// removes the scratch directory. It is safe to call more than once and
// after Shutdown.
func (g *Grid) Kill() {
	if g.stopped {
		return
	}
	g.stopped = true
	for _, d := range g.Daemons() {
		if d != nil {
			_ = d.cmd.Process.Kill() // already-exited is fine
		}
	}
	for _, d := range g.Daemons() {
		if d != nil {
			<-d.exited
		}
	}
	_ = os.RemoveAll(g.dir)
}

// Shutdown stops every daemon with SIGINT and waits for each to exit —
// gridnode prints its -metrics dump only after its HTTP drain — then
// returns each daemon's log before removing the scratch directory. A
// daemon that outlives the grace period is killed and reported.
func (g *Grid) Shutdown(grace time.Duration) (logs map[string][]byte, err error) {
	if g.stopped {
		return nil, errors.New("rig: grid already stopped")
	}
	for _, d := range g.Daemons() {
		_ = d.cmd.Process.Signal(os.Interrupt) // already-exited shows up below
	}
	defer g.Kill()
	deadline := time.After(grace)
	for _, d := range g.Daemons() {
		select {
		case <-d.exited:
		case <-deadline:
			return nil, fmt.Errorf("%s %s did not exit within %v of SIGINT", d.Role, d.Name, grace)
		}
	}
	logs = make(map[string][]byte)
	for _, d := range g.Daemons() {
		if logs[d.Name], err = os.ReadFile(d.LogPath); err != nil {
			return nil, err
		}
	}
	return logs, nil
}

// DirBytes sums the sizes of the regular files under dir.
func DirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, e os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.Type().IsRegular() {
			info, err := e.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}
