package procspawn

import (
	"context"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"uvacg/internal/vfs"
	"uvacg/internal/wssec"
)

func newTestSpawner(t *testing.T) (*Spawner, *vfs.FS, string) {
	t.Helper()
	fs := vfs.New()
	dir, err := fs.MkdirUnique("/grid", "job")
	if err != nil {
		t.Fatal(err)
	}
	sp, err := NewSpawner(Config{
		Accounts: wssec.StaticAccounts{"labuser": "pw"},
		FS:       fs,
		Cores:    2,
		SpeedMHz: 2000,
		UnitTime: 10 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sp, fs, dir
}

func stage(t *testing.T, fs *vfs.FS, dir, name string, content []byte) {
	t.Helper()
	if err := fs.Write(dir, name, content); err != nil {
		t.Fatal(err)
	}
}

func spawnAndWait(t *testing.T, sp *Spawner, spec SpawnSpec) *Process {
	t.Helper()
	p, err := sp.Spawn(spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := p.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestParseScriptValidation(t *testing.T) {
	good := BuildScript("read in.dat", "compute 100", "transform in.dat out.dat upper", "write log.txt done ok", "append all.txt out.dat", "exit 0")
	s, err := ParseScript(good)
	if err != nil {
		t.Fatal(err)
	}
	if s.Ops() != 6 {
		t.Fatalf("ops = %d", s.Ops())
	}
	if s.ComputeUnits() != 100 {
		t.Fatalf("units = %d", s.ComputeUnits())
	}

	bad := [][]byte{
		[]byte("echo hi"),                       // no shebang
		[]byte(""),                              // empty
		BuildScript("read"),                     // arity
		BuildScript("compute many"),             // bad int
		BuildScript("compute -1"),               // negative
		BuildScript("transform a b frobnicate"), // unknown transform
		BuildScript("exit abc"),                 // bad code
		BuildScript("launch missiles"),          // unknown op
	}
	for i, b := range bad {
		if _, err := ParseScript(b); err == nil {
			t.Errorf("bad script %d accepted", i)
		}
	}
}

func TestBuildScriptCommentsIgnored(t *testing.T) {
	s, err := ParseScript(BuildScript("# a comment", "exit 3"))
	if err != nil {
		t.Fatal(err)
	}
	if s.Ops() != 1 {
		t.Fatalf("ops = %d", s.Ops())
	}
}

func TestTransformNames(t *testing.T) {
	names := TransformNames()
	if len(names) < 5 {
		t.Fatalf("only %d transforms", len(names))
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatal("names not sorted")
		}
	}
}

func TestSpawnRunsToCompletion(t *testing.T) {
	sp, fs, dir := newTestSpawner(t)
	stage(t, fs, dir, "in.dat", []byte("hello grid"))
	stage(t, fs, dir, "app", BuildScript(
		"read in.dat",
		"compute 50",
		"transform in.dat out.dat upper",
		"exit 0",
	))
	p := spawnAndWait(t, sp, SpawnSpec{Executable: "app", WorkingDir: dir, Username: "labuser", Password: "pw"})
	if p.State() != StateExited {
		t.Fatalf("state = %s", p.State())
	}
	code, done := p.ExitCode()
	if !done || code != 0 {
		t.Fatalf("exit = %d %v", code, done)
	}
	out, err := fs.Read(dir, "out.dat")
	if err != nil || string(out) != "HELLO GRID" {
		t.Fatalf("output: %q %v", out, err)
	}
	if p.CPUTime() <= 0 {
		t.Error("no CPU time accrued")
	}
	if p.Owner != "labuser" {
		t.Errorf("owner = %q", p.Owner)
	}
}

func TestSpawnCredentialChecks(t *testing.T) {
	sp, fs, dir := newTestSpawner(t)
	stage(t, fs, dir, "app", BuildScript("exit 0"))
	if _, err := sp.Spawn(SpawnSpec{Executable: "app", WorkingDir: dir, Username: "ghost", Password: "x"}); err == nil {
		t.Fatal("unknown account accepted")
	}
	if _, err := sp.Spawn(SpawnSpec{Executable: "app", WorkingDir: dir, Username: "labuser", Password: "wrong"}); err == nil {
		t.Fatal("wrong password accepted")
	}
}

func TestSpawnRejectsNonScript(t *testing.T) {
	sp, fs, dir := newTestSpawner(t)
	stage(t, fs, dir, "app.exe", []byte{0x4d, 0x5a, 0x90})
	if _, err := sp.Spawn(SpawnSpec{Executable: "app.exe", WorkingDir: dir, Username: "labuser", Password: "pw"}); err == nil {
		t.Fatal("binary garbage accepted as script")
	}
	if _, err := sp.Spawn(SpawnSpec{Executable: "missing", WorkingDir: dir, Username: "labuser", Password: "pw"}); err == nil {
		t.Fatal("missing executable accepted")
	}
}

func TestMissingInputExitCode(t *testing.T) {
	sp, fs, dir := newTestSpawner(t)
	stage(t, fs, dir, "app", BuildScript("read absent.dat", "exit 0"))
	p := spawnAndWait(t, sp, SpawnSpec{Executable: "app", WorkingDir: dir, Username: "labuser", Password: "pw"})
	code, _ := p.ExitCode()
	if code != ExitMissingInput {
		t.Fatalf("exit = %d, want %d", code, ExitMissingInput)
	}
}

func TestNonZeroExit(t *testing.T) {
	sp, fs, dir := newTestSpawner(t)
	stage(t, fs, dir, "app", BuildScript("exit 42"))
	p := spawnAndWait(t, sp, SpawnSpec{Executable: "app", WorkingDir: dir, Username: "labuser", Password: "pw"})
	if code, _ := p.ExitCode(); code != 42 {
		t.Fatalf("exit = %d", code)
	}
}

func TestKillInterruptsCompute(t *testing.T) {
	sp, fs, dir := newTestSpawner(t)
	// A very long computation: 10M units would take ~minutes.
	stage(t, fs, dir, "app", BuildScript("compute 100000000", "write never.txt reached", "exit 0"))
	p, err := sp.Spawn(SpawnSpec{Executable: "app", WorkingDir: dir, Username: "labuser", Password: "pw"})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond)
	p.Kill()
	p.Kill() // idempotent
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	code, err := p.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if p.State() != StateKilled || code != ExitKilled {
		t.Fatalf("state=%s code=%d", p.State(), code)
	}
	if fs.Exists(dir, "never.txt") {
		t.Error("killed process still wrote output")
	}
}

func TestOnExitCallback(t *testing.T) {
	sp, fs, dir := newTestSpawner(t)
	stage(t, fs, dir, "app", BuildScript("exit 7"))
	exited := make(chan *Process, 1)
	p, err := sp.Spawn(SpawnSpec{
		Executable: "app", WorkingDir: dir,
		Username: "labuser", Password: "pw",
		OnExit: func(p *Process) { exited <- p },
	})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-exited:
		if got.PID != p.PID {
			t.Fatalf("callback for wrong pid %d", got.PID)
		}
		if code, _ := got.ExitCode(); code != 7 {
			t.Fatalf("callback exit = %d", code)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("OnExit never fired")
	}
}

func TestTransformsProduceExpectedData(t *testing.T) {
	sp, fs, dir := newTestSpawner(t)
	stage(t, fs, dir, "nums.txt", []byte("3 4\n5 xyz 8\n"))
	stage(t, fs, dir, "app", BuildScript(
		"transform nums.txt sum.txt sum",
		"transform nums.txt wc.txt count",
		"transform nums.txt rev.txt reverse",
		"exit 0",
	))
	spawnAndWait(t, sp, SpawnSpec{Executable: "app", WorkingDir: dir, Username: "labuser", Password: "pw"})
	if got, _ := fs.Read(dir, "sum.txt"); string(got) != "20" {
		t.Errorf("sum = %q", got)
	}
	if got, _ := fs.Read(dir, "wc.txt"); string(got) != "2 5 12" {
		t.Errorf("count = %q", got)
	}
	if got, _ := fs.Read(dir, "rev.txt"); string(got) != "\n8 zyx 5\n4 3" {
		t.Errorf("reverse = %q", got)
	}
}

func TestAppendAccumulates(t *testing.T) {
	sp, fs, dir := newTestSpawner(t)
	stage(t, fs, dir, "p1", []byte("a\n"))
	stage(t, fs, dir, "p2", []byte("b\n"))
	stage(t, fs, dir, "app", BuildScript("append all p1", "append all p2", "exit 0"))
	spawnAndWait(t, sp, SpawnSpec{Executable: "app", WorkingDir: dir, Username: "labuser", Password: "pw"})
	if got, _ := fs.Read(dir, "all"); string(got) != "a\nb\n" {
		t.Fatalf("append result = %q", got)
	}
}

// TestAppendLeavesSharedContentUntouched: vfs.Read returns the stored
// slice and directories share Contents, so `append` must build its result
// in a fresh array. Two directories share one log whose array has spare
// capacity (as a base64 decode or an earlier append leaves it); a job in
// each appends to it. Appending in place, the second job's bytes land in
// that shared capacity, on top of what the first job's file now shows.
func TestAppendLeavesSharedContentUntouched(t *testing.T) {
	sp, fs, dirA := newTestSpawner(t)
	dirB, err := fs.MkdirUnique("/grid", "job")
	if err != nil {
		t.Fatal(err)
	}
	log := append(make([]byte, 0, 64), "abc"...)
	stage(t, fs, dirA, "log", log)
	shared, err := fs.Open(dirA, "log")
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Link(dirB, "log", shared); err != nil {
		t.Fatal(err)
	}
	for dir, more := range map[string]string{dirA: "AAA", dirB: "BBB"} {
		stage(t, fs, dir, "more", []byte(more))
		stage(t, fs, dir, "app", BuildScript("append log more", "exit 0"))
	}
	for _, dir := range []string{dirA, dirB} {
		spawnAndWait(t, sp, SpawnSpec{Executable: "app", WorkingDir: dir, Username: "labuser", Password: "pw"})
	}
	if got, _ := fs.Read(dirA, "log"); string(got) != "abcAAA" {
		t.Errorf("the first job's log = %q after the second job appended to its own", got)
	}
	if got, _ := fs.Read(dirB, "log"); string(got) != "abcBBB" {
		t.Errorf("the second job's log = %q", got)
	}
	if string(shared.Bytes()) != "abc" || string(log[:6]) != "abc\x00\x00\x00" {
		t.Errorf("the shared content's array was written to: %q", log[:6])
	}
}

func TestSpeedScalesComputeTime(t *testing.T) {
	fs := vfs.New()
	dir, _ := fs.Mkdir("/w")
	fs.Write(dir, "app", BuildScript("compute 2000", "exit 0"))
	run := func(speed float64) time.Duration {
		sp, err := NewSpawner(Config{FS: fs, Cores: 1, SpeedMHz: speed, UnitTime: 50 * time.Microsecond})
		if err != nil {
			t.Fatal(err)
		}
		p, err := sp.Spawn(SpawnSpec{Executable: "app", WorkingDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		start := time.Now()
		if _, err := p.Wait(ctx); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	slow := run(500)
	fast := run(4000)
	if fast >= slow {
		t.Fatalf("faster clock not faster: fast=%v slow=%v", fast, slow)
	}
}

func TestSpawnerBookkeeping(t *testing.T) {
	sp, fs, dir := newTestSpawner(t)
	stage(t, fs, dir, "app", BuildScript("exit 0"))
	p := spawnAndWait(t, sp, SpawnSpec{Executable: "app", WorkingDir: dir, Username: "labuser", Password: "pw"})
	if got, ok := sp.Process(p.PID); !ok || got != p {
		t.Fatal("process lookup failed")
	}
	if len(sp.PIDs()) != 1 {
		t.Fatalf("pids = %v", sp.PIDs())
	}
	if !sp.Reap(p.PID) {
		t.Fatal("reap failed")
	}
	if sp.Reap(p.PID) {
		t.Fatal("double reap succeeded")
	}
	if _, ok := sp.Process(p.PID); ok {
		t.Fatal("reaped process still visible")
	}
}

func TestReapRefusesRunning(t *testing.T) {
	sp, fs, dir := newTestSpawner(t)
	stage(t, fs, dir, "app", BuildScript("compute 100000000", "exit 0"))
	p, err := sp.Spawn(SpawnSpec{Executable: "app", WorkingDir: dir, Username: "labuser", Password: "pw"})
	if err != nil {
		t.Fatal(err)
	}
	if sp.Reap(p.PID) {
		t.Fatal("reaped a running process")
	}
	p.Kill()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	p.Wait(ctx)
}

func TestNewSpawnerValidation(t *testing.T) {
	fs := vfs.New()
	cases := []Config{
		{FS: nil, Cores: 1, SpeedMHz: 1000},
		{FS: fs, Cores: 0, SpeedMHz: 1000},
		{FS: fs, Cores: 1, SpeedMHz: 0},
	}
	for i, cfg := range cases {
		if _, err := NewSpawner(cfg); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

func TestUtilizationMonitorThreshold(t *testing.T) {
	sp, fs, dir := newTestSpawner(t)
	var background float64
	var notified []float64
	m := NewUtilizationMonitor(sp, MonitorConfig{
		Threshold:  0.25,
		Background: func() float64 { return background },
		Notify:     func(u float64) { notified = append(notified, u) },
	})

	// First sample always notifies.
	if !m.Sample() {
		t.Fatal("first sample should notify")
	}
	// Small change below the threshold: silent.
	background = 0.1
	if m.Sample() {
		t.Fatal("sub-threshold change notified")
	}
	// Crossing the threshold (cumulative from last report) notifies.
	background = 0.3
	if !m.Sample() {
		t.Fatal("threshold crossing did not notify")
	}
	if len(notified) != 2 || notified[0] != 0 || notified[1] != 0.3 {
		t.Fatalf("notifications = %v", notified)
	}
	samples, notifies := m.Stats()
	if samples != 3 || notifies != 2 {
		t.Fatalf("stats = %d %d", samples, notifies)
	}

	// Grid processes move utilization too.
	stage(t, fs, dir, "app", BuildScript("compute 100000000", "exit 0"))
	p, err := sp.Spawn(SpawnSpec{Executable: "app", WorkingDir: dir, Username: "labuser", Password: "pw"})
	if err != nil {
		t.Fatal(err)
	}
	// 1 process / 2 cores = +0.5 ≥ threshold.
	if !m.Sample() {
		t.Fatal("running process did not trigger notification")
	}
	p.Kill()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	p.Wait(ctx)
}

func TestUtilizationClamped(t *testing.T) {
	sp, _, _ := newTestSpawner(t)
	m := NewUtilizationMonitor(sp, MonitorConfig{Background: func() float64 { return 5 }})
	if u := m.Utilization(); u != 1 {
		t.Fatalf("utilization = %v", u)
	}
	m2 := NewUtilizationMonitor(sp, MonitorConfig{Background: func() float64 { return -5 }})
	if u := m2.Utilization(); u != 0 {
		t.Fatalf("utilization = %v", u)
	}
}

func TestUtilizationMonitorStartStop(t *testing.T) {
	sp, _, _ := newTestSpawner(t)
	fired := make(chan float64, 1)
	m := NewUtilizationMonitor(sp, MonitorConfig{
		Interval: time.Millisecond,
		Notify: func(u float64) {
			select {
			case fired <- u:
			default:
			}
		},
	})
	m.Start()
	m.Start() // idempotent
	select {
	case <-fired:
	case <-time.After(5 * time.Second):
		t.Fatal("background monitor never sampled")
	}
	m.Stop()
	m.Stop() // idempotent
}

func TestScriptSortTransform(t *testing.T) {
	sp, fs, dir := newTestSpawner(t)
	stage(t, fs, dir, "in", []byte("c\na\nb\n"))
	stage(t, fs, dir, "app", BuildScript("transform in out sort", "exit 0"))
	spawnAndWait(t, sp, SpawnSpec{Executable: "app", WorkingDir: dir, Username: "labuser", Password: "pw"})
	got, _ := fs.Read(dir, "out")
	if !strings.HasPrefix(string(got), "a\nb\nc") {
		t.Fatalf("sort = %q", got)
	}
}

// TestCoreContentionSlowsProcesses: processes on one core share its speed.
// Each run is held to the model's own floor — total work ÷ cores, which
// the sleep-based model can only exceed and a loaded box only lengthen —
// so no two measured durations are compared: four processes that did not
// contend would be done in the 50 ms one takes, a quarter of their floor.
func TestCoreContentionSlowsProcesses(t *testing.T) {
	const unitTime = 50 * time.Microsecond
	const work = 1000 * unitTime // "compute 1000" at 1000 MHz: 50 ms per process
	fs := vfs.New()
	dir, _ := fs.Mkdir("/w")
	fs.Write(dir, "app", BuildScript("compute 1000", "exit 0"))
	run := func(concurrent int) time.Duration {
		sp, err := NewSpawner(Config{FS: fs, Cores: 1, SpeedMHz: 1000, UnitTime: unitTime})
		if err != nil {
			t.Fatal(err)
		}
		procs := make([]*Process, concurrent)
		start := time.Now()
		for i := range procs {
			p, err := sp.Spawn(SpawnSpec{Executable: "app", WorkingDir: dir})
			if err != nil {
				t.Fatal(err)
			}
			procs[i] = p
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		for _, p := range procs {
			if _, err := p.Wait(ctx); err != nil {
				t.Fatal(err)
			}
		}
		return time.Since(start)
	}
	for _, concurrent := range []int{1, 4} {
		// A process reads the load as each 2 ms slice begins, so one spawned
		// ahead of its rivals runs at most that slice faster than its share.
		floor := time.Duration(concurrent) * (work - 2*time.Millisecond)
		if took := run(concurrent); took < floor {
			t.Fatalf("%d process(es) on one core finished in %v, under the model's floor of %v", concurrent, took, floor)
		}
	}
}

// scanRunning is RunningCount the way it used to be computed: every
// process the spawner knows, asked for its state.
func scanRunning(sp *Spawner) int {
	n := 0
	for _, pid := range sp.PIDs() {
		if p, ok := sp.Process(pid); ok && p.State() == StateRunning {
			n++
		}
	}
	return n
}

// TestRunningCountMatchesScan: the counter moves where a process's state
// moves, so whenever the spawner is quiet it equals a scan, and while
// processes spawn, exit, are killed and are reaped on several goroutines
// (with a sampler reading it all the while, as the utilization monitor's
// ticker does) it never leaves [0, spawned].
func TestRunningCountMatchesScan(t *testing.T) {
	fs := vfs.New()
	dir, err := fs.MkdirUnique("/grid", "job")
	if err != nil {
		t.Fatal(err)
	}
	var spawned atomic.Int64
	sp, err := NewSpawner(Config{FS: fs, Cores: 2, SpeedMHz: 2000, UnitTime: 10 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	quiet, sampled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(sampled)
		for {
			if n := int64(sp.RunningCount()); n < 0 || n > spawned.Load() {
				t.Errorf("RunningCount = %d with %d spawned", n, spawned.Load())
			}
			select {
			case <-quiet:
				return
			default:
				runtime.Gosched()
			}
		}
	}()
	stage(t, fs, dir, "quick", BuildScript("exit 0"))
	stage(t, fs, dir, "long", BuildScript("compute 100000000", "exit 0"))
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	spawn := func(exe string) *Process {
		spawned.Add(1)
		p, err := sp.Spawn(SpawnSpec{Executable: exe, WorkingDir: dir})
		if err != nil {
			t.Error(err)
		}
		return p
	}

	var held []*Process
	for i := 0; i < 3; i++ {
		held = append(held, spawn("long"))
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				exe := "quick"
				if (g+i)%3 == 0 {
					exe = "long"
				}
				p := spawn(exe)
				if p == nil {
					return
				}
				p.Kill() // a no-op on a quick one that already exited
				if _, err := p.Wait(ctx); err != nil {
					t.Error(err)
				}
				if i%2 == 0 && !sp.Reap(p.PID) {
					t.Errorf("reap of finished pid %d refused", p.PID)
				}
			}
		}(g)
	}
	wg.Wait()
	close(quiet)
	<-sampled
	if got, scan := sp.RunningCount(), scanRunning(sp); got != len(held) || scan != len(held) {
		t.Fatalf("quiet spawner: RunningCount = %d, scan = %d, want %d held", got, scan, len(held))
	}
	for _, p := range held {
		p.Kill()
		if _, err := p.Wait(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if got, scan := sp.RunningCount(), scanRunning(sp); got != 0 || scan != 0 {
		t.Fatalf("after the last exit: RunningCount = %d, scan = %d", got, scan)
	}
	if sp.Load() != 0 {
		t.Fatalf("Load = %d on an idle spawner", sp.Load())
	}
}
