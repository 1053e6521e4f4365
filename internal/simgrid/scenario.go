package simgrid

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"uvacg/internal/procspawn"
	"uvacg/internal/services/scheduler"
)

// FaultProfiles are the named chaos intensities a scenario (or the
// gridsim -faults flag) can select.
var FaultProfiles = map[string]RouteFaults{
	"none":  {},
	"light": {Drop: 0.05, Duplicate: 0.05, Error: 0.05, MaxDelay: 2 * time.Millisecond, Reorder: 0.10},
	"heavy": {Drop: 0.12, Duplicate: 0.08, Error: 0.10, MaxDelay: 3 * time.Millisecond, Reorder: 0.25},
}

// CrashPlan schedules one service kill and its rebirth.
type CrashPlan struct {
	Target  string // MasterHost or a node name
	At      time.Duration
	Restart time.Duration // after the crash
}

// PartitionPlan cuts a machine off from the master both ways, then heals.
type PartitionPlan struct {
	Node string
	At   time.Duration
	Heal time.Duration // after the cut
}

// Scenario is one randomized drill: a cluster size, a batch of job-set
// DAGs, a fault profile and a crash/partition schedule — all derived
// deterministically from the seed.
type Scenario struct {
	Seed       int64
	Nodes      int
	Sets       []*scheduler.JobSetSpec
	Apps       map[string][]byte // file name → script published on the observer
	Profile    string
	Crashes    []CrashPlan
	Partitions []PartitionPlan

	// failing names the jobs scripted to exit nonzero, for the transcript.
	failing map[string]bool
}

// Generate derives the scenario for a seed. It is a pure function: the
// same seed always yields a byte-identical Transcript, which is the
// determinism contract the tests pin.
func Generate(seed int64) *Scenario {
	r := rand.New(rand.NewSource(seed))
	sc := &Scenario{
		Seed:    seed,
		Nodes:   1 + r.Intn(3),
		Apps:    make(map[string][]byte),
		failing: make(map[string]bool),
	}
	sc.Profile = [...]string{"none", "light", "heavy"}[r.Intn(3)]

	numSets := 1 + r.Intn(2)
	for si := 0; si < numSets; si++ {
		set := &scheduler.JobSetSpec{Name: fmt.Sprintf("set%d", si)}
		numJobs := 1 + r.Intn(5)
		for ji := 0; ji < numJobs; ji++ {
			name := fmt.Sprintf("j%d", ji)
			app := fmt.Sprintf("%s-%s.app", set.Name, name)
			job := scheduler.JobSpec{
				Name:       name,
				Executable: "local://" + app,
				Outputs:    []string{"out.txt"},
			}
			// Depend on earlier jobs only, so the DAG is acyclic by
			// construction; cap fan-in at two.
			for di := 0; di < ji && len(job.Inputs) < 2; di++ {
				if r.Float64() < 0.35 {
					dep := fmt.Sprintf("j%d", di)
					job.Inputs = append(job.Inputs, scheduler.FileSpec{
						LocalName: "in_" + dep + ".txt",
						Source:    dep + "://out.txt",
					})
				}
			}
			if r.Float64() < 0.15 {
				sc.failing[set.Name+"/"+name] = true
				sc.Apps[app] = procspawn.BuildScript("exit 1")
			} else {
				sc.Apps[app] = procspawn.BuildScript("write out.txt ok", "exit 0")
			}
			set.Jobs = append(set.Jobs, job)
		}
		sc.Sets = append(sc.Sets, set)
	}

	if r.Float64() < 0.30 {
		sc.Crashes = append(sc.Crashes, CrashPlan{
			Target:  MasterHost,
			At:      time.Duration(50+r.Intn(150)) * time.Millisecond,
			Restart: time.Duration(100+r.Intn(150)) * time.Millisecond,
		})
	}
	if r.Float64() < 0.25 {
		sc.Crashes = append(sc.Crashes, CrashPlan{
			Target:  fmt.Sprintf("node-%d", 1+r.Intn(sc.Nodes)),
			At:      time.Duration(40+r.Intn(150)) * time.Millisecond,
			Restart: time.Duration(80+r.Intn(150)) * time.Millisecond,
		})
	}
	if r.Float64() < 0.25 {
		sc.Partitions = append(sc.Partitions, PartitionPlan{
			Node: fmt.Sprintf("node-%d", 1+r.Intn(sc.Nodes)),
			At:   time.Duration(30+r.Intn(100)) * time.Millisecond,
			Heal: time.Duration(100+r.Intn(150)) * time.Millisecond,
		})
	}

	// Seeds keep their meaning: 35 % of them once drew a layout of two or
	// three schedulers here, ahead of every draw below. The stream is still
	// consumed draw for draw, and a master crash in such a seed keeps the
	// longer outage it drew (150–1 350 ms), so each seed generates the
	// scenario it always ran on one master and the DAGs and fault schedules
	// older seeds pin (CHANGES.md cites them by number) are unchanged.
	if r.Float64() < 0.35 {
		schedulers := 2 + r.Intn(2)
		for i := range sc.Crashes {
			if sc.Crashes[i].Target == MasterHost {
				r.Intn(schedulers)
				sc.Crashes[i].Restart = time.Duration(150+r.Intn(1200)) * time.Millisecond
			}
		}
		if r.Float64() < 0.30 {
			r.Intn(schedulers)
			r.Intn(200)
			r.Intn(600)
		}
	}

	// Retry/conditional draws come last — after the block above —
	// so the prefix of every seed's random stream (and with it the DAG
	// shapes and fault schedules older seeds pinned) is unchanged by the
	// retry layer's arrival. A scripted failure keeps failing on every
	// attempt, so a retry budget here is exercised to exhaustion and
	// invariant I8 can check the persisted counter against it.
	for _, set := range sc.Sets {
		for ji := range set.Jobs {
			j := &set.Jobs[ji]
			if sc.failing[set.Name+"/"+j.Name] && r.Float64() < 0.5 {
				j.Retry = scheduler.RetryPolicy{
					Limit:   1 + r.Intn(2),
					Backoff: time.Duration(10+r.Intn(30)) * time.Millisecond,
				}
			}
		}
		if r.Float64() < 0.40 {
			runOn := scheduler.RunOnAlways
			if r.Float64() < 0.5 {
				runOn = scheduler.RunOnFailure
			}
			after := make([]string, 0, len(set.Jobs))
			for _, j := range set.Jobs {
				after = append(after, j.Name)
			}
			app := set.Name + "-fin.app"
			sc.Apps[app] = procspawn.BuildScript("exit 0")
			set.Jobs = append(set.Jobs, scheduler.JobSpec{
				Name:       "fin",
				Executable: "local://" + app,
				After:      after,
				RunOn:      runOn,
			})
		}
	}
	// Zero-backoff draws come last of all, for the same reason. Backoff 0
	// is what the daemons' retry storms run with, and the only setting
	// under which a failed attempt's late events land inside the next
	// attempt's dispatch window.
	for _, set := range sc.Sets {
		for ji := range set.Jobs {
			if set.Jobs[ji].Retry.Limit > 0 && r.Float64() < 0.5 {
				set.Jobs[ji].Retry.Backoff = 0
			}
		}
	}
	return sc
}

// Transcript renders the scenario as a stable multi-line description:
// the replayable record that must be byte-identical for a given seed.
func (sc *Scenario) Transcript() string {
	var b strings.Builder
	fmt.Fprintf(&b, "seed=%d nodes=%d profile=%s\n", sc.Seed, sc.Nodes, sc.Profile)
	for _, set := range sc.Sets {
		fmt.Fprintf(&b, "set %s:", set.Name)
		for _, j := range set.Jobs {
			fate := "ok"
			if sc.failing[set.Name+"/"+j.Name] {
				fate = "fail"
			}
			if j.Retry.Limit > 0 {
				fate = fmt.Sprintf("%s,retry=%d", fate, j.Retry.Limit)
				if j.Retry.Backoff == 0 {
					fate += ",backoff=0"
				}
			}
			if j.RunOn != "" {
				fate = fmt.Sprintf("%s,on=%s", fate, j.RunOn)
			}
			deps := j.Dependencies()
			if len(deps) == 0 {
				fmt.Fprintf(&b, " %s(%s)", j.Name, fate)
			} else {
				fmt.Fprintf(&b, " %s(%s<-%s)", j.Name, fate, strings.Join(deps, ","))
			}
		}
		b.WriteString("\n")
	}
	for _, cr := range sc.Crashes {
		fmt.Fprintf(&b, "crash %s at=%v restart=%v\n", cr.Target, cr.At, cr.Restart)
	}
	for _, p := range sc.Partitions {
		fmt.Fprintf(&b, "partition %s<->%s at=%v heal=%v\n", p.Node, MasterHost, p.At, p.Heal)
	}
	return b.String()
}

// RunOptions tune RunSeed.
type RunOptions struct {
	// Dir roots the durable stores (required): use t.TempDir() in tests.
	Dir string
	// Faults, when non-empty, overrides the scenario's generated fault
	// profile with a named one from FaultProfiles.
	Faults string
	// Quiescence bounds the terminal wait (default 30s).
	Quiescence time.Duration
}

// Result is one scenario run's verdict.
type Result struct {
	Seed       int64
	Transcript string
	Violations []string
	Decisions  uint64 // chaos verdicts that were not clean
	Sets       int    // job sets acked
	Err        error  // harness failure: the cluster would not build, or a crashed host never came back
}

// Failed reports whether the run found an invariant violation or could
// not execute at all.
func (r Result) Failed() bool { return r.Err != nil || len(r.Violations) > 0 }

// RunSeed generates the scenario for a seed and drives it end to end:
// build the cluster, arm the crash/partition schedule, submit every job
// set under chaos, wait for quiescence, then check the invariants. What a
// restarted host could not resume is appended to the transcript.
func RunSeed(seed int64, opts RunOptions) Result {
	sc := Generate(seed)
	if opts.Faults != "" {
		sc.Profile = opts.Faults
	}
	if opts.Quiescence == 0 {
		opts.Quiescence = 30 * time.Second
	}
	res := Result{Seed: seed, Transcript: sc.Transcript()}

	cluster, err := NewCluster(ClusterConfig{
		Seed:    seed,
		Nodes:   sc.Nodes,
		DataDir: opts.Dir,
	})
	if err != nil {
		res.Err = err
		return res
	}
	defer cluster.Close()
	for name, script := range sc.Apps {
		cluster.Observer.Files.Publish(name, script)
	}
	cluster.Chaos.SetDefaults(FaultProfiles[sc.Profile])
	cluster.Chaos.Enable(true)

	// The fault schedule runs concurrently with the submissions, so a
	// Submit can land mid-crash or mid-partition — that is the point.
	schedule := make(chan struct{})
	var (
		notes strings.Builder // what restarted hosts could not resume
		lost  error           // a host that never came back
	) // both read once schedule is closed
	go func() {
		defer close(schedule)
		start := time.Now()
		at := func(d time.Duration) {
			if wait := d - time.Since(start); wait > 0 {
				time.Sleep(wait)
			}
		}
		for _, p := range sc.Partitions {
			at(p.At)
			cluster.Chaos.PartitionBoth(p.Node, MasterHost)
			time.Sleep(p.Heal)
			cluster.Chaos.Heal(p.Node, MasterHost)
			cluster.Chaos.Heal(MasterHost, p.Node)
		}
		for _, cr := range sc.Crashes {
			at(cr.At)
			ctx, cancel := newRestartContext()
			// err: the host never came back, or was never there. degraded: it
			// is up, with something it could not resume or register.
			var degraded, err error
			if cr.Target == MasterHost {
				cluster.CrashMaster()
				time.Sleep(cr.Restart)
				degraded, err = cluster.RestartMaster(ctx)
			} else if err = cluster.CrashNode(cr.Target); err == nil {
				time.Sleep(cr.Restart)
				degraded, err = cluster.RestartNode(ctx, cr.Target)
			}
			cancel()
			if err != nil {
				lost = fmt.Errorf("%s never came back: %w", cr.Target, err)
				return
			}
			if degraded != nil {
				fmt.Fprintf(&notes, "restart %s: %v\n", cr.Target, degraded)
			}
		}
	}()

	ctx, cancel := newSubmitContext()
	for _, set := range sc.Sets {
		if _, err := cluster.Submit(ctx, set); err == nil {
			res.Sets++
		}
		// An unacked submission is fine under chaos: whatever the
		// scheduler did create is still covered by invariant I1.
	}
	cancel()
	<-schedule
	res.Transcript += notes.String()
	if lost != nil {
		// Whatever the sets look like now is not the product's doing.
		res.Err = lost
		return res
	}

	quiesceErr := cluster.AwaitQuiescence(opts.Quiescence)
	// Let in-flight broker fan-out land before snapshotting the event
	// log: delivery to the observer races the final document write.
	time.Sleep(300 * time.Millisecond)
	cluster.Chaos.Enable(false)

	res.Violations = CheckInvariants(cluster, sc)
	if quiesceErr != nil && len(res.Violations) == 0 {
		res.Violations = append(res.Violations, quiesceErr.Error())
	}
	res.Decisions = cluster.Chaos.Decisions()
	return res
}

func newRestartContext() (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), 10*time.Second)
}

func newSubmitContext() (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), 15*time.Second)
}
