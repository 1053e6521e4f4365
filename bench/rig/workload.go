package rig

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"uvacg/internal/core"
	"uvacg/internal/services/scheduler"
)

// Workload is one named traffic shape. Every workload is a closed loop
// of job sets against the same 1 master + 2 node grid; they differ in
// the shape of a set, and so in which layers do the work.
type Workload struct {
	Name string
	// JobsPerSet sizes throughput and per-job costs.
	JobsPerSet int
	// Chain says each job consumes its predecessor's output.
	Chain bool
	// Durable puts every daemon on -data-dir (see GridOptions.Durable).
	Durable bool
	// Submitters is the number of closed-loop clients submitting sets:
	// as many as keep both cores of the reference box busy. A vCPU that
	// idles between hops pays a wake-up and a clock ramp that were the
	// largest run-to-run noise on that box, so the two serial chains run
	// four sets at a time; a 16- or 64-wide bag fills the cores by itself.
	Submitters int
	// WarmupSets are submitted, untimed, as the last step of set-up.
	WarmupSets int
	// SetsPerSecond is the rate the grid sustained on the 2-core box when
	// the benchmark was defined. A run times round(SetsPerSecond ×
	// seconds) sets: a fixed count, not a fixed duration, because a
	// master's speed and memory depend on how many sets it has already
	// run, so only equal counts compare across commits.
	SetsPerSecond float64

	plan func(rng *rand.Rand, set string) *SetPlan
}

// SetPlan is one generated job set: what to submit, what to serve, and
// what must come back.
type SetPlan struct {
	Spec *scheduler.JobSetSpec
	// Files are served by the client's soap.tcp file server under these
	// names for the life of the set.
	Files map[string][]byte
	// Outputs are fetched after completion and compared byte for byte.
	Outputs []Output
	// StagedBytes is what lands in the set's job working directories:
	// every executable and every input file.
	StagedBytes int64
}

// Output names one file to fetch and the bytes it must hold.
type Output struct {
	Job  string
	File string
	Want []byte
}

// TimedSets is the number of sets a run of the given length times.
func (w *Workload) TimedSets(seconds int) int {
	n := int(w.SetsPerSecond*float64(seconds) + 0.5)
	if n < 2 {
		n = 2
	}
	return n
}

// warmupBase offsets warm-up set indexes so they never collide with a
// timed set's.
const warmupBase = 1 << 20

// Plan generates set number idx of a run. The same (seed, idx) always
// gives the same set; no two sets of a run share a name, a nonce or a
// payload, so no content-addressed cache hits across sets.
func (w *Workload) Plan(seed int64, idx int) *SetPlan {
	rng := rand.New(rand.NewSource(seed*2_000_003 + int64(idx)*31 + int64(len(w.Name))))
	return w.plan(rng, fmt.Sprintf("%s-%d-%d", w.Name, seed, idx))
}

// BagPlan generates a bag of the given width outside any workload: the
// ledger's in-process grid runs the same generated sets the rig submits
// to the daemons.
func BagPlan(seed int64, idx, jobs int) *SetPlan {
	rng := rand.New(rand.NewSource(seed*2_000_003 + int64(idx)*31))
	return planBag(rng, fmt.Sprintf("bag%d-%d-%d", jobs, seed, idx), jobs)
}

// Workloads lists the benchmark's workloads in the order runs are
// interleaved.
func Workloads() []*Workload {
	return []*Workload{
		{
			Name:       "bag16",
			JobsPerSet: 16, Submitters: 2, WarmupSets: 20, SetsPerSecond: 21,
			plan: func(rng *rand.Rand, set string) *SetPlan { return planBag(rng, set, 16) },
		},
		{
			Name:       "chain8",
			JobsPerSet: 8, Chain: true, Submitters: 4, WarmupSets: 20, SetsPerSecond: 26,
			plan: func(rng *rand.Rand, set string) *SetPlan { return planChain(rng, set, 8, 0) },
		},
		{
			Name:       "wide64d",
			JobsPerSet: 64, Durable: true, Submitters: 1, WarmupSets: 4, SetsPerSecond: 4,
			plan: func(rng *rand.Rand, set string) *SetPlan { return planBag(rng, set, 64) },
		},
		{
			Name:       "data512k",
			JobsPerSet: 4, Chain: true, Submitters: 4, WarmupSets: 10, SetsPerSecond: 26,
			plan: func(rng *rand.Rand, set string) *SetPlan { return planChain(rng, set, 4, 512<<10) },
		},
	}
}

// WorkloadByName finds a workload.
func WorkloadByName(name string) (*Workload, bool) {
	for _, w := range Workloads() {
		if w.Name == name {
			return w, true
		}
	}
	return nil, false
}

func nonce(rng *rand.Rand) string {
	var b [16]byte
	rng.Read(b[:])
	return hex.EncodeToString(b[:])
}

// planBag builds n independent jobs, each writing its own nonce.
func planBag(rng *rand.Rand, set string, n int) *SetPlan {
	p := &SetPlan{Spec: &scheduler.JobSetSpec{Name: set}, Files: make(map[string][]byte)}
	for i := 0; i < n; i++ {
		job := fmt.Sprintf("j%02d", i)
		want := nonce(rng)
		p.addJob(job, core.Script("write out.dat "+want, "exit 0"), "", 0)
		p.Outputs = append(p.Outputs, Output{Job: job, File: "out.dat", Want: []byte(want)})
	}
	return p
}

// planChain builds a stages-long pipeline in which every stage reverses
// its predecessor's output. With payload 0 the first stage writes a
// nonce; otherwise it reverses a seeded payload of that many bytes served
// by the client, and every stage carries the full payload onward.
func planChain(rng *rand.Rand, set string, stages, payload int) *SetPlan {
	p := &SetPlan{Spec: &scheduler.JobSetSpec{Name: set}, Files: make(map[string][]byte)}
	var data []byte
	for i := 0; i < stages; i++ {
		job := fmt.Sprintf("s%d", i)
		// The nonce comment makes each stage's executable unique content.
		reverse := core.Script("# "+nonce(rng), "transform in.dat out.dat reverse", "exit 0")
		switch {
		case i == 0 && payload == 0:
			data = []byte(nonce(rng))
			p.addJob(job, core.Script("write out.dat "+string(data), "exit 0"), "", 0)
		case i == 0:
			data = make([]byte, payload)
			rng.Read(data)
			name := set + ".payload"
			p.Files[name] = data
			p.addJob(job, reverse, core.Local(name), len(data))
			data = reversed(data)
		default:
			p.addJob(job, reverse, core.Output(fmt.Sprintf("s%d", i-1), "out.dat"), len(data))
			data = reversed(data)
		}
	}
	p.Outputs = []Output{{Job: p.Spec.Jobs[stages-1].Name, File: "out.dat", Want: data}}
	return p
}

// addJob appends a job that produces out.dat. The client serves its
// executable under a set-unique name; inputSource, when set, is staged
// as in.dat and is inputBytes long.
func (p *SetPlan) addJob(name string, script []byte, inputSource string, inputBytes int) {
	exe := p.Spec.Name + "." + name + ".app"
	p.Files[exe] = script
	p.StagedBytes += int64(len(script)) + int64(inputBytes)
	job := scheduler.JobSpec{Name: name, Executable: core.Local(exe), Outputs: []string{"out.dat"}}
	if inputSource != "" {
		job.Inputs = []scheduler.FileSpec{{LocalName: "in.dat", Source: inputSource}}
	}
	p.Spec.Jobs = append(p.Spec.Jobs, job)
}

func reversed(b []byte) []byte {
	out := make([]byte, len(b))
	for i, c := range b {
		out[len(b)-1-i] = c
	}
	return out
}

// WriteJobSetFile writes the plan as a gridsub description under dir —
// the served files beside a .jobset naming them, each output as a fetch
// directive — and returns the .jobset path. It is how the parity check
// hands the shipped client the same set the load generator submits.
func (p *SetPlan) WriteJobSetFile(dir string) (string, error) {
	var b bytes.Buffer
	fmt.Fprintf(&b, "jobset %s\n", p.Spec.Name)
	names := make([]string, 0, len(p.Files))
	for name := range p.Files {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if err := os.WriteFile(filepath.Join(dir, name), p.Files[name], 0o644); err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "file %s %s\n", name, name)
	}
	for _, j := range p.Spec.Jobs {
		fmt.Fprintf(&b, "job %s\n  exec %s\n", j.Name, j.Executable)
		for _, in := range j.Inputs {
			fmt.Fprintf(&b, "  input %s %s\n", in.LocalName, in.Source)
		}
		fmt.Fprintf(&b, "  output %s\n", strings.Join(j.Outputs, " "))
	}
	for _, o := range p.Outputs {
		fmt.Fprintf(&b, "fetch %s %s\n", o.Job, o.File)
	}
	path := filepath.Join(dir, p.Spec.Name+".jobset")
	return path, os.WriteFile(path, b.Bytes(), 0o644)
}
