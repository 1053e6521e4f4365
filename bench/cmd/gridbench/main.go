// Command gridbench is the repository's benchmark: it builds gridmaster,
// gridnode and gridsub from this checkout, starts fresh daemons for
// every run, drives them from one load-generator process over HTTP and
// soap.tcp, verifies every fetched output and prints every metric by
// name. See bench/README.md.
//
//	gridbench                          every workload, 3 passes + a traced pass, full table
//	gridbench -smoke                   10 sets per workload, one pass
//	gridbench -compare OLD.json NEW.json
//	gridbench --workload bag16 --seed 7 --seconds 10 --trace 0   (the driver's contract)
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"syscall"

	"uvacg/bench/ledger"
	"uvacg/bench/rig"
)

func main() { os.Exit(run()) }

func run() int {
	workload := flag.String("workload", "", "run this one workload once and print one JSON result line (the driver's contract); empty runs the whole suite")
	seed := flag.Int64("seed", defaultSeed, "workload seed: derives set names, nonces and payloads")
	seconds := flag.Int("seconds", 0, "nominal length of one run's timed phase (0 = run_seconds of BENCHMARK.json)")
	trace := flag.Int("trace", 0, "1 = traced run: the last grid's daemons start with -metrics, spans are kept, the ledger runs, per-layer metrics are printed")
	smoke := flag.Bool("smoke", false, "suite check in under a minute: 10 sets per workload, one untraced pass")
	out := flag.String("out", "", "suite: write results JSON here (default bench/out/results.json)")
	compare := flag.Bool("compare", false, "compare two results files: gridbench -compare OLD.json NEW.json")
	flag.Parse()

	root, err := findRoot()
	if err != nil {
		return fail(err)
	}
	spec, err := loadSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return fail(err)
	}
	if *compare {
		if flag.NArg() != 2 {
			return fail(fmt.Errorf("usage: gridbench -compare OLD.json NEW.json"))
		}
		return runCompare(spec, flag.Arg(0), flag.Arg(1))
	}
	if *seconds == 0 {
		*seconds = spec.RunSeconds
	}

	// SIGINT and SIGTERM cancel the run; every daemon is then killed and
	// waited for, and scratch directories removed, before exit.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	env := &environment{
		root:    root,
		binDir:  filepath.Join(root, "bench", "out", "bin"),
		workDir: filepath.Join(root, "bench", "out", "work"),
		outDir:  filepath.Join(root, "bench", "out"),
	}
	// Scratch (daemon logs, data directories, the ledger's WAL) stays in
	// the checkout, so every fsync measured is this file system's.
	tmp := filepath.Join(env.workDir, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return fail(err)
	}
	defer os.RemoveAll(env.workDir)
	os.Setenv("TMPDIR", tmp)
	if err := env.build(ctx); err != nil {
		return fail(err)
	}
	if *workload != "" {
		return driverRun(ctx, env, spec, *workload, *seed, *seconds, *trace == 1)
	}
	resultsPath := *out
	if resultsPath == "" {
		resultsPath = filepath.Join(env.outDir, "results.json")
	}
	return runSuite(ctx, env, spec, suiteOptions{seed: *seed, seconds: *seconds, smoke: *smoke, out: resultsPath})
}

// defaultSeed is the seed of a run that names none.
const defaultSeed = 20260927

type environment struct {
	root, binDir, workDir, outDir string
}

// findRoot locates the checkout: the directory holding BENCHMARK.json,
// which is the working directory (the driver, bench/run.sh) or its
// parent (go run from inside bench/).
func findRoot() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for _, dir := range []string{wd, filepath.Dir(wd)} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			if _, err := os.Stat(filepath.Join(dir, "cmd", "gridmaster")); err != nil {
				return "", fmt.Errorf("%s holds BENCHMARK.json but not the daemons' source (cmd/gridmaster): nothing to measure", dir)
			}
			return dir, nil
		}
	}
	return "", fmt.Errorf("BENCHMARK.json not found in %s or its parent; run from the repository root or from bench/", wd)
}

// build compiles the three shipped binaries from this checkout. go build
// excluded from every timing: it runs before any run starts.
func (e *environment) build(ctx context.Context) error {
	if err := os.MkdirAll(e.binDir, 0o755); err != nil {
		return err
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-o", e.binDir+string(filepath.Separator), "./cmd/gridmaster", "./cmd/gridnode", "./cmd/gridsub")
	cmd.Dir = e.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build of the daemons: %v\n%s", err, out)
	}
	return nil
}

func (e *environment) options(w *rig.Workload, seed int64, seconds int, traced bool) rig.RunOptions {
	return rig.RunOptions{Workload: w, Seed: seed, Seconds: seconds, Traced: traced, BinDir: e.binDir, WorkDir: e.workDir, TraceDir: e.outDir}
}

// driverRun is the contract the benchmark driver calls: one workload,
// one run, and as the last line of standard output one JSON object with
// exactly the keys correct, attempted, failed and metrics — every
// end-to-end metric untraced, every per-layer metric traced. The driver
// counts operations, so attempted and failed are job sets plus status
// reads; failed_frac, the suite's metric, is sets alone.
func driverRun(ctx context.Context, env *environment, spec *benchSpec, name string, seed int64, seconds int, traced bool) int {
	w, ok := rig.WorkloadByName(name)
	if !ok {
		fmt.Fprintf(os.Stderr, "gridbench: unknown workload %q\n", name)
		return 2
	}
	res, err := rig.Run(ctx, env.options(w, seed, seconds, traced))
	if err != nil {
		fmt.Fprintf(os.Stderr, "gridbench: %v\n", err)
		return 1
	}
	wanted := spec.EndToEnd
	if traced {
		wanted = spec.PerLayer
		rows, err := ledger.Run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "gridbench: %v\n", err)
			return 1
		}
		for name, v := range rows {
			res.Metrics[name] = v
		}
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Attempted: res.Attempted + res.ReadsAttempted, Failed: res.Failed + res.ReadsFailed, Metrics: map[string]value{}}
	line.Correct = line.Failed == 0
	for _, m := range wanted {
		v, ok := res.Metrics[m.Name]
		if !ok {
			fmt.Fprintf(os.Stderr, "gridbench: run produced no %s\n", m.Name)
			return 1
		}
		line.Metrics[m.Name] = value{Value: v, Unit: m.Unit}
	}
	for _, f := range res.Failures {
		fmt.Fprintf(os.Stderr, "gridbench: failure: %s\n", f)
	}
	printRun(os.Stderr, spec, res)
	data, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gridbench: %v\n", err)
		return 1
	}
	fmt.Println(string(data))
	return 0
}

func fail(err error) int {
	fmt.Fprintf(os.Stderr, "gridbench: %v\n", err)
	return 1
}
