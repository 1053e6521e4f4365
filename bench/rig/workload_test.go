package rig

import (
	"bytes"
	"crypto/sha256"
	"os"
	"reflect"
	"testing"

	"uvacg/internal/core"
)

func TestPlansAreDeterministicInSeedAndIndex(t *testing.T) {
	for _, w := range Workloads() {
		a, b := w.Plan(7, 3), w.Plan(7, 3)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same (seed, index) gave two different sets", w.Name)
		}
		if err := a.Spec.Validate(); err != nil {
			t.Errorf("%s: generated spec is invalid: %v", w.Name, err)
		}
		if len(a.Spec.Jobs) != w.JobsPerSet {
			t.Errorf("%s: %d jobs, want %d", w.Name, len(a.Spec.Jobs), w.JobsPerSet)
		}
		for _, other := range []*SetPlan{w.Plan(8, 3), w.Plan(7, 4), w.Plan(7, warmupBase+3)} {
			if other.Spec.Name == a.Spec.Name {
				t.Errorf("%s: two sets share the name %s", w.Name, a.Spec.Name)
			}
			for name, content := range a.Files {
				for otherName, otherContent := range other.Files {
					if name == otherName || bytes.Equal(content, otherContent) {
						t.Errorf("%s: %s of %s repeats as %s of %s", w.Name, name, a.Spec.Name, otherName, other.Spec.Name)
					}
				}
			}
		}
	}
}

func TestNoContentRepeatsInsideASet(t *testing.T) {
	for _, w := range Workloads() {
		seen := map[[32]byte]string{}
		for name, content := range w.Plan(1, 0).Files {
			sum := sha256.Sum256(content)
			if prev, dup := seen[sum]; dup {
				t.Errorf("%s: %s and %s hold the same bytes", w.Name, prev, name)
			}
			seen[sum] = name
		}
	}
}

func TestChainOutputsFollowFromTheReversals(t *testing.T) {
	chain, _ := WorkloadByName("chain8")
	p := chain.Plan(5, 0)
	// Seven reversals of the first stage's nonce leave it reversed.
	first := p.Files[p.Spec.Name+".s0.app"]
	if !bytes.Contains(first, reversed(p.Outputs[0].Want)) {
		t.Errorf("chain8 expects %q but stage 0 runs %q", p.Outputs[0].Want, first)
	}
	data, _ := WorkloadByName("data512k")
	p = data.Plan(5, 0)
	payload := p.Files[p.Spec.Name+".payload"]
	if len(payload) != 512<<10 {
		t.Fatalf("payload is %d bytes", len(payload))
	}
	// Four reversals: the output must equal the input.
	if sha256.Sum256(payload) != sha256.Sum256(p.Outputs[0].Want) {
		t.Error("data512k's expected output differs from its payload")
	}
	if want := int64(4*len(payload)) + scriptBytes(p); p.StagedBytes != want {
		t.Errorf("data512k stages %d bytes, want %d", p.StagedBytes, want)
	}
}

func scriptBytes(p *SetPlan) int64 {
	var n int64
	for name, content := range p.Files {
		if bytes.HasSuffix([]byte(name), []byte(".app")) {
			n += int64(len(content))
		}
	}
	return n
}

func TestTimedSetsScaleWithSeconds(t *testing.T) {
	bag, _ := WorkloadByName("bag16")
	if a, b := bag.TimedSets(10), bag.TimedSets(20); b != 2*a {
		t.Errorf("10 s times %d sets, 20 s times %d", a, b)
	}
	if got := bag.TimedSets(0); got < 2 {
		t.Errorf("0 s times %d sets", got)
	}
}

// The .jobset gridsub is handed must describe the same set the load
// generator submits.
func TestJobSetFileRoundTrips(t *testing.T) {
	for _, w := range Workloads() {
		p := w.Plan(9, 1)
		dir := t.TempDir()
		path, err := p.WriteJobSetFile(dir)
		if err != nil {
			t.Fatal(err)
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		parsed, err := core.ParseJobSetFile(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: gridsub cannot parse the generated description: %v", w.Name, err)
		}
		if !reflect.DeepEqual(parsed.Spec, p.Spec) {
			t.Errorf("%s: parsed spec differs:\n got %+v\nwant %+v", w.Name, parsed.Spec, p.Spec)
		}
		if len(parsed.Files) != len(p.Files) || len(parsed.Fetches) != len(p.Outputs) {
			t.Errorf("%s: %d files and %d fetches, want %d and %d", w.Name, len(parsed.Files), len(parsed.Fetches), len(p.Files), len(p.Outputs))
		}
		for name := range p.Files {
			got, err := os.ReadFile(dir + "/" + parsed.Files[name])
			if err != nil || !bytes.Equal(got, p.Files[name]) {
				t.Errorf("%s: file %s not written as planned (%v)", w.Name, name, err)
			}
		}
	}
}
