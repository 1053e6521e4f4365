package scheduler

import (
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"uvacg/internal/wsa"
	"uvacg/internal/wssec"
	"uvacg/internal/xmlutil"
)

func pipelineSpec() *JobSetSpec {
	return &JobSetSpec{
		Name: "pipeline",
		Jobs: []JobSpec{
			{Name: "gen", Executable: "local://gen.app", Outputs: []string{"data"}},
			{Name: "proc", Executable: "local://proc.app",
				Inputs:  []FileSpec{{LocalName: "in", Source: "gen://data"}},
				Outputs: []string{"result"}},
			{Name: "final", Executable: "local://final.app",
				Inputs: []FileSpec{{LocalName: "r", Source: "proc://result"}}},
		},
	}
}

func TestValidateAcceptsPipeline(t *testing.T) {
	if err := pipelineSpec().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejections(t *testing.T) {
	cases := map[string]func(*JobSetSpec){
		"empty set":      func(js *JobSetSpec) { js.Jobs = nil },
		"unnamed job":    func(js *JobSetSpec) { js.Jobs[0].Name = "" },
		"reserved chars": func(js *JobSetSpec) { js.Jobs[0].Name = "a/b" },
		"duplicate name": func(js *JobSetSpec) { js.Jobs[1].Name = "gen" },
		"no executable":  func(js *JobSetSpec) { js.Jobs[0].Executable = "" },
		"bad source":     func(js *JobSetSpec) { js.Jobs[0].Executable = "not-a-uri" },
		"unknown dep":    func(js *JobSetSpec) { js.Jobs[1].Inputs[0].Source = "ghost://data" },
		"undeclared output": func(js *JobSetSpec) {
			js.Jobs[1].Inputs[0].Source = "gen://nope"
		},
		"self reference": func(js *JobSetSpec) {
			js.Jobs[0].Inputs = []FileSpec{{LocalName: "x", Source: "gen://data"}}
		},
		"nameless input": func(js *JobSetSpec) {
			js.Jobs[1].Inputs[0].LocalName = ""
		},
	}
	for name, mutate := range cases {
		js := pipelineSpec()
		mutate(js)
		if err := js.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestValidateRefusesCollidingStagedNames: a job's files are staged
// under their own names. An input named as the executable's basename, or
// two inputs under one name, would leave the job whichever file landed
// last; Validate refuses both and names the job and the file.
func TestValidateRefusesCollidingStagedNames(t *testing.T) {
	cases := map[string]func(*JobSetSpec){
		"input replaces the executable": func(js *JobSetSpec) {
			js.Jobs[1].Inputs[0].LocalName = "proc.app"
		},
		"two inputs under one name": func(js *JobSetSpec) {
			js.Jobs[1].Inputs = append(js.Jobs[1].Inputs, FileSpec{LocalName: "in", Source: "local://cfg"})
		},
	}
	for name, mutate := range cases {
		js := pipelineSpec()
		mutate(js)
		err := js.Validate()
		if err == nil {
			t.Errorf("%s: accepted", name)
			continue
		}
		if file := js.Jobs[1].Inputs[len(js.Jobs[1].Inputs)-1].LocalName; !strings.Contains(err.Error(), `"proc"`) || !strings.Contains(err.Error(), strconv.Quote(file)) {
			t.Errorf("%s: %v does not name job \"proc\" and file %q", name, err, file)
		}
	}
	// The same name in two jobs' directories is no collision.
	js := pipelineSpec()
	js.Jobs[2].Inputs[0].LocalName = "in"
	if err := js.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsCycle(t *testing.T) {
	js := &JobSetSpec{Name: "cycle", Jobs: []JobSpec{
		{Name: "a", Executable: "local://x", Inputs: []FileSpec{{LocalName: "i", Source: "b://o"}}, Outputs: []string{"o"}},
		{Name: "b", Executable: "local://x", Inputs: []FileSpec{{LocalName: "i", Source: "a://o"}}, Outputs: []string{"o"}},
	}}
	err := js.Validate()
	if err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("err = %v", err)
	}
}

func TestDependencies(t *testing.T) {
	j := JobSpec{
		Name:       "j",
		Executable: "build://tool",
		Inputs: []FileSpec{
			{LocalName: "a", Source: "gen://data"},
			{LocalName: "b", Source: "gen://data2"},
			{LocalName: "c", Source: "local://cfg"},
		},
	}
	got := j.Dependencies()
	if !reflect.DeepEqual(got, []string{"build", "gen"}) {
		t.Fatalf("deps = %v", got)
	}
}

func TestDependencyOf(t *testing.T) {
	if dep, ok := DependencyOf("local://x"); ok || dep != "" {
		t.Error("local source reported as dependency")
	}
	if dep, ok := DependencyOf("job1://out"); !ok || dep != "job1" {
		t.Errorf("got %q %v", dep, ok)
	}
	if _, ok := DependencyOf("garbage"); ok {
		t.Error("garbage source reported as dependency")
	}
}

func TestSpecXMLRoundTrip(t *testing.T) {
	js := pipelineSpec()
	body := SubmitRequest(js, wsa.NewEPR("soap.tcp://client:9/files"), wsa.NewEPR("inproc://client/listener"))
	data, err := xmlutil.MarshalElement(body)
	if err != nil {
		t.Fatal(err)
	}
	el, err := xmlutil.UnmarshalElement(data)
	if err != nil {
		t.Fatal(err)
	}
	back, err := parseSpec(el)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, js) {
		t.Fatalf("round trip mismatch:\n%+v\n%+v", js, back)
	}
	if err := back.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSpecRetryConditionalXMLRoundTrip(t *testing.T) {
	js := &JobSetSpec{Name: "cond", Jobs: []JobSpec{
		{Name: "work", Executable: "local://w.app",
			Retry: RetryPolicy{Limit: 2, Backoff: 500 * time.Millisecond}},
		{Name: "sweep", Executable: "local://s.app",
			After: []string{"work"}, RunOn: RunOnFailure},
		{Name: "audit", Executable: "local://a.app",
			After: []string{"work", "sweep"}, RunOn: RunOnAlways},
	}}
	body := SubmitRequest(js, wsa.NewEPR("soap.tcp://client:9/files"), wsa.NewEPR("inproc://client/listener"))
	data, err := xmlutil.MarshalElement(body)
	if err != nil {
		t.Fatal(err)
	}
	el, err := xmlutil.UnmarshalElement(data)
	if err != nil {
		t.Fatal(err)
	}
	back, err := parseSpec(el)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, js) {
		t.Fatalf("round trip mismatch:\n%+v\n%+v", js, back)
	}
	if err := back.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestSpecWithReplicasCountParses: clients of an earlier release could put
// a <Replicas> count or an admission <Class> after the set's name, in their
// Submit and so in the spec snapshot a job-set document keeps. Both still
// parse, to the spec without them, and a run restored from such a snapshot
// can run.
func TestSpecWithReplicasCountParses(t *testing.T) {
	for _, old := range []*xmlutil.Element{
		xmlutil.NewElement(xmlutil.Q(NS, "Replicas"), "2"),
		xmlutil.NewElement(xmlutil.Q(NS, "Class"), "scavenger"),
	} {
		js := pipelineSpec()
		withOld := func(parent *xmlutil.Element) *xmlutil.Element {
			parent.Children = slices.Insert(parent.Children, 1, old)
			return parent
		}
		data, err := xmlutil.MarshalElement(withOld(SubmitRequest(js, wsa.NewEPR("soap.tcp://client:9/files"), wsa.EndpointReference{})))
		if err != nil {
			t.Fatal(err)
		}
		submit, err := xmlutil.UnmarshalElement(data)
		if err != nil {
			t.Fatal(err)
		}
		if back, err := parseSpec(submit); err != nil || !reflect.DeepEqual(back, js) {
			t.Fatalf("Submit with <%s> parsed as %+v, %v", old.Name.Local, back, err)
		}

		s := &Service{}
		doc := jobSetDocument(s.newRun("old", js, wsa.NewEPR("soap.tcp://client:9/files"), wsa.EndpointReference{}, wssec.Credentials{}))
		withOld(doc.Child(qSpecSnapshot))
		r, err := s.restoreRun("old", doc)
		if err != nil || r.cannotRun != "" || !reflect.DeepEqual(r.spec, js) {
			t.Fatalf("snapshot with <%s> restored as %+v (cannot run: %q), %v", old.Name.Local, r.spec, r.cannotRun, err)
		}
	}
}

func TestValidateConditionalRejections(t *testing.T) {
	base := func() *JobSetSpec {
		return &JobSetSpec{Name: "cond", Jobs: []JobSpec{
			{Name: "work", Executable: "local://w.app"},
			{Name: "sweep", Executable: "local://s.app", After: []string{"work"}, RunOn: RunOnFailure},
		}}
	}
	cases := map[string]func(*JobSetSpec){
		"unknown run-on":        func(js *JobSetSpec) { js.Jobs[1].RunOn = "maybe" },
		"negative retry limit":  func(js *JobSetSpec) { js.Jobs[0].Retry.Limit = -1 },
		"negative backoff":      func(js *JobSetSpec) { js.Jobs[0].Retry.Backoff = -time.Second },
		"after self":            func(js *JobSetSpec) { js.Jobs[1].After = []string{"sweep"} },
		"after unknown job":     func(js *JobSetSpec) { js.Jobs[1].After = []string{"ghost"} },
		"failure gate, no deps": func(js *JobSetSpec) { js.Jobs[1].After = nil },
	}
	for name, mutate := range cases {
		js := base()
		mutate(js)
		if err := js.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestParseSubmitResponseErrors(t *testing.T) {
	if _, _, err := ParseSubmitResponse(nil); err == nil {
		t.Error("nil body accepted")
	}
	if _, _, err := ParseSubmitResponse(&xmlutil.Element{Name: qSubmitResp}); err == nil {
		t.Error("EPR-less response accepted")
	}
}
