// Package scheduler implements the Scheduler Service (SS) of paper
// §4.5, "the heart of the remote job execution testbed": its
// WS-Resources are job sets. It receives a job-set description, polls
// the Node Info Service for processor state, dispatches each
// dependency-free job to "the fastest, most available machine", fills
// in the directory EPRs of files produced by earlier jobs, and advances
// the DAG as completion notifications arrive from the broker.
package scheduler

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"uvacg/internal/xmlutil"
)

// NS is the SS message namespace.
const NS = "urn:uvacg:ss"

// SourceLocal is the URI scheme for files on the scientist's machine
// ("local://c:\file1" in the paper; here "local://<name>").
const SourceLocal = "local"

// FileSpec names one input file: the name the job expects and a source
// URI — "local://<name>" for client files or "<jobname>://<output>" for
// the output of another job in the set.
type FileSpec struct {
	LocalName string
	Source    string
}

// Run-on conditions for a job's dependency edges. The zero value means
// RunOnSuccess: the paper's bare outputs-feed-inputs ordering.
const (
	// RunOnSuccess jobs wait for every dependency to complete; if any
	// dependency ends otherwise the job can never run.
	RunOnSuccess = "success"
	// RunOnFailure jobs are cleanup handlers: they run once every
	// dependency is terminal and at least one of them failed.
	RunOnFailure = "failure"
	// RunOnAlways jobs run once every dependency is terminal, whatever
	// the outcome — finalizers.
	RunOnAlways = "always"
)

// RetryPolicy re-dispatches a failed job up to Limit extra attempts,
// waiting Backoff between attempts. The zero value disables retries.
type RetryPolicy struct {
	Limit   int
	Backoff time.Duration
}

// JobSpec describes one job: the {executable, input files, output
// files} tuple of paper §4, plus the retry/conditional layer.
type JobSpec struct {
	Name string
	// Executable is a source URI; its basename becomes the staged
	// executable file.
	Executable string
	Inputs     []FileSpec
	// Outputs declare the files this job produces that other jobs may
	// reference.
	Outputs []string
	// Retry re-dispatches the job after a failure (nonzero exit,
	// watchdog timeout, dispatch error) up to Limit extra attempts.
	Retry RetryPolicy
	// RunOn gates the job on its dependencies' outcomes: "" or
	// RunOnSuccess (all completed), RunOnFailure (all terminal, one or
	// more failed — a cleanup job), RunOnAlways (all terminal).
	RunOn string
	// After adds ordering-only dependencies: the named jobs must be
	// terminal (per RunOn) before this one runs, without any file
	// flowing between them.
	After []string
}

// validRunOn reports whether s names a known run-on condition.
func validRunOn(s string) bool {
	switch s {
	case "", RunOnSuccess, RunOnFailure, RunOnAlways:
		return true
	}
	return false
}

// EffectiveRunOn normalizes the empty default to RunOnSuccess.
func (j *JobSpec) EffectiveRunOn() string {
	if j.RunOn == "" {
		return RunOnSuccess
	}
	return j.RunOn
}

// JobSetSpec is a whole job set.
type JobSetSpec struct {
	Name string
	Jobs []JobSpec
}

// sourceParts splits "scheme://name" source URIs.
func sourceParts(source string) (scheme, name string, err error) {
	idx := strings.Index(source, "://")
	if idx <= 0 || idx+3 >= len(source) {
		return "", "", fmt.Errorf("scheduler: bad file source %q (want scheme://name)", source)
	}
	return source[:idx], source[idx+3:], nil
}

// DependencyOf reports the producing job a source references, if any.
func DependencyOf(source string) (job string, ok bool) {
	scheme, _, err := sourceParts(source)
	if err != nil || scheme == SourceLocal {
		return "", false
	}
	return scheme, true
}

// Validate checks structural soundness: unique non-empty job names,
// executables present, unique staged file names within each job, every
// dependency resolvable to a declared output, and no cycles.
func (js *JobSetSpec) Validate() error {
	if len(js.Jobs) == 0 {
		return fmt.Errorf("scheduler: job set %q has no jobs", js.Name)
	}
	byName := make(map[string]*JobSpec, len(js.Jobs))
	for i := range js.Jobs {
		j := &js.Jobs[i]
		if j.Name == "" {
			return fmt.Errorf("scheduler: job %d has no name", i)
		}
		if strings.ContainsAny(j.Name, ":/ ") {
			return fmt.Errorf("scheduler: job name %q contains reserved characters", j.Name)
		}
		if _, dup := byName[j.Name]; dup {
			return fmt.Errorf("scheduler: duplicate job name %q", j.Name)
		}
		if j.Executable == "" {
			return fmt.Errorf("scheduler: job %q has no executable", j.Name)
		}
		if !validRunOn(j.RunOn) {
			return fmt.Errorf("scheduler: job %q has unknown run-on condition %q", j.Name, j.RunOn)
		}
		if j.Retry.Limit < 0 {
			return fmt.Errorf("scheduler: job %q has a negative retry limit", j.Name)
		}
		if j.Retry.Backoff < 0 {
			return fmt.Errorf("scheduler: job %q has a negative retry backoff", j.Name)
		}
		byName[j.Name] = j
	}
	outputs := make(map[string]map[string]bool, len(js.Jobs))
	for _, j := range js.Jobs {
		outs := make(map[string]bool, len(j.Outputs))
		for _, o := range j.Outputs {
			outs[o] = true
		}
		outputs[j.Name] = outs
	}
	check := func(owner, source string) error {
		scheme, name, err := sourceParts(source)
		if err != nil {
			return err
		}
		if scheme == SourceLocal {
			return nil
		}
		producer, ok := byName[scheme]
		if !ok {
			return fmt.Errorf("scheduler: job %q references unknown job %q", owner, scheme)
		}
		if producer.Name == owner {
			return fmt.Errorf("scheduler: job %q references itself", owner)
		}
		if !outputs[scheme][name] {
			return fmt.Errorf("scheduler: job %q wants %q from %q, which does not declare it", owner, name, scheme)
		}
		return nil
	}
	for _, j := range js.Jobs {
		if err := check(j.Name, j.Executable); err != nil {
			return err
		}
		// Every file is staged under its own name: the executable under
		// its basename (check has parsed it), each input under its local
		// name.
		_, exeName, _ := sourceParts(j.Executable)
		staged := map[string]bool{exeName: true}
		for _, in := range j.Inputs {
			if in.LocalName == "" {
				return fmt.Errorf("scheduler: job %q has an input without a local name", j.Name)
			}
			if err := check(j.Name, in.Source); err != nil {
				return err
			}
			if staged[in.LocalName] {
				return fmt.Errorf("scheduler: job %q stages two files as %q", j.Name, in.LocalName)
			}
			staged[in.LocalName] = true
		}
		for _, after := range j.After {
			if after == j.Name {
				return fmt.Errorf("scheduler: job %q is ordered after itself", j.Name)
			}
			if _, ok := byName[after]; !ok {
				return fmt.Errorf("scheduler: job %q is ordered after unknown job %q", j.Name, after)
			}
		}
		if j.EffectiveRunOn() == RunOnFailure && len(j.Dependencies()) == 0 {
			return fmt.Errorf("scheduler: job %q runs on failure but has no dependencies to fail", j.Name)
		}
	}
	return js.checkAcyclic()
}

// Dependencies returns the jobs a job waits on — producers of its
// executable and inputs plus its After ordering edges — deduplicated.
func (j *JobSpec) Dependencies() []string {
	seen := make(map[string]bool)
	var out []string
	add := func(source string) {
		if dep, ok := DependencyOf(source); ok && !seen[dep] {
			seen[dep] = true
			out = append(out, dep)
		}
	}
	add(j.Executable)
	for _, in := range j.Inputs {
		add(in.Source)
	}
	for _, a := range j.After {
		if a != "" && !seen[a] {
			seen[a] = true
			out = append(out, a)
		}
	}
	return out
}

func (js *JobSetSpec) checkAcyclic() error {
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := make(map[string]int, len(js.Jobs))
	byName := make(map[string]*JobSpec, len(js.Jobs))
	for i := range js.Jobs {
		byName[js.Jobs[i].Name] = &js.Jobs[i]
	}
	var visit func(name string) error
	visit = func(name string) error {
		switch color[name] {
		case grey:
			return fmt.Errorf("scheduler: dependency cycle through %q", name)
		case black:
			return nil
		}
		color[name] = grey
		for _, dep := range byName[name].Dependencies() {
			if err := visit(dep); err != nil {
				return err
			}
		}
		color[name] = black
		return nil
	}
	for _, j := range js.Jobs {
		if err := visit(j.Name); err != nil {
			return err
		}
	}
	return nil
}

// XML encoding of the spec (the Submit body).

var (
	qSubmit         = xmlutil.Q(NS, "SubmitJobSet")
	qSubmitResp     = xmlutil.Q(NS, "SubmitJobSetResponse")
	qSetName        = xmlutil.Q(NS, "Name")
	qJobSpec        = xmlutil.Q(NS, "Job")
	qJobName        = xmlutil.Q(NS, "JobName")
	qExecutable     = xmlutil.Q(NS, "Executable")
	qInput          = xmlutil.Q(NS, "Input")
	qOutput         = xmlutil.Q(NS, "Output")
	qSourceAttr     = xmlutil.Q("", "source")
	qNameAttr       = xmlutil.Q("", "name")
	qClientFiles    = xmlutil.Q(NS, "ClientFiles")
	qClientListener = xmlutil.Q(NS, "ClientListener")
	qJobSetEPR      = xmlutil.Q(NS, "JobSet")
	qTopicOut       = xmlutil.Q(NS, "Topic")
	qAfter          = xmlutil.Q(NS, "After")
	qRunOnAttr      = xmlutil.Q("", "runOn")
	qRetryLimitAttr = xmlutil.Q("", "retryLimit")
	qRetryWaitAttr  = xmlutil.Q("", "retryBackoff")
)

// specElement renders the job set portion of a Submit body.
func specElement(js *JobSetSpec) []*xmlutil.Element {
	out := []*xmlutil.Element{xmlutil.NewElement(qSetName, js.Name)}
	for _, j := range js.Jobs {
		jobEl := xmlutil.NewContainer(qJobSpec,
			xmlutil.NewElement(qJobName, j.Name),
			xmlutil.NewElement(qExecutable, "").SetAttr(qSourceAttr, j.Executable),
		)
		if j.RunOn != "" {
			jobEl.SetAttr(qRunOnAttr, j.RunOn)
		}
		if j.Retry.Limit > 0 {
			jobEl.SetAttr(qRetryLimitAttr, strconv.Itoa(j.Retry.Limit))
		}
		if j.Retry.Backoff > 0 {
			jobEl.SetAttr(qRetryWaitAttr, j.Retry.Backoff.String())
		}
		for _, in := range j.Inputs {
			jobEl.Append(xmlutil.NewElement(qInput, "").
				SetAttr(qNameAttr, in.LocalName).
				SetAttr(qSourceAttr, in.Source))
		}
		for _, o := range j.Outputs {
			jobEl.Append(xmlutil.NewElement(qOutput, o))
		}
		for _, a := range j.After {
			jobEl.Append(xmlutil.NewElement(qAfter, a))
		}
		out = append(out, jobEl)
	}
	return out
}

// parseSpec decodes the job set portion of a Submit body. Children it does
// not know are ignored, such as the <Replicas> count and the <Class> earlier
// clients sent. The spec outlives the message, so every string it keeps is
// a copy (strings.Clone): the decoded body points into the frame it came in.
func parseSpec(body *xmlutil.Element) (*JobSetSpec, error) {
	own := strings.Clone
	js := &JobSetSpec{Name: own(body.ChildText(qSetName))}
	for _, jobEl := range body.ChildrenNamed(qJobSpec) {
		j := JobSpec{Name: own(jobEl.ChildText(qJobName)), RunOn: own(jobEl.Attr(qRunOnAttr))}
		if exe := jobEl.Child(qExecutable); exe != nil {
			j.Executable = own(exe.Attr(qSourceAttr))
		}
		if txt := jobEl.Attr(qRetryLimitAttr); txt != "" {
			n, err := strconv.Atoi(txt)
			if err != nil || n < 0 {
				return nil, fmt.Errorf("scheduler: bad retry limit %q", txt)
			}
			j.Retry.Limit = n
		}
		if txt := jobEl.Attr(qRetryWaitAttr); txt != "" {
			d, err := time.ParseDuration(txt)
			if err != nil || d < 0 {
				return nil, fmt.Errorf("scheduler: bad retry backoff %q", txt)
			}
			j.Retry.Backoff = d
		}
		for _, in := range jobEl.ChildrenNamed(qInput) {
			j.Inputs = append(j.Inputs, FileSpec{
				LocalName: own(in.Attr(qNameAttr)),
				Source:    own(in.Attr(qSourceAttr)),
			})
		}
		for _, o := range jobEl.ChildrenNamed(qOutput) {
			j.Outputs = append(j.Outputs, own(o.Text))
		}
		for _, a := range jobEl.ChildrenNamed(qAfter) {
			j.After = append(j.After, own(a.Text))
		}
		js.Jobs = append(js.Jobs, j)
	}
	return js, nil
}
