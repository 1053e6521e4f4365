package scheduler

import (
	"context"
	"testing"
	"time"
	"unsafe"

	"uvacg/internal/pipeline"
	"uvacg/internal/services/execution"
	"uvacg/internal/soap"
	"uvacg/internal/wsa"
	"uvacg/internal/wsrf"
	"uvacg/internal/wssec"
	"uvacg/internal/xmlutil"
)

// A decoded message points into the bytes it was decoded from. These
// tests decode real messages and check, through unsafe.StringData, that
// what the scheduler keeps of one points into none of its bytes.

// pointsInto reports whether s is a view of buf's bytes.
func pointsInto(s string, buf []byte) bool {
	if s == "" || len(buf) == 0 {
		return false
	}
	p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(buf)))
	return p >= lo && p < lo+uintptr(len(buf))
}

// specStrings lists every string a spec holds.
func specStrings(js *JobSetSpec) []string {
	out := []string{js.Name}
	for _, j := range js.Jobs {
		out = append(out, j.Name, j.Executable, j.RunOn)
		for _, in := range j.Inputs {
			out = append(out, in.LocalName, in.Source)
		}
		out = append(out, j.Outputs...)
		out = append(out, j.After...)
	}
	return out
}

// eprStrings lists every string an EPR holds.
func eprStrings(e wsa.EndpointReference) []string {
	out := []string{e.Address}
	for _, p := range e.ReferenceProperties {
		out = append(out, p.Name.Space, p.Name.Local, p.Value)
	}
	return out
}

// checkOwned fails t for each of strs that points into data.
func checkOwned(t *testing.T, what string, data []byte, strs ...string) {
	t.Helper()
	for _, s := range strs {
		if pointsInto(s, data) {
			t.Errorf("%s keeps %q as a view of the message", what, s)
		}
	}
}

// TestParsedSpecOwnsItsStrings: parseSpec copies every string it keeps
// out of the Submit body it reads.
func TestParsedSpecOwnsItsStrings(t *testing.T) {
	spec := pipelineSpec()
	spec.Jobs[1].RunOn, spec.Jobs[1].After = RunOnAlways, []string{"gen"}
	data, err := xmlutil.MarshalElement(SubmitRequest(spec, wsa.EndpointReference{}, wsa.EndpointReference{}))
	if err != nil {
		t.Fatal(err)
	}
	body, err := xmlutil.UnmarshalElement(data)
	if err != nil {
		t.Fatal(err)
	}
	if !pointsInto(body.ChildText(qSetName), data) {
		t.Fatal("the decoded body is a copy already: the test reads nothing")
	}
	got, err := parseSpec(body)
	if err != nil {
		t.Fatal(err)
	}
	if got.Jobs[1].RunOn != RunOnAlways || len(got.Jobs[1].After) != 1 {
		t.Fatalf("parsed %+v", got.Jobs[1])
	}
	checkOwned(t, "the parsed spec", data, specStrings(got)...)
}

// TestSubmitKeepsCopiesOfItsMessage: a run outlives the Submit that
// brought it. Its spec, client EPRs, account and flow (the request ID it
// was submitted under) are copies, not views of the decoded message.
func TestSubmitKeepsCopiesOfItsMessage(t *testing.T) {
	accounts := wssec.StaticAccounts{"alice": "secret"}
	h := newSSHarness(t, Greedy{}, accounts, "node-a")
	// Every Run waits, so the set stays live while its run is read.
	hold := make(chan struct{})
	defer close(hold)
	h.client.Use(func(ctx context.Context, call *soap.CallInfo, next soap.Handler) (*soap.Envelope, error) {
		if call.Action == execution.ActionRun {
			<-hold
		}
		return next(ctx, call)
	})
	env := soap.New(SubmitRequest(twoJobSpec(), h.filesEPR(), h.listenerEPR()))
	if err := wssec.AttachUsernameToken(env, wssec.Credentials{Username: "alice", Password: "secret"}, time.Now()); err != nil {
		t.Fatal(err)
	}
	data, err := env.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	req, err := soap.Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	// A request ID that, like one the pipeline lifts from a header, is a
	// view of the message.
	ctx := pipeline.WithRequestID(context.Background(), req.Body.ChildText(qSetName))
	body, err := h.ss.handleSubmit(ctx, &wsrf.Invocation{Req: req}, req.Body)
	if err != nil {
		t.Fatal(err)
	}
	set, _, err := ParseSubmitResponse(body)
	if err != nil {
		t.Fatal(err)
	}
	r := h.ss.sets.get(set.Property(wsrf.QResourceID))
	if r == nil {
		t.Fatal("the set is not live")
	}
	if r.flow != "two" || r.creds.Username != "alice" || r.clientFiles.Address != h.filesEPR().Address {
		t.Fatalf("run kept flow %q, account %q, files %v", r.flow, r.creds.Username, r.clientFiles)
	}
	checkOwned(t, "the run's spec", data, specStrings(r.spec)...)
	checkOwned(t, "the run's client files EPR", data, eprStrings(r.clientFiles)...)
	checkOwned(t, "the run's client listener EPR", data, eprStrings(r.clientListener)...)
	checkOwned(t, "the run", data, r.flow, r.creds.Username, r.creds.Password)
}

// TestJobEventKeepsCopiesOfEPRs: the job and directory EPRs an ES
// reports arrive in a message; the job's state keeps copies of them.
func TestJobEventKeepsCopiesOfEPRs(t *testing.T) {
	job := wsa.NewEPR("http://node-a:8701/ExecutionService").WithProperty(wsrf.QResourceID, "job-1")
	dir := wsa.NewEPR("http://node-a:8701/FileSystemService").WithProperty(wsrf.QResourceID, "dir-1")
	data, err := xmlutil.MarshalElement(xmlutil.NewContainer(xmlutil.Q(NS, "Ack"), job.Element(), dir.Element()))
	if err != nil {
		t.Fatal(err)
	}
	ack, err := xmlutil.UnmarshalElement(data)
	if err != nil {
		t.Fatal(err)
	}
	jobEPR, err := wsa.ParseEPR(ack.Children[0])
	if err != nil {
		t.Fatal(err)
	}
	dirEPR, err := wsa.ParseEPR(ack.Children[1])
	if err != nil {
		t.Fatal(err)
	}
	st := newSetState(twoJobSpec(), "n")
	now := time.Unix(0, 0)
	attempt := st.step(event{kind: evReserve}, now).reserved.attempt
	st.step(event{kind: evRunAcked, job: "first", attempt: attempt, jobEPR: jobEPR, dirEPR: dirEPR}, now)
	j := &st.jobs[0]
	if !j.jobEPR.Equal(job) || !j.dirEPR.Equal(dir) {
		t.Fatalf("job kept %v and %v", j.jobEPR, j.dirEPR)
	}
	checkOwned(t, "the job's EPR", data, eprStrings(j.jobEPR)...)
	checkOwned(t, "the job's directory EPR", data, eprStrings(j.dirEPR)...)
}
