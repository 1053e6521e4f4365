package scheduler

import (
	"strconv"

	"uvacg/internal/wsa"
	"uvacg/internal/xmlutil"
)

// jobSetDocument builds a run's job-set WS-Resource. Everything a
// restarted scheduler needs to resume the run is persisted here: the
// spec, the topic, the client's endpoints and per-job progress
// (credentials excepted — they stay in memory, so secured runs cannot
// survive a restart).
func jobSetDocument(r *run) *xmlutil.Element {
	doc := xmlutil.NewContainer(xmlutil.Q(NS, "JobSetState"),
		xmlutil.NewElement(QName, r.spec.Name),
		xmlutil.NewElement(QStatus, ""),
	)
	if r.creds.Username != "" {
		doc.SetAttr(qSecured, "true")
	}
	snapshot := &xmlutil.Element{Name: qSpecSnapshot}
	snapshot.Append(specElement(r.spec)...)
	doc.Append(snapshot)
	if !r.clientFiles.IsZero() {
		doc.Append(r.clientFiles.ElementNamed(qClientFiles))
	}
	if !r.clientListener.IsZero() {
		doc.Append(r.clientListener.ElementNamed(qClientListener))
	}
	touched := make([]int, len(r.spec.Jobs))
	for i, j := range r.spec.Jobs {
		doc.Append(xmlutil.NewElement(QJobState, "").SetAttr(qNameAttr, j.Name))
		touched[i] = i
	}
	doc.Append(xmlutil.NewElement(QTopic, r.topic))
	r.st.render(doc, touched)
	return doc
}

// render writes the set status and the touched jobs' attributes onto a
// job-set document: the only code that does (persist, jobSetDocument).
// A terminal status is never written without every job's state: the
// write that carries the verdict may be another transition's, landing
// ahead of the terminal transition's own, and a crash between the two
// must not leave a verdict over live job states.
func (st *setState) render(doc *xmlutil.Element, touched []int) {
	if c := doc.Child(QStatus); c != nil {
		c.Text = st.status
	}
	all := TerminalSetStatus(st.status)
	mark := make([]bool, len(st.jobs))
	for _, i := range touched {
		mark[i] = true
	}
	for _, el := range doc.Children {
		i, ok := st.index[el.Attr(qNameAttr)]
		if el.Name != QJobState || !ok || !(all || mark[i]) {
			continue
		}
		j := &st.jobs[i]
		el.SetAttr(qStatusAttr, j.state)
		if j.node != "" || el.Attr(qNodeAttr) != "" {
			el.SetAttr(qNodeAttr, j.node)
		}
		if !j.dirEPR.IsZero() {
			el.SetAttr(qDirAttr, j.dirEPR.String())
		}
		if j.retries > 0 {
			el.SetAttr(qAttemptAttr, strconv.Itoa(j.retries))
		}
		if j.state == JobCompleted || j.state == JobFailed {
			el.SetAttr(qExitAttr, strconv.Itoa(j.exitCode))
		}
	}
}

// JobSetView is the read-side projection of a job-set resource
// document: what a client (or a restarted scheduler) can learn about a
// run from the persisted WS-Resource alone. It deliberately exposes
// only the queryable surface — the spec snapshot stays internal.
type JobSetView struct {
	Name   string
	Status string // SetRunning, SetCompleted, SetFailed, SetCancelled
	Topic  string
	// Notified reports whether the terminal set event was handed to the
	// broker; terminal documents without it are republished by Recover.
	Notified bool
	Jobs     []JobView
}

// JobView is one job's progress inside a JobSetView.
type JobView struct {
	Name   string
	Status string
	Node   string
	Dir    wsa.EndpointReference // job output directory, when recorded
	// Attempt counts retries already consumed, so a recovered run
	// resumes with the same budget.
	Attempt int
}

// Job returns the view of the named job, or nil.
func (v *JobSetView) Job(name string) *JobView {
	for i := range v.Jobs {
		if v.Jobs[i].Name == name {
			return &v.Jobs[i]
		}
	}
	return nil
}

// ParseJobSetDocument projects a job-set resource document (as returned
// by wsrf.ResourceClient.GetDocument) into a JobSetView. Unparseable
// fragments are dropped rather than failing the whole view: a resumed
// client needs whatever progress survives.
func ParseJobSetDocument(doc *xmlutil.Element) JobSetView {
	v := JobSetView{
		Name:     doc.ChildText(QName),
		Status:   doc.ChildText(QStatus),
		Topic:    doc.ChildText(QTopic),
		Notified: doc.Attr(qNotifiedAttr) == "true",
	}
	for _, st := range doc.ChildrenNamed(QJobState) {
		jv := JobView{
			Name:   st.Attr(qNameAttr),
			Status: st.Attr(qStatusAttr),
			Node:   st.Attr(qNodeAttr),
		}
		if raw := st.Attr(qDirAttr); raw != "" {
			if epr, err := wsa.ParseEPRString(raw); err == nil {
				jv.Dir = epr
			}
		}
		if n, err := strconv.Atoi(st.Attr(qAttemptAttr)); err == nil && n > 0 {
			jv.Attempt = n
		}
		v.Jobs = append(v.Jobs, jv)
	}
	return v
}
