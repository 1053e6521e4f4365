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
		xmlutil.NewElement(QStatus, r.st.status),
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
	for i := range r.st.jobs {
		doc.Append(r.st.jobs[i].element())
	}
	doc.Append(xmlutil.NewElement(QTopic, r.topic))
	return doc
}

// element renders a job's JobState: a pure function of its state, so an
// attempt that was abandoned leaves nothing of itself behind — a job back
// at Pending shows no node, directory or exit code, only the retries it
// has consumed.
func (j *jobState) element() *xmlutil.Element {
	el := xmlutil.NewElement(QJobState, "").SetAttr(qNameAttr, j.spec.Name).SetAttr(qStatusAttr, j.state)
	if j.node != "" {
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
	return el
}

// render is what a write of the set carries. A set-level write has the
// document: the status and every job's state go onto it — a status never
// goes out without the job states it was decided on. A job-level write has
// none and gets the touched jobs' rows back.
func (st *setState) render(doc *xmlutil.Element, touched []int) (rows []*xmlutil.Element) {
	if doc == nil {
		for _, i := range touched {
			rows = append(rows, st.jobs[i].element())
		}
		return rows
	}
	if c := doc.Child(QStatus); c != nil {
		c.Text = st.status
	}
	for k, el := range doc.Children {
		if i, ok := st.index[el.Attr(qNameAttr)]; ok && el.Name == QJobState {
			doc.Children[k] = st.jobs[i].element()
		}
	}
	return nil
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
