package scheduler

import (
	"testing"

	"uvacg/internal/wsa"
	"uvacg/internal/wsrf"
	"uvacg/internal/xmlutil"
)

// TestParseJobSetDocumentProjectsFullDocument: the happy path — name,
// status, topic and every job state with its node and directory EPR.
func TestParseJobSetDocumentProjectsFullDocument(t *testing.T) {
	doc := xmlutil.NewContainer(xmlutil.Q(NS, "JobSetState"),
		xmlutil.NewElement(QName, "demo"),
		xmlutil.NewElement(QStatus, SetRunning),
		xmlutil.NewElement(QTopic, "jobset-1"),
	)
	st := xmlutil.NewElement(QJobState, "")
	st.SetAttr(qNameAttr, "j1")
	st.SetAttr(qStatusAttr, JobCompleted)
	st.SetAttr(qNodeAttr, "node-a")
	st.SetAttr(qDirAttr, "inproc://node-a/FileSystemService?rid=dir-1")
	doc.Append(st)

	v := ParseJobSetDocument(doc)
	if v.Name != "demo" || v.Status != SetRunning || v.Topic != "jobset-1" {
		t.Fatalf("projected header %q/%q/%q", v.Name, v.Status, v.Topic)
	}
	jv := v.Job("j1")
	if jv == nil || jv.Status != JobCompleted || jv.Node != "node-a" {
		t.Fatalf("projected job %+v", jv)
	}
	if jv.Dir.IsZero() {
		t.Fatal("directory EPR dropped")
	}
	if v.Job("ghost") != nil {
		t.Fatal("lookup of unknown job returned a view")
	}
}

// TestParseJobSetDocumentDegradesGracefully: a malformed document —
// missing header fields, a job state whose directory attribute is not a
// parseable EPR, a nameless job state — yields a best-effort view
// instead of an error. A restarted client keeps whatever survives.
func TestParseJobSetDocumentDegradesGracefully(t *testing.T) {
	empty := ParseJobSetDocument(&xmlutil.Element{Name: xmlutil.Q(NS, "JobSetState")})
	if empty.Name != "" || empty.Status != "" || empty.Topic != "" || len(empty.Jobs) != 0 {
		t.Fatalf("empty document projected %+v", empty)
	}

	doc := xmlutil.NewContainer(xmlutil.Q(NS, "JobSetState"),
		xmlutil.NewElement(QName, "partial"),
	)
	badDir := xmlutil.NewElement(QJobState, "")
	badDir.SetAttr(qNameAttr, "j1")
	badDir.SetAttr(qStatusAttr, JobCompleted)
	// A '?' with no key=value pairs behind it is not a parseable EPR.
	badDir.SetAttr(qDirAttr, "inproc://node-a/dir?broken-reference-property")
	doc.Append(badDir)
	nameless := xmlutil.NewElement(QJobState, "")
	nameless.SetAttr(qStatusAttr, JobPending)
	doc.Append(nameless)

	v := ParseJobSetDocument(doc)
	if len(v.Jobs) != 2 {
		t.Fatalf("projected %d job states, want 2", len(v.Jobs))
	}
	if jv := v.Job("j1"); jv == nil || !jv.Dir.IsZero() {
		t.Fatalf("unparseable dir attribute should project a zero EPR, got %+v", jv)
	}
	if v.Jobs[1].Name != "" || v.Jobs[1].Status != JobPending {
		t.Fatalf("nameless job state projected %+v", v.Jobs[1])
	}
}

// TestJobStateElementAllocatesItsAttributesOnce: a JobState row is one
// element and one attribute list sized for it, in the order SetAttr
// keeps, so it reads back as the row SetAttr builds; the directory EPR's
// string is the only other allocation.
func TestJobStateElementAllocatesItsAttributesOnce(t *testing.T) {
	j := jobState{
		spec:     &JobSpec{Name: "gen"},
		state:    JobCompleted,
		retries:  2,
		node:     "node-a",
		dirEPR:   wsa.NewEPR("inproc://node-a/FileSystemService").WithProperty(wsrf.QResourceID, "dir-1"),
		exitCode: 0,
	}
	want := xmlutil.NewElement(QJobState, "").
		SetAttr(qNameAttr, "gen").SetAttr(qStatusAttr, JobCompleted).SetAttr(qNodeAttr, "node-a").
		SetAttr(qDirAttr, j.dirEPR.String()).SetAttr(qAttemptAttr, "2").SetAttr(qExitAttr, "0")
	if got := j.element(); !got.Equal(want) || len(got.Attrs) != cap(got.Attrs) {
		t.Fatalf("element = %s (%d attributes, room for %d), want %s", got, len(got.Attrs), cap(got.Attrs), want)
	}
	pending := jobState{spec: j.spec, state: JobPending}
	if got, want := pending.element(), xmlutil.NewElement(QJobState, "").SetAttr(qNameAttr, "gen").SetAttr(qStatusAttr, JobPending); !got.Equal(want) {
		t.Fatalf("element = %s, want %s", got, want)
	}
	if allocs := testing.AllocsPerRun(100, func() { j.element() }); allocs > 3 {
		t.Errorf("element allocates %.0f times, want 3: the element, its attributes and the directory EPR's string", allocs)
	}
}
