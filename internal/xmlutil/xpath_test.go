package xmlutil

import (
	"testing"
)

// mustCompilePath is CompilePath that panics on error.
func mustCompilePath(expr string) *Path {
	p, err := CompilePath(expr)
	if err != nil {
		panic(err)
	}
	return p
}

func queryDoc() *Element {
	return NewContainer(Q(nsT, "grid"),
		NewContainer(Q(nsT, "node"),
			NewElement(Q(nsT, "name"), "win-a"),
			NewElement(Q(nsT, "speed"), "2800"),
			NewElement(Q(nsT, "util"), "10"),
		).SetAttr(Q("", "os"), "windows"),
		NewContainer(Q(nsT, "node"),
			NewElement(Q(nsT, "name"), "win-b"),
			NewElement(Q(nsT, "speed"), "1400"),
		).SetAttr(Q("", "os"), "windows"),
		NewContainer(Q(nsT, "node"),
			NewElement(Q(nsT, "name"), "lx-1"),
			NewElement(Q(nsT, "speed"), "3000"),
		).SetAttr(Q("", "os"), "linux"),
		NewContainer(Q(nsT, "jobs"),
			NewContainer(Q(nsT, "job"),
				NewElement(Q(nsT, "status"), "Running"),
			),
			NewContainer(Q(nsT, "job"),
				NewElement(Q(nsT, "status"), "Exited"),
			),
		),
	)
}

func TestPathChildSteps(t *testing.T) {
	doc := queryDoc()
	got := mustCompilePath("/node/name").Select(doc)
	if len(got) != 3 {
		t.Fatalf("want 3 names, got %d", len(got))
	}
	if got[0].Text != "win-a" || got[2].Text != "lx-1" {
		t.Errorf("wrong order: %v %v", got[0].Text, got[2].Text)
	}
}

func TestPathRelativeEqualsAbsolute(t *testing.T) {
	doc := queryDoc()
	abs := mustCompilePath("/node/name").Select(doc)
	rel := mustCompilePath("node/name").Select(doc)
	if len(abs) != len(rel) {
		t.Fatalf("absolute %d vs relative %d", len(abs), len(rel))
	}
}

func TestPathDescendant(t *testing.T) {
	doc := queryDoc()
	got := mustCompilePath("//status").Select(doc)
	if len(got) != 2 {
		t.Fatalf("want 2 statuses, got %d", len(got))
	}
	got = mustCompilePath("//job/status").Select(doc)
	if len(got) != 2 {
		t.Fatalf("descendant then child: want 2, got %d", len(got))
	}
}

func TestPathWildcard(t *testing.T) {
	doc := queryDoc()
	got := mustCompilePath("/*").Select(doc)
	if len(got) != 4 {
		t.Fatalf("wildcard children: want 4, got %d", len(got))
	}
}

func TestPathPositionPredicate(t *testing.T) {
	doc := queryDoc()
	got := mustCompilePath("/node[2]/name").Select(doc)
	if len(got) != 1 || got[0].Text != "win-b" {
		t.Fatalf("node[2]: %v", got)
	}
}

func TestPathAttributePredicate(t *testing.T) {
	doc := queryDoc()
	got := mustCompilePath("/node[@os='linux']/name").Select(doc)
	if len(got) != 1 || got[0].Text != "lx-1" {
		t.Fatalf("attr predicate: %v", got)
	}
	got = mustCompilePath("/node[@os!='linux']/name").Select(doc)
	if len(got) != 2 {
		t.Fatalf("negated attr predicate: want 2, got %d", len(got))
	}
}

func TestPathChildValuePredicate(t *testing.T) {
	doc := queryDoc()
	got := mustCompilePath("/node[speed='2800']/name").Select(doc)
	if len(got) != 1 || got[0].Text != "win-a" {
		t.Fatalf("child value predicate: %v", got)
	}
}

func TestPathChildExistencePredicate(t *testing.T) {
	doc := queryDoc()
	got := mustCompilePath("/node[util]/name").Select(doc)
	if len(got) != 1 || got[0].Text != "win-a" {
		t.Fatalf("existence predicate: %v", got)
	}
}

func TestPathTextPredicate(t *testing.T) {
	doc := queryDoc()
	got := mustCompilePath("//status[text()='Running']").Select(doc)
	if len(got) != 1 {
		t.Fatalf("text() predicate: want 1, got %d", len(got))
	}
}

func TestPathClarkNamespaceTest(t *testing.T) {
	doc := queryDoc()
	got := mustCompilePath("/{" + nsT + "}node/name").Select(doc)
	if len(got) != 3 {
		t.Fatalf("clark ns test: want 3, got %d", len(got))
	}
	got = mustCompilePath("/{urn:other}node/name").Select(doc)
	if len(got) != 0 {
		t.Fatalf("wrong ns should match nothing, got %d", len(got))
	}
}

func TestPathNilRoot(t *testing.T) {
	if got := mustCompilePath("/a").Select(nil); got != nil {
		t.Fatalf("nil root should select nothing, got %v", got)
	}
}

func TestCompilePathErrors(t *testing.T) {
	bad := []string{
		"", "  ", "/", "/a[", "/a[0]", "/a[@id]", "/a[text()]",
		"/a[b=unquoted]", "/a[b='unterminated]",
	}
	for _, expr := range bad {
		if _, err := CompilePath(expr); err == nil {
			t.Errorf("CompilePath(%q): expected error", expr)
		}
	}
}

func TestPathStackedPredicates(t *testing.T) {
	doc := queryDoc()
	got := mustCompilePath("/node[@os='windows'][2]/name").Select(doc)
	if len(got) != 1 || got[0].Text != "win-b" {
		t.Fatalf("stacked predicates: %v", got)
	}
}

func TestPathStringRoundTrip(t *testing.T) {
	const expr = "/node[@os='linux']/name"
	if got := mustCompilePath(expr).String(); got != expr {
		t.Errorf("String() = %q", got)
	}
}

// TestUnqualifiedAttributePredicateIsDeterministic: an unqualified @name
// matches the local name in any namespace; when two namespaces carry it,
// the first in canonical (Space, Local) order decides, on every run.
func TestUnqualifiedAttributePredicateIsDeterministic(t *testing.T) {
	doc := NewContainer(Q("", "grid"),
		NewElement(Q("", "node"), "n").SetAttr(Q("urn:z", "os"), "linux").SetAttr(Q("urn:a", "os"), "windows"))
	is, isNot := mustCompilePath("/node[@os='windows']"), mustCompilePath("/node[@os='linux']")
	for run := 0; run < 100; run++ {
		if len(is.Select(doc)) != 1 || len(isNot.Select(doc)) != 0 {
			t.Fatalf("run %d: @os read as linux; {urn:a}os (windows) sorts first", run)
		}
	}
}
