package xmlutil

import (
	"fmt"
	"strconv"
	"strings"
)

// Path is a compiled XPath-lite expression. The dialect supports the
// subset of XPath 1.0 that QueryResourceProperties callers in the paper's
// testbed rely on:
//
//	/a/b          absolute child steps
//	a/b           relative child steps
//	//a           descendant-or-self search
//	*             wildcard name test
//	a[3]          positional predicate (1-based, as in XPath)
//	a[@id='x']    attribute equality predicate
//	a[b='x']      child-text equality predicate
//	a[b]          child-existence predicate
//	a[text()='x'] own-text equality predicate
//
// Name tests match on local name; a Clark-notation test ({ns}local)
// additionally requires the namespace to match.
type Path struct {
	steps []pathStep
	src   string
}

type pathStep struct {
	descendant bool // true when the step was introduced by '//'
	name       QName
	wildcard   bool
	preds      []predicate
}

type predicate struct {
	position int // 1-based; 0 when not positional
	attr     QName
	child    QName
	ownText  bool
	exists   bool // child-existence test (no comparison)
	negate   bool // '!=' instead of '='
	value    string
}

// CompilePath parses an XPath-lite expression.
func CompilePath(expr string) (*Path, error) {
	s := strings.TrimSpace(expr)
	if s == "" {
		return nil, fmt.Errorf("xmlutil: empty path expression")
	}
	p := &Path{src: expr}
	descendant := false
	if strings.HasPrefix(s, "//") {
		descendant = true
		s = s[2:]
	} else if strings.HasPrefix(s, "/") {
		s = s[1:]
	}
	for len(s) > 0 {
		var raw string
		raw, s = cutStep(s)
		if raw == "" {
			// produced by "//": next step uses the descendant axis
			descendant = true
			continue
		}
		step, err := parseStep(raw)
		if err != nil {
			return nil, fmt.Errorf("xmlutil: path %q: %w", expr, err)
		}
		step.descendant = descendant
		descendant = false
		p.steps = append(p.steps, step)
	}
	if len(p.steps) == 0 {
		return nil, fmt.Errorf("xmlutil: path %q has no steps", expr)
	}
	return p, nil
}

// String returns the original expression text.
func (p *Path) String() string { return p.src }

// cutStep splits off the next step, honouring brackets and braces so '/'
// inside predicates or Clark-notation namespaces does not terminate the
// step.
func cutStep(s string) (step, rest string) {
	depth := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '[', '{':
			depth++
		case ']', '}':
			depth--
		case '/':
			if depth == 0 {
				return s[:i], s[i+1:]
			}
		}
	}
	return s, ""
}

func parseStep(raw string) (pathStep, error) {
	var st pathStep
	name := raw
	for {
		open := strings.IndexByte(name, '[')
		if open < 0 {
			break
		}
		closeIdx := matchBracket(name, open)
		if closeIdx < 0 {
			return st, fmt.Errorf("unbalanced '[' in step %q", raw)
		}
		pred, err := parsePredicate(name[open+1 : closeIdx])
		if err != nil {
			return st, err
		}
		st.preds = append(st.preds, pred)
		name = name[:open] + name[closeIdx+1:]
	}
	name = strings.TrimSpace(name)
	if name == "*" {
		st.wildcard = true
		return st, nil
	}
	q, err := ParseQName(name)
	if err != nil {
		return st, err
	}
	st.name = q
	return st, nil
}

func matchBracket(s string, open int) int {
	depth := 0
	for i := open; i < len(s); i++ {
		switch s[i] {
		case '[':
			depth++
		case ']':
			depth--
			if depth == 0 {
				return i
			}
		}
	}
	return -1
}

func parsePredicate(body string) (predicate, error) {
	body = strings.TrimSpace(body)
	if body == "" {
		return predicate{}, fmt.Errorf("empty predicate")
	}
	if n, err := strconv.Atoi(body); err == nil {
		if n < 1 {
			return predicate{}, fmt.Errorf("position predicate must be >= 1, got %d", n)
		}
		return predicate{position: n}, nil
	}
	var pred predicate
	op := "="
	idx := strings.Index(body, "!=")
	if idx >= 0 {
		op = "!="
		pred.negate = true
	} else {
		idx = strings.IndexByte(body, '=')
	}
	var lhs, rhs string
	if idx < 0 {
		lhs = body
		pred.exists = true
	} else {
		lhs = strings.TrimSpace(body[:idx])
		rhs = strings.TrimSpace(body[idx+len(op):])
		v, err := parseLiteral(rhs)
		if err != nil {
			return pred, err
		}
		pred.value = v
	}
	switch {
	case strings.HasPrefix(lhs, "@"):
		q, err := ParseQName(lhs[1:])
		if err != nil {
			return pred, err
		}
		pred.attr = q
		if pred.exists {
			return pred, fmt.Errorf("attribute predicate %q requires a comparison", body)
		}
	case lhs == "text()":
		pred.ownText = true
		if pred.exists {
			return pred, fmt.Errorf("text() predicate requires a comparison")
		}
	default:
		q, err := ParseQName(lhs)
		if err != nil {
			return pred, err
		}
		pred.child = q
	}
	return pred, nil
}

func parseLiteral(s string) (string, error) {
	if len(s) >= 2 && (s[0] == '\'' || s[0] == '"') {
		if s[len(s)-1] != s[0] {
			return "", fmt.Errorf("unterminated string literal %q", s)
		}
		return s[1 : len(s)-1], nil
	}
	if _, err := strconv.ParseFloat(s, 64); err == nil {
		return s, nil
	}
	return "", fmt.Errorf("invalid literal %q", s)
}

// Select evaluates the path against root and returns matching elements.
// The root element itself is the initial context: the first step matches
// root's children (absolute paths address the document the way
// QueryResourceProperties addresses the resource properties document).
func (p *Path) Select(root *Element) []*Element {
	if root == nil {
		return nil
	}
	ctx := []*Element{root}
	for _, st := range p.steps {
		var next []*Element
		for _, node := range ctx {
			if st.descendant {
				collectDescendants(node, st, &next)
			} else {
				var group []*Element
				for _, c := range node.Children {
					if st.matchesName(c) {
						group = append(group, c)
					}
				}
				next = append(next, applyPredicates(group, st.preds)...)
			}
		}
		ctx = next
		if len(ctx) == 0 {
			return nil
		}
	}
	return ctx
}

func collectDescendants(node *Element, st pathStep, out *[]*Element) {
	var group []*Element
	var walk func(e *Element)
	walk = func(e *Element) {
		if st.matchesName(e) {
			group = append(group, e)
		}
		for _, c := range e.Children {
			walk(c)
		}
	}
	// descendant-or-self on each child; node itself is context, not target
	for _, c := range node.Children {
		walk(c)
	}
	*out = append(*out, applyPredicates(group, st.preds)...)
}

func (st pathStep) matchesName(e *Element) bool {
	if st.wildcard {
		return true
	}
	if st.name.Space != "" {
		return e.Name == st.name
	}
	return e.Name.Local == st.name.Local
}

func applyPredicates(group []*Element, preds []predicate) []*Element {
	for _, pred := range preds {
		var kept []*Element
		for i, e := range group {
			if pred.holds(e, i+1) {
				kept = append(kept, e)
			}
		}
		group = kept
	}
	return group
}

func (pred predicate) holds(e *Element, pos int) bool {
	switch {
	case pred.position > 0:
		return pos == pred.position
	case !pred.attr.IsZero():
		got, ok := lookupAttr(e, pred.attr)
		if !ok {
			return false
		}
		return (got == pred.value) != pred.negate
	case pred.ownText:
		return (e.Text == pred.value) != pred.negate
	case !pred.child.IsZero():
		var child *Element
		for _, c := range e.Children {
			if pred.child.Space != "" {
				if c.Name == pred.child {
					child = c
					break
				}
			} else if c.Name.Local == pred.child.Local {
				child = c
				break
			}
		}
		if pred.exists {
			return child != nil
		}
		if child == nil {
			return false
		}
		return (child.Text == pred.value) != pred.negate
	}
	return false
}

// lookupAttr finds the attribute a predicate names. An unqualified name
// matches the local name in any namespace, the first in canonical order
// when several namespaces carry it.
func lookupAttr(e *Element, name QName) (string, bool) {
	if name.Space != "" {
		i, ok := e.attrIndex(name)
		if !ok {
			return "", false
		}
		return e.Attrs[i].Value, true
	}
	for _, a := range e.Attrs {
		if a.Name.Local == name.Local {
			return a.Value, true
		}
	}
	return "", false
}
