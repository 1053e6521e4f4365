// Package wsn implements the WS-Notification family the testbed relies
// on for all asynchronous messaging: WS-Topics (topic trees and the
// Simple/Concrete/Full expression dialects), WS-BaseNotification
// (Subscribe/Notify with subscriptions as WS-Resources), and
// WS-BrokeredNotification (the Notification Broker service that
// multicasts job-set events to the Scheduler and the client, paper
// §4.3). It also provides the "light-weight notification receiver"
// clients run to consume notifications (paper §4.6).
package wsn

import (
	"fmt"
	"strings"

	"uvacg/internal/xmlutil"
)

// Topic expression dialects from WS-Topics.
const (
	// DialectSimple names a single root topic; it matches that topic
	// and everything beneath it.
	DialectSimple = "http://docs.oasis-open.org/wsn/2004/06/TopicExpression/Simple"
	// DialectConcrete names one exact topic path.
	DialectConcrete = "http://docs.oasis-open.org/wsn/2004/06/TopicExpression/Concrete"
	// DialectFull allows wildcards: '*' matches one path segment, '//'
	// matches any number (including zero) of segments.
	DialectFull = "http://docs.oasis-open.org/wsn/2004/06/TopicExpression/Full"
)

// TopicExpression is a compiled subscription filter. Topics are
// '/'-separated paths, e.g. "jobset-42/job-3/exited"; the Scheduler
// generates a unique root topic per job set (paper §4.6) and subscribers
// use a Simple expression on that root to see every event for the set.
type TopicExpression struct {
	Dialect string
	Expr    string
	segs    []string
}

// ParseTopicExpression validates and compiles an expression.
func ParseTopicExpression(dialect, expr string) (*TopicExpression, error) {
	expr = strings.TrimSpace(expr)
	if expr == "" {
		return nil, fmt.Errorf("wsn: empty topic expression")
	}
	segs := splitTopic(expr)
	for i, s := range segs {
		if s == "" && !(dialect == DialectFull && i > 0) {
			return nil, fmt.Errorf("wsn: malformed topic expression %q", expr)
		}
	}
	switch dialect {
	case DialectSimple:
		if len(segs) != 1 {
			return nil, fmt.Errorf("wsn: simple dialect takes a single root topic, got %q", expr)
		}
	case DialectConcrete:
		for _, s := range segs {
			if s == "*" || s == "" {
				return nil, fmt.Errorf("wsn: concrete dialect forbids wildcards in %q", expr)
			}
		}
	case DialectFull:
		// all segment shapes permitted
	default:
		return nil, fmt.Errorf("wsn: unknown topic dialect %q", dialect)
	}
	return &TopicExpression{Dialect: dialect, Expr: expr, segs: segs}, nil
}

// own returns te with strings of its own: an expression parsed from a
// message points into that message's bytes. Its dialect is one of the
// three ParseTopicExpression accepts, so it takes the constant's.
func (te *TopicExpression) own() *TopicExpression {
	dialect := DialectFull
	switch te.Dialect {
	case DialectSimple:
		dialect = DialectSimple
	case DialectConcrete:
		dialect = DialectConcrete
	}
	expr := strings.Clone(te.Expr)
	return &TopicExpression{Dialect: dialect, Expr: expr, segs: splitTopic(expr)}
}

// MustTopicExpression is ParseTopicExpression that panics on error.
func MustTopicExpression(dialect, expr string) *TopicExpression {
	te, err := ParseTopicExpression(dialect, expr)
	if err != nil {
		panic(err)
	}
	return te
}

// Simple builds a Simple-dialect expression for a root topic.
func Simple(root string) *TopicExpression {
	return MustTopicExpression(DialectSimple, root)
}

// splitTopic splits a topic path; "//" yields an empty segment that the
// Full dialect treats as a descendant gap.
func splitTopic(s string) []string {
	return strings.Split(s, "/")
}

// Matches reports whether a concrete topic path satisfies the
// expression.
func (te *TopicExpression) Matches(topic string) bool {
	t := splitTopic(topic)
	switch te.Dialect {
	case DialectSimple:
		return len(t) >= 1 && t[0] == te.segs[0]
	case DialectConcrete:
		if len(t) != len(te.segs) {
			return false
		}
		for i := range t {
			if t[i] != te.segs[i] {
				return false
			}
		}
		return true
	case DialectFull:
		return matchFull(te.segs, t)
	}
	return false
}

// matchFull matches pattern segments against topic segments; "*" matches
// exactly one segment and "" (from "//") matches any run of segments.
func matchFull(pat, topic []string) bool {
	if len(pat) == 0 {
		return len(topic) == 0
	}
	switch pat[0] {
	case "":
		// Descendant gap: try consuming 0..len(topic) segments.
		for skip := 0; skip <= len(topic); skip++ {
			if matchFull(pat[1:], topic[skip:]) {
				return true
			}
		}
		return false
	case "*":
		return len(topic) > 0 && matchFull(pat[1:], topic[1:])
	default:
		return len(topic) > 0 && topic[0] == pat[0] && matchFull(pat[1:], topic[1:])
	}
}

// Element renders the expression as a TopicExpression element under the
// given name.
func (te *TopicExpression) Element(name xmlutil.QName) *xmlutil.Element {
	el := xmlutil.NewElement(name, te.Expr)
	el.SetAttr(qDialectAttr, te.Dialect)
	return el
}

// ParseTopicExpressionElement decodes an expression element.
func ParseTopicExpressionElement(el *xmlutil.Element) (*TopicExpression, error) {
	if el == nil {
		return nil, fmt.Errorf("wsn: nil topic expression element")
	}
	dialect := el.Attr(qDialectAttr)
	if dialect == "" {
		dialect = DialectConcrete
	}
	return ParseTopicExpression(dialect, el.Text)
}
