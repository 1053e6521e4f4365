package wsrf

import (
	"fmt"

	"uvacg/internal/wsa"
	"uvacg/internal/xmlutil"
)

// WS-ServiceGroup element names.
var (
	qEntry     = xmlutil.Q(NSServiceGroup, "Entry")
	qMemberEPR = xmlutil.Q(NSServiceGroup, "MemberServiceEPR")
	qContent   = xmlutil.Q(NSServiceGroup, "Content")
	qEntryKey  = xmlutil.Q("", "key")
)

// Entry is one member of a service group: a member EPR plus arbitrary
// content describing it (for the Node Info Service, the processor's
// hardware description and current utilization).
type Entry struct {
	Key     string
	Member  wsa.EndpointReference
	Content *xmlutil.Element
}

// NewServiceGroupDocument builds the initial state document of a group
// resource, whose Entry elements are its members. The Node Info Service
// is a service group "whose members represent the processors available
// for scheduling" (paper §4.4). No generic WS-ServiceGroup Add reaches a
// group here: the service that owns one writes it with AddEntry, from
// messages it validates itself.
func NewServiceGroupDocument() *xmlutil.Element {
	return xmlutil.NewContainer(xmlutil.Q(NSServiceGroup, "ServiceGroupRP"))
}

// AddEntry appends a member entry to a group document, returning its
// key. If an entry for the same member EPR exists, its content is
// replaced instead (re-registration is idempotent, which lets machines
// rejoin the grid after restart).
func AddEntry(groupDoc *xmlutil.Element, member wsa.EndpointReference, content *xmlutil.Element) string {
	memberKey := member.String()
	for _, e := range groupDoc.ChildrenNamed(qEntry) {
		existing, err := entryFromElement(e)
		if err == nil && existing.Member.String() == memberKey {
			// Replace content in place.
			e.Children = e.Children[:0]
			e.Append(member.ElementNamed(qMemberEPR))
			if content != nil {
				e.Append(xmlutil.NewContainer(qContent, content.Clone()))
			}
			return existing.Key
		}
	}
	key := fmt.Sprintf("entry-%d", len(groupDoc.ChildrenNamed(qEntry))+1)
	// Guard against key collisions after removals.
	for keyInUse(groupDoc, key) {
		key += "x"
	}
	entry := xmlutil.NewContainer(qEntry, member.ElementNamed(qMemberEPR))
	entry.SetAttr(qEntryKey, key)
	if content != nil {
		entry.Append(xmlutil.NewContainer(qContent, content.Clone()))
	}
	groupDoc.Append(entry)
	return key
}

func keyInUse(groupDoc *xmlutil.Element, key string) bool {
	for _, e := range groupDoc.ChildrenNamed(qEntry) {
		if e.Attr(qEntryKey) == key {
			return true
		}
	}
	return false
}

// Entries decodes every entry in a group document.
func Entries(groupDoc *xmlutil.Element) ([]Entry, error) {
	var out []Entry
	for _, e := range groupDoc.ChildrenNamed(qEntry) {
		entry, err := entryFromElement(e)
		if err != nil {
			return nil, err
		}
		out = append(out, entry)
	}
	return out, nil
}

func entryFromElement(e *xmlutil.Element) (Entry, error) {
	memberEl := e.Child(qMemberEPR)
	if memberEl == nil {
		return Entry{}, fmt.Errorf("wsrf: group entry has no member EPR")
	}
	member, err := wsa.ParseEPR(memberEl)
	if err != nil {
		return Entry{}, err
	}
	entry := Entry{Key: e.Attr(qEntryKey), Member: member}
	if c := e.Child(qContent); c != nil && len(c.Children) > 0 {
		entry.Content = c.Children[0]
	}
	return entry, nil
}
