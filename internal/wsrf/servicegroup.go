package wsrf

import (
	"context"
	"fmt"

	"uvacg/internal/soap"
	"uvacg/internal/wsa"
	"uvacg/internal/xmlutil"
)

// WS-ServiceGroup element names.
var (
	qEntry       = xmlutil.Q(NSServiceGroup, "Entry")
	qMemberEPR   = xmlutil.Q(NSServiceGroup, "MemberServiceEPR")
	qContent     = xmlutil.Q(NSServiceGroup, "Content")
	qAdd         = xmlutil.Q(NSServiceGroup, "Add")
	qAddResponse = xmlutil.Q(NSServiceGroup, "AddResponse")
	qEntryKey    = xmlutil.Q("", "key")
)

// Entry is one member of a service group: a member EPR plus arbitrary
// content describing it (for the Node Info Service, the processor's
// hardware description and current utilization).
type Entry struct {
	Key     string
	Member  wsa.EndpointReference
	Content *xmlutil.Element
}

// ServiceGroupPortType implements WS-ServiceGroup over a group resource
// whose state document holds the Entry elements. The Node Info Service
// is a service group "whose members represent the processors available
// for scheduling" (paper §4.4).
type ServiceGroupPortType struct{}

// Attach implements PortType.
func (ServiceGroupPortType) Attach(s *Service) {
	s.RegisterMethod(ActionAdd, s.handleAdd)
}

func (s *Service) handleAdd(ctx context.Context, inv *Invocation, body *xmlutil.Element) (*xmlutil.Element, error) {
	if body == nil {
		return nil, soap.SenderFault("Add requires a request body")
	}
	memberEl := body.Child(qMemberEPR)
	if memberEl == nil {
		return nil, soap.SenderFault("Add requires a MemberServiceEPR")
	}
	member, err := wsa.ParseEPR(memberEl)
	if err != nil {
		return nil, soap.SenderFault("bad member EPR: %v", err)
	}
	var content *xmlutil.Element
	if c := body.Child(qContent); c != nil && len(c.Children) > 0 {
		content = c.Children[0].Clone()
	}
	key := AddEntry(inv.Doc, member, content)
	return xmlutil.NewContainer(qAddResponse, xmlutil.NewElement(xmlutil.Q(NSServiceGroup, "EntryKey"), key)), nil
}

// NewServiceGroupDocument builds the initial state document of a group
// resource.
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
