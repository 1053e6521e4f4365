package wsrf

import (
	"fmt"

	"uvacg/internal/resourcedb"
	"uvacg/internal/wsa"
	"uvacg/internal/xmlutil"
)

// WS-ServiceGroup element names.
var (
	qEntry     = xmlutil.Q(NSServiceGroup, "Entry")
	qMemberEPR = xmlutil.Q(NSServiceGroup, "MemberServiceEPR")
	qContent   = xmlutil.Q(NSServiceGroup, "Content")
)

// Entry is one member of a service group: a member EPR plus arbitrary
// content describing it (for the Node Info Service, the processor's
// hardware description and current utilization).
type Entry struct {
	Member  wsa.EndpointReference
	Content *xmlutil.Element
}

// NewServiceGroupDocument builds an empty group document, whose Entry
// elements are its members. The Node Info Service is a service group
// "whose members represent the processors available for scheduling"
// (paper §4.4).
func NewServiceGroupDocument() *xmlutil.Element {
	return xmlutil.NewContainer(xmlutil.Q(NSServiceGroup, "ServiceGroupRP"))
}

// NewEntry builds the document of one member's entry.
func NewEntry(member wsa.EndpointReference, content *xmlutil.Element) *xmlutil.Element {
	entry := xmlutil.NewContainer(qEntry, member.ElementNamed(qMemberEPR))
	if content != nil {
		entry.Append(xmlutil.NewContainer(qContent, content))
	}
	return entry
}

// GroupHome is the home of a service group whose entries are
// WS-Resources of their own, as WS-ServiceGroup has them: one row per
// member, keyed by the member's EPR and written whole by Service.Renew,
// so that each entry carries its own termination time. The group
// resource has no row. Its document is assembled from the entries on
// each read, and nothing writes it.
type GroupHome struct {
	*StateHome
	group string
}

// NewGroupHome keeps the entries of the group resource group in table.
func NewGroupHome(group string, table *resourcedb.Table) *GroupHome {
	return &GroupHome{StateHome: NewStateHome(table), group: group}
}

// Load implements ResourceHome. An entry that expires while the group is
// assembled is left out.
func (h *GroupHome) Load(id string) (*xmlutil.Element, error) {
	if id != h.group {
		return h.StateHome.Load(id)
	}
	doc := NewServiceGroupDocument()
	for _, entry := range h.table.IDs() {
		row, ok, err := h.table.Get(entry)
		if err != nil {
			return nil, err
		}
		if ok {
			doc.Append(row)
		}
	}
	return doc, nil
}

// Exists implements ResourceHome.
func (h *GroupHome) Exists(id string) bool { return id == h.group || h.StateHome.Exists(id) }

// IDs implements ResourceHome.
func (h *GroupHome) IDs() []string { return append([]string{h.group}, h.StateHome.IDs()...) }

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
	entry := Entry{Member: member}
	if c := e.Child(qContent); c != nil && len(c.Children) > 0 {
		entry.Content = c.Children[0]
	}
	return entry, nil
}
