package filesystem

import (
	"encoding/base64"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"uvacg/internal/vfs"
	"uvacg/internal/wsa"
	"uvacg/internal/xmlutil"
)

// The replica-manifest layer gives every staged file a content address:
// a SHA-256 over its bytes. Manifests travel on the broker (topic
// ReplicaTopic) so the replicator can fan blobs out to K machines and
// the scheduler can weigh data locality into placement. The wire form
// is a strict canonical byte encoding — one valid manifest has exactly
// one encoding — which is what makes the differential round-trip fuzz
// (FuzzManifestRoundTrip) a real oracle: decode∘encode must be the
// identity on valid inputs, byte for byte.

// ReplicaTopic is the root broker topic of the replication layer; the
// concrete change events ride on ReplicaTopic + "/changed".
const ReplicaTopic = "fss-replica"

// replicaChangedTopic carries stored/replicated events.
const replicaChangedTopic = ReplicaTopic + "/changed"

// ReplicaWantTopic carries replica-depth hints: a scheduler admitting a
// job set that asked for K replicas publishes the K here, and the
// replicator raises its target to the maximum it has seen.
const ReplicaWantTopic = ReplicaTopic + "/want"

// ReplicaChanged kinds.
const (
	// ReplicaStored announces that an FSS staged fresh content: the
	// publisher is the only known holder.
	ReplicaStored = "stored"
	// ReplicaReplicated announces the replicator's fan-out result: the
	// holder sets now acked (and journaled) per hash.
	ReplicaReplicated = "replicated"
)

// manifestHeader is the first line of the canonical encoding.
const manifestHeader = "uvacg-manifest/1"

// HashLen is the length of a content hash: SHA-256 as lowercase hex.
const HashLen = 64

// ManifestEntry describes one staged file: its name in the directory,
// its size, its content hash and the source key it was staged from
// (see SourceKey; empty for direct writes).
type ManifestEntry struct {
	Name   string
	Size   int64
	Hash   string
	Source string
}

// Manifest is the per-directory staging record, sorted by Name.
type Manifest struct {
	Entries []ManifestEntry
}

// sortManifest orders entries by name, the canonical order.
func sortManifest(m *Manifest) {
	sort.Slice(m.Entries, func(i, j int) bool { return m.Entries[i].Name < m.Entries[j].Name })
}

// HashBytes computes the content address of a byte slice: what
// vfs.Content.Hash reports for it.
func HashBytes(b []byte) string { return vfs.NewContent(b).Hash() }

// SourceKey names a piece of remote content independent of which
// machine staged it: the canonical string of the source endpoint plus
// the remote file name. The scheduler computes the same key from a
// resolved FileRef, which is how a "stored" event and a dispatch
// decision meet.
func SourceKey(source wsa.EndpointReference, remoteName string) string {
	return source.String() + "|" + remoteName
}

// ValidHash reports whether h is a well-formed content hash: exactly
// HashLen lowercase hex digits.
func ValidHash(h string) bool {
	if len(h) != HashLen {
		return false
	}
	for i := 0; i < len(h); i++ {
		c := h[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// validateEntry rejects entries the canonical encoding cannot carry.
func validateEntry(e ManifestEntry) error {
	if e.Name == "" {
		return fmt.Errorf("fss: manifest entry has no name")
	}
	if strings.ContainsAny(e.Name, "\t\n\r/\\") {
		return fmt.Errorf("fss: manifest name %q contains reserved characters", e.Name)
	}
	if strings.ContainsAny(e.Source, "\t\n\r") {
		return fmt.Errorf("fss: manifest source for %q contains reserved characters", e.Name)
	}
	if e.Size < 0 {
		return fmt.Errorf("fss: manifest entry %q has negative size", e.Name)
	}
	if !ValidHash(e.Hash) {
		return fmt.Errorf("fss: manifest entry %q has malformed hash %q", e.Name, e.Hash)
	}
	return nil
}

// EncodeManifest renders the canonical byte encoding: a header line,
// then one tab-separated "name size hash source" line per entry in
// strictly ascending name order. Duplicate names are rejected — two
// records for one file is a torn manifest, not a manifest.
func EncodeManifest(m Manifest) ([]byte, error) {
	entries := append([]ManifestEntry(nil), m.Entries...)
	sort.Slice(entries, func(i, j int) bool { return entries[i].Name < entries[j].Name })
	var b strings.Builder
	b.WriteString(manifestHeader)
	b.WriteByte('\n')
	for i, e := range entries {
		if err := validateEntry(e); err != nil {
			return nil, err
		}
		if i > 0 && entries[i-1].Name == e.Name {
			return nil, fmt.Errorf("fss: duplicate manifest entry %q", e.Name)
		}
		b.WriteString(e.Name)
		b.WriteByte('\t')
		b.WriteString(strconv.FormatInt(e.Size, 10))
		b.WriteByte('\t')
		b.WriteString(e.Hash)
		b.WriteByte('\t')
		b.WriteString(e.Source)
		b.WriteByte('\n')
	}
	return []byte(b.String()), nil
}

// DecodeManifest parses the canonical encoding, rejecting anything a
// re-encode would not reproduce byte-identically: missing header or
// trailing newline, short or overlong lines, non-canonical sizes,
// malformed hashes, out-of-order or duplicate names.
func DecodeManifest(data []byte) (Manifest, error) {
	var m Manifest
	s := string(data)
	if !strings.HasSuffix(s, "\n") {
		return m, fmt.Errorf("fss: manifest truncated (no trailing newline)")
	}
	lines := strings.Split(strings.TrimSuffix(s, "\n"), "\n")
	if lines[0] != manifestHeader {
		return m, fmt.Errorf("fss: bad manifest header %q", lines[0])
	}
	prev := ""
	for _, line := range lines[1:] {
		fields := strings.Split(line, "\t")
		if len(fields) != 4 {
			return m, fmt.Errorf("fss: manifest line has %d fields, want 4", len(fields))
		}
		size, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return m, fmt.Errorf("fss: bad manifest size %q: %w", fields[1], err)
		}
		if strconv.FormatInt(size, 10) != fields[1] {
			return m, fmt.Errorf("fss: non-canonical manifest size %q", fields[1])
		}
		e := ManifestEntry{Name: fields[0], Size: size, Hash: fields[2], Source: fields[3]}
		if err := validateEntry(e); err != nil {
			return m, err
		}
		if len(m.Entries) > 0 && e.Name <= prev {
			return m, fmt.Errorf("fss: manifest entry %q out of order (after %q)", e.Name, prev)
		}
		prev = e.Name
		m.Entries = append(m.Entries, e)
	}
	return m, nil
}

// ReplicaChanged is one event on the replication topic: an FSS stored
// fresh content (kind ReplicaStored, publisher = only holder) or the
// replicator acked a fan-out (kind ReplicaReplicated, Holders carries
// the journaled holder sets).
type ReplicaChanged struct {
	Kind     string
	Host     string
	FSS      wsa.EndpointReference
	Manifest Manifest
	// Holders maps hash → FSS service addresses known to hold the blob.
	Holders map[string][]string
}

// Replica message QNames.
var (
	qReplicaChanged = xmlutil.Q(NS, "ReplicaChanged")
	qReplicaKind    = xmlutil.Q("", "kind")
	qReplicaHost    = xmlutil.Q("", "host")
	qFSSEPR         = xmlutil.Q(NS, "FSSEPR")
	qManifest       = xmlutil.Q(NS, "Manifest")
	qHolders        = xmlutil.Q(NS, "Holders")
	qHashAttr       = xmlutil.Q("", "hash")
	qHolder         = xmlutil.Q(NS, "Holder")
	qReplicaWant    = xmlutil.Q(NS, "ReplicaWant")
	qWantAttr       = xmlutil.Q("", "count")
)

// ReplicaWantMessage renders a replica-depth hint.
func ReplicaWantMessage(count int) *xmlutil.Element {
	msg := &xmlutil.Element{Name: qReplicaWant}
	msg.SetAttr(qWantAttr, strconv.Itoa(count))
	return msg
}

// ParseReplicaWant decodes a replica-depth hint.
func ParseReplicaWant(msg *xmlutil.Element) (int, error) {
	if msg == nil || msg.Name != qReplicaWant {
		return 0, fmt.Errorf("fss: message is not a ReplicaWant")
	}
	count, err := strconv.Atoi(msg.Attr(qWantAttr))
	if err != nil || count <= 0 {
		return 0, fmt.Errorf("fss: bad replica want count %q", msg.Attr(qWantAttr))
	}
	return count, nil
}

// ReplicaChangedMessage renders the event; the manifest rides as the
// base64 of its canonical encoding, so the wire exercises the same
// codec the fuzz target pins.
func ReplicaChangedMessage(rc ReplicaChanged) (*xmlutil.Element, error) {
	enc, err := EncodeManifest(rc.Manifest)
	if err != nil {
		return nil, err
	}
	msg := &xmlutil.Element{Name: qReplicaChanged}
	msg.SetAttr(qReplicaKind, rc.Kind)
	msg.SetAttr(qReplicaHost, rc.Host)
	if !rc.FSS.IsZero() {
		msg.Append(rc.FSS.ElementNamed(qFSSEPR))
	}
	msg.Append(xmlutil.NewElement(qManifest, base64.StdEncoding.EncodeToString(enc)))
	hashes := make([]string, 0, len(rc.Holders))
	for h := range rc.Holders {
		hashes = append(hashes, h)
	}
	sort.Strings(hashes)
	for _, h := range hashes {
		he := xmlutil.NewElement(qHolders, "")
		he.SetAttr(qHashAttr, h)
		for _, addr := range rc.Holders[h] {
			he.Append(xmlutil.NewElement(qHolder, addr))
		}
		msg.Append(he)
	}
	return msg, nil
}

// ParseReplicaChanged decodes the event. A "stored" event without
// explicit holder lists defaults every manifest hash's holders to the
// publishing FSS.
func ParseReplicaChanged(msg *xmlutil.Element) (ReplicaChanged, error) {
	var rc ReplicaChanged
	if msg == nil || msg.Name != qReplicaChanged {
		return rc, fmt.Errorf("fss: message is not a ReplicaChanged")
	}
	rc.Kind = msg.Attr(qReplicaKind)
	rc.Host = msg.Attr(qReplicaHost)
	if el := msg.Child(qFSSEPR); el != nil {
		epr, err := wsa.ParseEPR(el)
		if err != nil {
			return rc, fmt.Errorf("fss: bad FSS EPR: %w", err)
		}
		rc.FSS = epr
	}
	raw, err := base64.StdEncoding.DecodeString(msg.ChildText(qManifest))
	if err != nil {
		return rc, fmt.Errorf("fss: bad manifest encoding: %w", err)
	}
	if rc.Manifest, err = DecodeManifest(raw); err != nil {
		return rc, err
	}
	rc.Holders = make(map[string][]string)
	for _, he := range msg.ChildrenNamed(qHolders) {
		h := he.Attr(qHashAttr)
		if !ValidHash(h) {
			return rc, fmt.Errorf("fss: holder list with malformed hash %q", h)
		}
		for _, hl := range he.ChildrenNamed(qHolder) {
			if hl.Text != "" {
				rc.Holders[h] = append(rc.Holders[h], hl.Text)
			}
		}
	}
	if rc.Kind == ReplicaStored && !rc.FSS.IsZero() {
		for _, e := range rc.Manifest.Entries {
			if len(rc.Holders[e.Hash]) == 0 {
				rc.Holders[e.Hash] = []string{rc.FSS.Address}
			}
		}
	}
	return rc, nil
}
