package filesystem

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"uvacg/internal/soap"
	"uvacg/internal/vfs"
	"uvacg/internal/wsa"
	"uvacg/internal/wsrf"
	"uvacg/internal/xmlutil"
)

// The blob index is the FSS's content-addressed view of the machine's
// files: every staged or written file's vfs.Content, keyed by its
// SHA-256. The index and the directory entries point at the same Content
// — one copy of the bytes and one hash per content per machine, however
// many directories hold it. Contents are immutable — a hash names
// exactly one byte string — which is what makes serving the stored slice
// without copying safe, and what makes the pull-through and replication
// installs verifiable: fetched bytes are hashed and checked before
// anything is installed, and the install into the working directory is a
// single atomic vfs.Link, so a concurrent Read sees either the complete
// old or the complete new content, never a torn mix.
//
// Ownership: bytes this FSS allocated or already holds (a wire receive,
// a blob hit, the local route, a process's output) are shared, never
// copied; bytes that are somebody else's (a Write request's content) are
// copied once on the way in.

// Blob-layer action URIs.
const (
	// ActionReadBlob serves a locally held blob by hash (idempotent).
	ActionReadBlob = NS + "/ReadBlob"
	// ActionReplicate asks an FSS to acquire blobs from peer holders.
	ActionReplicate = NS + "/Replicate"
)

// Blob message QNames.
var (
	qReadBlob         = xmlutil.Q(NS, "ReadBlob")
	qReadBlobResponse = xmlutil.Q(NS, "ReadBlobResponse")
	qHash             = xmlutil.Q(NS, "Hash")
	qBlob             = xmlutil.Q(NS, "Blob")
	qBlobSource       = xmlutil.Q(NS, "Source")
	qReplicate        = xmlutil.Q(NS, "Replicate")
	qReplicateResp    = xmlutil.Q(NS, "ReplicateResponse")
	qHeld             = xmlutil.Q(NS, "Held")
)

// BlobRef names one blob to replicate: its content address, expected
// size and the FSS service addresses known to hold it.
type BlobRef struct {
	Hash    string
	Size    int64
	Sources []string
}

// heldBlob is one entry of the blob index.
type heldBlob struct {
	content *vfs.Content
	// pinned: this FSS told someone it holds the blob — a "stored" event
	// on the replica topic or a Replicate ack — so the replicator's
	// journal names this machine as a holder and the blob outlives the
	// directories that brought it. Unpinned blobs go with the last
	// directory whose manifest names them (removeDirectory).
	pinned bool
}

// putBlob makes c addressable under its hash (computed here, once, if
// nothing has asked for it yet) and returns the Content the index holds
// for that hash: c, or the one already there, which the caller installs
// in c's place. Same-hash stores are idempotent, so concurrent stagings
// of one file cannot conflict.
func (s *Service) putBlob(c *vfs.Content) *vfs.Content {
	hash := c.Hash()
	s.mu.Lock()
	defer s.mu.Unlock()
	if b, ok := s.blobs[hash]; ok {
		return b.content
	}
	s.blobs[hash] = &heldBlob{content: c}
	return c
}

// blob returns the Content held under hash.
func (s *Service) blob(hash string) (*vfs.Content, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if b, ok := s.blobs[hash]; ok {
		return b.content, true
	}
	return nil, false
}

// pin marks a held blob as announced and reports whether it is held.
func (s *Service) pin(hash string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.blobs[hash]
	if ok {
		b.pinned = true
	}
	return ok
}

// HasBlob reports whether this FSS holds a blob.
func (s *Service) HasBlob(hash string) bool {
	_, ok := s.blob(hash)
	return ok
}

// BlobCount reports how many distinct blobs this FSS holds.
func (s *Service) BlobCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.blobs)
}

// handleReadBlob serves a local blob by hash — the peer-to-peer read
// the pull-through and replication paths ride on.
func (s *Service) handleReadBlob(ctx context.Context, inv *wsrf.Invocation, body *xmlutil.Element) (*xmlutil.Element, error) {
	if body == nil {
		return nil, soap.SenderFault("fss: ReadBlob requires a body")
	}
	hash := body.ChildText(qHash)
	if hash == "" {
		hash = body.Text
	}
	if !ValidHash(hash) {
		return nil, soap.SenderFault("fss: ReadBlob hash %q is malformed", hash)
	}
	c, ok := s.blob(hash)
	if !ok {
		return nil, wsrf.NewBaseFault("NoSuchBlobFault", "fss: no blob %s on %s", hash, s.host).SOAPFault(soap.CodeSender)
	}
	return xmlutil.NewContainer(qReadBlobResponse,
		xmlutil.NewElement(qHash, hash),
		xmlutil.NewContainer(qContent, inv.Attach(c.Bytes())),
	), nil
}

// handleReplicate acquires the listed blobs from their holders: fetch,
// verify the hash, store. Blobs already held are acked without a fetch;
// blobs no listed source could serve are simply absent from the reply —
// the replicator treats them as unacked and retries on the next event.
// Every acked blob is pinned: the ack is what the replicator journals.
func (s *Service) handleReplicate(ctx context.Context, inv *wsrf.Invocation, body *xmlutil.Element) (*xmlutil.Element, error) {
	if body == nil {
		return nil, soap.SenderFault("fss: Replicate requires a body")
	}
	resp := &xmlutil.Element{Name: qReplicateResp}
	for _, be := range body.ChildrenNamed(qBlob) {
		hash := be.Attr(qHashAttr)
		if !ValidHash(hash) {
			return nil, soap.SenderFault("fss: Replicate entry with malformed hash %q", hash)
		}
		if s.pin(hash) {
			resp.Append(xmlutil.NewElement(qHeld, hash))
			continue
		}
		for _, src := range be.ChildrenNamed(qBlobSource) {
			if src.Text == "" || src.Text == s.svc.EPR().Address {
				continue
			}
			c, err := FetchBlob(ctx, s.client, wsa.NewEPR(src.Text), hash)
			if err != nil {
				continue
			}
			s.putBlob(c)
			if !s.pin(hash) {
				continue // swept by a Destroy in between: not held, not acked
			}
			s.replicasHeld.Add(1)
			resp.Append(xmlutil.NewElement(qHeld, hash))
			break
		}
	}
	return resp, nil
}

// FetchBlob reads one blob from a peer FSS and verifies its content
// address before returning — a corrupt or wrong reply is an error, not
// data. What it returns has been hashed already, so storing it hashes
// nothing again.
func FetchBlob(ctx context.Context, c Caller, fss wsa.EndpointReference, hash string) (*vfs.Content, error) {
	req := soap.New(xmlutil.NewContainer(qReadBlob, xmlutil.NewElement(qHash, hash)))
	resp, err := c.Invoke(ctx, fss, ActionReadBlob, req)
	if err != nil {
		return nil, err
	}
	if resp == nil || resp.Body == nil {
		return nil, fmt.Errorf("fss: empty ReadBlob response")
	}
	data, err := resp.ContentBytes(resp.Body.Child(qContent))
	if err != nil {
		return nil, err
	}
	blob := vfs.NewContent(data)
	if got := blob.Hash(); got != hash {
		return nil, fmt.Errorf("fss: blob %s from %s hashed to %s (corrupt or wrong content)", hash, fss.Address, got)
	}
	return blob, nil
}

// ReplicateVia asks an FSS to acquire blobs from their holders,
// returning the hashes it now holds.
func ReplicateVia(ctx context.Context, c Caller, fss wsa.EndpointReference, refs []BlobRef) ([]string, error) {
	req := &xmlutil.Element{Name: qReplicate}
	for _, ref := range refs {
		be := xmlutil.NewElement(qBlob, "")
		be.SetAttr(qHashAttr, ref.Hash)
		be.SetAttr(qSize, strconv.FormatInt(ref.Size, 10))
		for _, src := range ref.Sources {
			be.Append(xmlutil.NewElement(qBlobSource, src))
		}
		req.Append(be)
	}
	body, err := c.Call(ctx, fss, ActionReplicate, req)
	if err != nil {
		return nil, err
	}
	var held []string
	for _, h := range body.ChildrenNamed(qHeld) {
		held = append(held, h.Text)
	}
	return held, nil
}

// ServiceAddressFor derives a machine's FSS service address from any
// co-located service address ("inproc://node-1/ExecutionService" →
// "inproc://node-1/FileSystemService"). Both the replicator and the
// scheduler's locality signal use it, so a holder journaled by one is
// recognizable by the other.
func ServiceAddressFor(addr string) string {
	if addr == "" {
		return ""
	}
	base := addr
	if i := strings.Index(addr, "://"); i >= 0 {
		if j := strings.Index(addr[i+3:], "/"); j >= 0 {
			base = addr[:i+3+j]
		}
	}
	return base + "/FileSystemService"
}
