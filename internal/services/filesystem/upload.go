package filesystem

import (
	"context"
	"fmt"
	"strconv"

	"uvacg/internal/soap"
	"uvacg/internal/vfs"
	"uvacg/internal/wsa"
	"uvacg/internal/wsrf"
	"uvacg/internal/xmlutil"
)

// Caller is the request-response slice of transport.Client these wire
// helpers need; *transport.Client satisfies it. Invoke gives the file
// helpers the full reply envelope, whose binary attachments carry file
// bytes.
type Caller interface {
	Call(ctx context.Context, to wsa.EndpointReference, action string, body *xmlutil.Element) (*xmlutil.Element, error)
	Invoke(ctx context.Context, to wsa.EndpointReference, action string, env *soap.Envelope) (*soap.Envelope, error)
}

// UploadRequest builds the body of an Upload (or UploadSync) message:
// the set of {EPR, filename, jobname} tuples plus, for the async form,
// the endpoint to notify on completion and an opaque token echoed back
// so the receiver can correlate the notification.
func UploadRequest(notifyTo wsa.EndpointReference, token string, files []FileRef) *xmlutil.Element {
	req := &xmlutil.Element{Name: qUpload}
	if !notifyTo.IsZero() {
		req.Append(notifyTo.ElementNamed(qNotifyTo))
	}
	if token != "" {
		req.Append(xmlutil.NewElement(qToken, token))
	}
	req.Append(FileRefElements(files)...)
	return req
}

// FileRefElements renders file references as <fss:File> elements, for
// embedding in Upload messages and in the Execution Service's RunJob
// request. The Hash/Size/Replicas placement annotations travel as
// optional children — receivers that predate them simply ignore them.
func FileRefElements(files []FileRef) []*xmlutil.Element {
	out := make([]*xmlutil.Element, 0, len(files))
	for _, f := range files {
		el := xmlutil.NewContainer(qFile,
			f.Source.ElementNamed(qSourceEPR),
			xmlutil.NewElement(qRemoteName, f.RemoteName),
			xmlutil.NewElement(qLocalName, f.LocalName),
		)
		if f.Hash != "" {
			el.Append(xmlutil.NewElement(qHash, f.Hash))
			el.SetAttr(qSize, strconv.FormatInt(f.Size, 10))
		}
		for _, rep := range f.Replicas {
			el.Append(rep.ElementNamed(qReplicaEPR))
		}
		out = append(out, el)
	}
	return out
}

// ParseFileRefElements decodes every <fss:File> child of parent.
func ParseFileRefElements(parent *xmlutil.Element) ([]FileRef, error) {
	var files []FileRef
	for _, f := range parent.ChildrenNamed(qFile) {
		src := f.Child(qSourceEPR)
		if src == nil {
			return nil, fmt.Errorf("fss: file entry has no source EPR")
		}
		srcEPR, err := wsa.ParseEPR(src)
		if err != nil {
			return nil, fmt.Errorf("fss: bad source EPR: %w", err)
		}
		ref := FileRef{
			Source:     srcEPR,
			RemoteName: f.ChildText(qRemoteName),
			LocalName:  f.ChildText(qLocalName),
		}
		if ref.RemoteName == "" {
			return nil, fmt.Errorf("fss: file entry has no remote name")
		}
		if ref.LocalName == "" {
			ref.LocalName = ref.RemoteName
		}
		if h := f.ChildText(qHash); h != "" {
			if !ValidHash(h) {
				return nil, fmt.Errorf("fss: file entry %q has malformed hash %q", ref.RemoteName, h)
			}
			ref.Hash = h
			ref.Size, _ = strconv.ParseInt(f.Attr(qSize), 10, 64)
		}
		for _, rel := range f.ChildrenNamed(qReplicaEPR) {
			rep, err := wsa.ParseEPR(rel)
			if err != nil {
				return nil, fmt.Errorf("fss: bad replica EPR: %w", err)
			}
			ref.Replicas = append(ref.Replicas, rep)
		}
		files = append(files, ref)
	}
	return files, nil
}

// parseUploadRequest decodes an Upload body.
func parseUploadRequest(body *xmlutil.Element) (notifyTo wsa.EndpointReference, token string, files []FileRef, err error) {
	if body == nil {
		return notifyTo, "", nil, fmt.Errorf("fss: Upload requires a body")
	}
	if n := body.Child(qNotifyTo); n != nil {
		notifyTo, err = wsa.ParseEPR(n)
		if err != nil {
			return notifyTo, "", nil, fmt.Errorf("fss: bad NotifyTo: %w", err)
		}
	}
	token = body.ChildText(qToken)
	files, err = ParseFileRefElements(body)
	if err != nil {
		return notifyTo, token, nil, err
	}
	return notifyTo, token, files, nil
}

// handleUpload is the asynchronous upload of paper §4.1: the request is
// a one-way message, the work happens here (the transport has already
// released the sender), and completion is announced by a one-way
// notification to NotifyTo.
func (s *Service) handleUpload(ctx context.Context, inv *wsrf.Invocation, body *xmlutil.Element) (*xmlutil.Element, error) {
	notifyTo, token, files, err := parseUploadRequest(body)
	if err != nil {
		return nil, soap.SenderFault("%v", err)
	}
	path, err := dirPath(inv)
	if err != nil {
		return nil, err
	}
	uploadErr := s.stageFiles(ctx, path, files)

	if !notifyTo.IsZero() {
		complete := xmlutil.NewContainer(qUploadComplete,
			inv.EPR().ElementNamed(qDirectory),
			xmlutil.NewElement(qToken, token),
			xmlutil.NewElement(qSuccess, fmt.Sprint(uploadErr == nil)),
		)
		if uploadErr != nil {
			complete.Append(xmlutil.NewElement(qError, uploadErr.Error()))
		}
		if err := s.client.Notify(ctx, notifyTo, ActionUploadComplete, complete); err != nil {
			return nil, soap.ReceiverFault("fss: completion notification: %v", err)
		}
	}
	if uploadErr != nil {
		return nil, soap.ReceiverFault("fss: upload: %v", uploadErr)
	}
	return nil, nil
}

// handleUploadSync is the blocking baseline (experiment E5): same
// staging, but the caller waits for the reply instead of a
// notification.
func (s *Service) handleUploadSync(ctx context.Context, inv *wsrf.Invocation, body *xmlutil.Element) (*xmlutil.Element, error) {
	_, _, files, err := parseUploadRequest(body)
	if err != nil {
		return nil, soap.SenderFault("%v", err)
	}
	path, err := dirPath(inv)
	if err != nil {
		return nil, err
	}
	if err := s.stageFiles(ctx, path, files); err != nil {
		return nil, soap.ReceiverFault("fss: upload: %v", err)
	}
	return nil, nil
}

// stageFiles retrieves every file into the working directory, then
// announces the freshly staged content on the replica topic.
func (s *Service) stageFiles(ctx context.Context, path string, files []FileRef) error {
	entries := make([]ManifestEntry, 0, len(files))
	for _, f := range files {
		e, err := s.stageOne(ctx, path, f)
		if err != nil {
			return fmt.Errorf("stage %q as %q: %w", f.RemoteName, f.LocalName, err)
		}
		entries = append(entries, e)
	}
	// Deduplicate by installed name (last wins — it is the file that
	// survived) so the published manifest stays canonical.
	byName := make(map[string]int, len(entries))
	dedup := entries[:0]
	for _, e := range entries {
		if i, ok := byName[e.Name]; ok {
			dedup[i] = e
			continue
		}
		byName[e.Name] = len(dedup)
		dedup = append(dedup, e)
	}
	s.publishStored(ctx, dedup)
	return nil
}

// stageOne fetches one file. Routes, cheapest first: the local blob
// cache when the scheduler annotated a content address this machine
// already holds; the local fast path when the source directory is on
// this machine; a blob pull-through from a listed replica; and finally
// the origin fetch — an FSS Read on the source endpoint (peer FSS
// directory or the client's TCP file server, paper §4.6). Whatever the
// route, the content is verified against the expected hash before a
// single atomic vfs.Link installs it, so a concurrent Read serves the
// complete old or the complete new file, never a torn view.
func (s *Service) stageOne(ctx context.Context, destPath string, f FileRef) (ManifestEntry, error) {
	stage := func(c *vfs.Content, route string) (ManifestEntry, error) {
		if f.Hash != "" && c.Hash() != f.Hash {
			return ManifestEntry{}, fmt.Errorf("fss: staged bytes for %q do not match content hash %s (route %s)", f.RemoteName, f.Hash, route)
		}
		e, err := s.install(destPath, f.LocalName, c, SourceKey(f.Source, f.RemoteName))
		if err != nil {
			return ManifestEntry{}, err
		}
		s.noteStage(destPath, e, route)
		return e, nil
	}

	if f.Hash != "" {
		if c, ok := s.blob(f.Hash); ok {
			return stage(c, RouteBlob)
		}
	}
	if f.Source.Address == s.svc.EPR().Address {
		// Local fast path: resolve the source directory resource and link
		// its Content into the destination — no network I/O, no read, no
		// copy, and no hash unless this is the content's first staging.
		// (The paper "moves" the file; both directories keep it, so an
		// output consumed by two dependent jobs survives the first
		// staging.)
		srcID := f.Source.Property(wsrf.QResourceID)
		doc, err := s.svc.LoadResource(srcID)
		if err != nil {
			return ManifestEntry{}, err
		}
		c, err := s.fs.Open(doc.ChildText(QPath), f.RemoteName)
		if err != nil {
			return ManifestEntry{}, err
		}
		return stage(c, RouteLocal)
	}
	if f.Hash != "" {
		for _, rep := range f.Replicas {
			if rep.Address == s.svc.EPR().Address {
				continue // we just checked the local cache
			}
			c, err := FetchBlob(ctx, s.client, rep, f.Hash)
			if err != nil {
				continue // next replica, then the origin
			}
			return stage(c, RoutePull)
		}
	}
	data, err := FetchFile(ctx, s.client, f.Source, f.RemoteName)
	if err != nil {
		return ManifestEntry{}, err
	}
	return stage(vfs.NewContent(data), RouteWire)
}

// FetchFile reads one file from any endpoint implementing the FSS Read
// action (a directory resource or a client file server). The content
// arrives as a binary attachment, or as inline base64 from a server that
// does not attach; ContentBytes decodes either form, and as there the
// returned bytes may be the holder's own: do not modify them.
func FetchFile(ctx context.Context, c Caller, source wsa.EndpointReference, name string) ([]byte, error) {
	req := soap.New(xmlutil.NewContainer(qRead, xmlutil.NewElement(qFilename, name)))
	resp, err := c.Invoke(ctx, source, ActionRead, req)
	if err != nil {
		return nil, err
	}
	if resp == nil || resp.Body == nil {
		return nil, fmt.Errorf("fss: empty Read response")
	}
	return resp.ContentBytes(resp.Body.Child(qContent))
}

// WriteFile writes one file into a directory resource over the wire,
// attaching the bytes rather than inlining them.
func WriteFile(ctx context.Context, c Caller, dir wsa.EndpointReference, name string, data []byte) error {
	req := &soap.Envelope{}
	req.Body = xmlutil.NewContainer(qWrite,
		xmlutil.NewElement(qFilename, name),
		xmlutil.NewContainer(qContent, req.Attach(data)),
	)
	_, err := c.Invoke(ctx, dir, ActionWrite, req)
	return err
}

// ListDirectory lists a directory resource over the wire.
func ListDirectory(ctx context.Context, c Caller, dir wsa.EndpointReference) (map[string]int64, error) {
	body, err := c.Call(ctx, dir, ActionList, &xmlutil.Element{Name: qList})
	if err != nil {
		return nil, err
	}
	out := make(map[string]int64)
	for _, f := range body.ChildrenNamed(qFile) {
		var size int64
		fmt.Sscanf(f.Attr(qSize), "%d", &size)
		out[f.Attr(qName)] = size
	}
	return out, nil
}

// ParseUploadComplete decodes the completion notification the FSS sends
// (receivers: the Execution Service).
func ParseUploadComplete(body *xmlutil.Element) (dir wsa.EndpointReference, token string, success bool, errMsg string, err error) {
	if body == nil || body.Name != qUploadComplete {
		return dir, "", false, "", fmt.Errorf("fss: body is not an UploadComplete message")
	}
	if d := body.Child(qDirectory); d != nil {
		dir, err = wsa.ParseEPR(d)
		if err != nil {
			return dir, "", false, "", err
		}
	}
	token = body.ChildText(qToken)
	success = body.ChildText(qSuccess) == "true"
	errMsg = body.ChildText(qError)
	return dir, token, success, errMsg, nil
}

// CreateDirectoryVia asks a remote FSS for a fresh working directory and
// returns its resource EPR.
func CreateDirectoryVia(ctx context.Context, c Caller, fss wsa.EndpointReference, prefix string) (wsa.EndpointReference, error) {
	body, err := c.Call(ctx, fss, ActionCreateDirectory, xmlutil.NewContainer(qCreateDirectory, xmlutil.NewElement(qPrefix, prefix)))
	if err != nil {
		return wsa.EndpointReference{}, err
	}
	return wsa.ParseEPR(body)
}
