package filesystem

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"uvacg/internal/soap"
	"uvacg/internal/transport"
	"uvacg/internal/vfs"
	"uvacg/internal/warm"
	"uvacg/internal/wsa"
	"uvacg/internal/wsrf"
	"uvacg/internal/xmlutil"
)

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
// request.
func FileRefElements(files []FileRef) []*xmlutil.Element {
	out := make([]*xmlutil.Element, 0, len(files))
	for _, f := range files {
		out = append(out, xmlutil.NewContainer(qFile,
			f.Source.ElementNamed(qSourceEPR),
			xmlutil.NewElement(qRemoteName, f.RemoteName),
			xmlutil.NewElement(qLocalName, f.LocalName),
		))
	}
	return out
}

// ParseFileRefElements decodes every <fss:File> child of parent. Children
// it does not know are ignored, so the content-hash and replica
// annotations older masters attached still stage, by the wire route. Two
// files under one local name are refused: which one a job found would
// depend on which fetch finished last.
func ParseFileRefElements(parent *xmlutil.Element) ([]FileRef, error) {
	var files []FileRef
	entries := parent.ChildrenNamed(qFile)
	staged := make(map[string]bool, len(entries))
	for _, f := range entries {
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
		if staged[ref.LocalName] {
			return nil, fmt.Errorf("fss: two files are staged as %q", ref.LocalName)
		}
		staged[ref.LocalName] = true
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
			xmlutil.NewElement(QPath, path),
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

// maxFetches bounds how many of one job's files are fetched at once, so
// that a job naming hundreds of inputs cannot open hundreds of
// connections to one producer.
const maxFetches = 8

// stageFiles retrieves every file into the working directory. The fetches
// overlap: this goroutine stages the first file and up to maxFetches-1
// warm workers take the rest, each staging one file after another, and
// every fetch links its own file as soon as it has it. The staged names
// are unique (ParseFileRefElements), so the directory ends the same
// whatever order the fetches finish in. Once every fetch has ended, the
// first failure in request order is the verdict.
func (s *Service) stageFiles(ctx context.Context, path string, files []FileRef) error {
	errs := make([]error, len(files))
	var next atomic.Int64 // the last file index taken; this goroutine holds 0
	fetch := func() {
		for i := int(next.Add(1)); i < len(files); i = int(next.Add(1)) {
			errs[i] = s.stageOne(ctx, path, files[i])
		}
	}
	var wg sync.WaitGroup
	for range min(len(files), maxFetches) - 1 {
		wg.Add(1)
		warm.Go(func() {
			defer wg.Done()
			fetch()
		})
	}
	if len(files) > 0 {
		errs[0] = s.stageOne(ctx, path, files[0])
		fetch()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("stage %q as %q: %w", files[i].RemoteName, files[i].LocalName, err)
		}
	}
	return nil
}

// stageOne fetches one file by one of two routes. When the source
// directory is on this machine, its Content is linked into the
// destination: no network I/O, no read, no copy. (The paper "moves" the
// file; both directories keep it, so an output consumed by two dependent
// jobs survives the first staging.) Otherwise the file is fetched with an
// FSS Read on the source endpoint — a peer FSS directory or the client's
// TCP file server (paper §4.6). Either way a single atomic vfs.Link
// installs it, so a concurrent Read serves the complete old or the
// complete new file, never a torn view.
func (s *Service) stageOne(ctx context.Context, destPath string, f FileRef) error {
	var c *vfs.Content
	route := RouteLocal
	if f.Source.Address == s.svc.EPR().Address {
		doc, err := s.svc.LoadResource(f.Source.Property(wsrf.QResourceID))
		if err != nil {
			return err
		}
		if c, err = s.fs.Open(doc.ChildText(QPath), f.RemoteName); err != nil {
			return err
		}
	} else {
		data, err := FetchFile(ctx, s.client, f.Source, f.RemoteName)
		if err != nil {
			return err
		}
		c, route = vfs.NewContent(data), RouteWire
	}
	if err := s.fs.Link(destPath, f.LocalName, c); err != nil {
		return err
	}
	if s.onStage != nil {
		s.onStage(StageRecord{Host: s.host, Dir: destPath, File: f, Content: c, Route: route})
	}
	return nil
}

// FetchFile reads one file from any endpoint implementing the FSS Read
// action (a directory resource or a client file server). The content
// arrives as a binary attachment, or as inline base64 from a server that
// does not attach; ContentBytes decodes either form, and as there the
// returned bytes may be the holder's own: do not modify them.
func FetchFile(ctx context.Context, c *transport.Client, source wsa.EndpointReference, name string) ([]byte, error) {
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
func WriteFile(ctx context.Context, c *transport.Client, dir wsa.EndpointReference, name string, data []byte) error {
	req := &soap.Envelope{}
	req.Body = xmlutil.NewContainer(qWrite,
		xmlutil.NewElement(qFilename, name),
		xmlutil.NewContainer(qContent, req.Attach(data)),
	)
	_, err := c.Invoke(ctx, dir, ActionWrite, req)
	return err
}

// ListDirectory lists a directory resource over the wire.
func ListDirectory(ctx context.Context, c *transport.Client, dir wsa.EndpointReference) (map[string]int64, error) {
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

// UploadCompletion is what an UploadComplete notification says.
type UploadCompletion struct {
	// Directory is the working directory's resource; Path is where that
	// directory lives on the FSS's machine, so the receiver — the same
	// machine's ES — spawns in it without reading it back.
	Directory wsa.EndpointReference
	Path      string
	// Token echoes the Upload request's.
	Token   string
	Success bool
	Error   string
}

// ParseUploadComplete decodes the completion notification the FSS sends
// (receivers: the Execution Service).
func ParseUploadComplete(body *xmlutil.Element) (UploadCompletion, error) {
	var c UploadCompletion
	if body == nil || body.Name != qUploadComplete {
		return c, fmt.Errorf("fss: body is not an UploadComplete message")
	}
	if d := body.Child(qDirectory); d != nil {
		dir, err := wsa.ParseEPR(d)
		if err != nil {
			return c, err
		}
		c.Directory = dir
	}
	c.Path = body.ChildText(QPath)
	c.Token = body.ChildText(qToken)
	c.Success = body.ChildText(qSuccess) == "true"
	c.Error = body.ChildText(qError)
	return c, nil
}

// CreateDirectoryVia asks a remote FSS for a fresh working directory and
// returns its resource EPR.
func CreateDirectoryVia(ctx context.Context, c *transport.Client, fss wsa.EndpointReference, prefix string) (wsa.EndpointReference, error) {
	body, err := c.Call(ctx, fss, ActionCreateDirectory, xmlutil.NewContainer(qCreateDirectory, xmlutil.NewElement(qPrefix, prefix)))
	if err != nil {
		return wsa.EndpointReference{}, err
	}
	return wsa.ParseEPR(body)
}
