// Package filesystem implements the File System Service (FSS) of paper
// §4.1: the per-machine service whose WS-Resources are directories. It
// exposes Read, Write and List on a directory resource, a factory that
// provisions fresh working directories, and the asynchronous upload
// protocol — a one-way message listing files to stage, answered by a
// one-way "upload complete" notification so jobs never start before
// their inputs are in place. Files are retrieved from peer FSS
// directories (http/inproc), from the client's TCP file server
// (soap.tcp), or via the local fast path when the file is already on
// this machine.
package filesystem

import (
	"bytes"
	"context"
	"fmt"
	"strconv"

	"uvacg/internal/soap"
	"uvacg/internal/transport"
	"uvacg/internal/vfs"
	"uvacg/internal/wsa"
	"uvacg/internal/wsrf"
	"uvacg/internal/xmlutil"
)

// NS is the FSS message namespace.
const NS = "urn:uvacg:fss"

// Action URIs.
const (
	ActionCreateDirectory = NS + "/CreateDirectory"
	ActionRead            = NS + "/Read"
	ActionWrite           = NS + "/Write"
	ActionList            = NS + "/List"
	ActionUpload          = NS + "/Upload"
	ActionUploadSync      = NS + "/UploadSync"
	ActionUploadComplete  = NS + "/UploadComplete"
)

// Message and property QNames.
var (
	QPath            = xmlutil.Q(NS, "Path")
	QFileCount       = xmlutil.Q(NS, "FileCount")
	QByteCount       = xmlutil.Q(NS, "ByteCount")
	qCreateDirectory = xmlutil.Q(NS, "CreateDirectory")
	qPrefix          = xmlutil.Q(NS, "Prefix")
	qRead            = xmlutil.Q(NS, "Read")
	qReadResponse    = xmlutil.Q(NS, "ReadResponse")
	qWrite           = xmlutil.Q(NS, "Write")
	qList            = xmlutil.Q(NS, "List")
	qListResponse    = xmlutil.Q(NS, "ListResponse")
	qFilename        = xmlutil.Q(NS, "Filename")
	qContent         = xmlutil.Q(NS, "Content")
	qFile            = xmlutil.Q(NS, "File")
	qSize            = xmlutil.Q("", "size")
	qName            = xmlutil.Q("", "name")
	qUpload          = xmlutil.Q(NS, "Upload")
	qUploadComplete  = xmlutil.Q(NS, "UploadComplete")
	qNotifyTo        = xmlutil.Q(NS, "NotifyTo")
	qSourceEPR       = xmlutil.Q(NS, "SourceEPR")
	qRemoteName      = xmlutil.Q(NS, "RemoteName")
	qLocalName       = xmlutil.Q(NS, "LocalName")
	qSuccess         = xmlutil.Q(NS, "Success")
	qError           = xmlutil.Q(NS, "Error")
	qDirectory       = xmlutil.Q(NS, "Directory")
	qToken           = xmlutil.Q(NS, "Token")
)

// FileRef names one file to stage: where it lives (the EPR of the
// directory resource or file server holding it), its name there, and
// the name the job expects — the {EPR, filename, jobname} tuples of
// paper §4.1.
type FileRef struct {
	Source     wsa.EndpointReference
	RemoteName string
	LocalName  string
}

// StageRecord describes one completed staging, for observers (the
// simulator's byte-identity ledger).
type StageRecord struct {
	// Host is the staging machine; Dir its working-directory path.
	Host string
	Dir  string
	// File is what was staged; Content the bytes installed under
	// File.LocalName.
	File    FileRef
	Content *vfs.Content
	// Route says how the bytes arrived: RouteLocal or RouteWire.
	Route string
}

// Staging routes.
const (
	// RouteLocal links a directory entry already on this machine.
	RouteLocal = "local"
	// RouteWire fetches the file from its source endpoint.
	RouteWire = "wire"
)

// gridRoot is the directory all working directories are created under.
const gridRoot = "/grid"

// Service is one machine's FSS.
type Service struct {
	svc    *wsrf.Service
	fs     *vfs.FS
	client *transport.Client

	// host names this machine in stage records, which onStage observes.
	host    string
	onStage func(StageRecord)
}

// Config assembles an FSS.
type Config struct {
	// Address is the machine's base address ("inproc://node-a").
	Address string
	// FS is the machine's grid file system.
	FS *vfs.FS
	// Client performs outbound retrievals.
	Client *transport.Client
	// Store backs the directory WS-Resources.
	Home wsrf.ResourceHome
	// Host names this machine in stage records.
	Host string
	// OnStage, when set, observes every completed staging. One job's
	// files are staged at once, so it is called from several goroutines.
	OnStage func(StageRecord)
}

// New builds the FSS.
func New(cfg Config) (*Service, error) {
	if cfg.FS == nil || cfg.Client == nil || cfg.Home == nil {
		return nil, fmt.Errorf("fss: config requires FS, Client and Home")
	}
	svc, err := wsrf.NewService(wsrf.ServiceConfig{Path: "/FileSystemService", Address: cfg.Address, Home: cfg.Home})
	if err != nil {
		return nil, err
	}
	s := &Service{
		svc:     svc,
		fs:      cfg.FS,
		client:  cfg.Client,
		host:    cfg.Host,
		onStage: cfg.OnStage,
	}
	svc.Enable(wsrf.ResourcePropertiesPortType{})
	svc.OnDestroy(s.removeDirectory)
	svc.Enable(wsrf.LifetimePortType{})

	// Live usage of the directory, computed from the file system on each
	// read — the "WS-Resource as directory" analog of the job resource's
	// computed CPUTime.
	usage := func(count bool) wsrf.PropertyProvider {
		return func(ctx context.Context, inv *wsrf.Invocation) ([]*xmlutil.Element, error) {
			path := inv.Property(QPath)
			infos, err := s.fs.List(path)
			if err != nil {
				return nil, soap.ReceiverFault("fss: %v", err)
			}
			var bytes int64
			for _, fi := range infos {
				bytes += fi.Size
			}
			if count {
				return []*xmlutil.Element{xmlutil.NewElement(QFileCount, strconv.Itoa(len(infos)))}, nil
			}
			return []*xmlutil.Element{xmlutil.NewElement(QByteCount, strconv.FormatInt(bytes, 10))}, nil
		}
	}
	svc.RegisterProperty(QFileCount, usage(true))
	svc.RegisterProperty(QByteCount, usage(false))
	svc.RegisterServiceMethod(ActionCreateDirectory, s.handleCreateDirectory)
	// Read and List only read the directory's document, which nothing
	// changes after CreateDirectory: they take no lock and save nothing.
	svc.RegisterReadMethod(ActionRead, s.handleRead)
	svc.RegisterMethod(ActionWrite, s.handleWrite)
	svc.RegisterReadMethod(ActionList, s.handleList)
	svc.RegisterMethod(ActionUpload, s.handleUpload)
	svc.RegisterMethod(ActionUploadSync, s.handleUploadSync)
	return s, nil
}

// WSRF returns the underlying WSRF service for mounting.
func (s *Service) WSRF() *wsrf.Service { return s.svc }

// EPR returns the service endpoint.
func (s *Service) EPR() wsa.EndpointReference { return s.svc.EPR() }

// directoryPath is where the directory resource id keeps its files. The
// path is made from the resource's ID, so no directory can take the path
// of another, not even one made before the machine restarted.
func directoryPath(id string) string { return gridRoot + "/" + id }

// removeDirectory is the destroy hook: destroying a directory
// WS-Resource removes the directory itself. Its files' bytes go with the
// last directory entry that links them; a staging still in flight into
// it fails its Link.
func (s *Service) removeDirectory(id string) {
	// The only error is "no such directory": already gone is gone.
	_ = s.fs.RemoveDir(directoryPath(id))
}

// CreateDirectory provisions a working directory locally (server-side
// helper; the wire path is ActionCreateDirectory).
func (s *Service) CreateDirectory(prefix string) (wsa.EndpointReference, string, error) {
	if prefix == "" {
		prefix = "dir"
	}
	id := prefix + "-" + wsa.NewMessageID()[len("urn:uuid:"):]
	path, err := s.fs.Mkdir(directoryPath(id))
	if err != nil {
		return wsa.EndpointReference{}, "", err
	}
	doc := xmlutil.NewContainer(xmlutil.Q(NS, "DirectoryState"),
		xmlutil.NewElement(QPath, path),
	)
	epr, err := s.svc.CreateResource(id, doc)
	if err != nil {
		return wsa.EndpointReference{}, "", err
	}
	return epr, path, nil
}

func (s *Service) handleCreateDirectory(ctx context.Context, inv *wsrf.Invocation, body *xmlutil.Element) (*xmlutil.Element, error) {
	prefix := ""
	if body != nil {
		prefix = body.ChildText(qPrefix)
	}
	epr, _, err := s.CreateDirectory(prefix)
	if err != nil {
		return nil, soap.ReceiverFault("fss: create directory: %v", err)
	}
	return epr.Element(), nil
}

// dirPath reads the invocation's directory path from its resource state
// — "the invocation of any method is done in the context of this
// directory" (paper §4.1).
func dirPath(inv *wsrf.Invocation) (string, error) {
	path := inv.Property(QPath)
	if path == "" {
		return "", soap.ReceiverFault("fss: directory resource %q has no path", inv.ResourceID)
	}
	return path, nil
}

func (s *Service) handleRead(ctx context.Context, inv *wsrf.Invocation, body *xmlutil.Element) (*xmlutil.Element, error) {
	if body == nil {
		return nil, soap.SenderFault("fss: Read requires a filename")
	}
	path, err := dirPath(inv)
	if err != nil {
		return nil, err
	}
	name := body.ChildText(qFilename)
	if name == "" {
		// Tolerate the compact form <Read>name</Read>.
		name = body.Text
	}
	if name == "" {
		return nil, soap.SenderFault("fss: Read requires a filename")
	}
	data, err := s.fs.Read(path, name)
	if err != nil {
		return nil, wsrf.NewBaseFault("NoSuchFileFault", "%v", err).SOAPFault(soap.CodeSender)
	}
	// The stored bytes themselves leave as a binary attachment; the
	// transport inlines them as base64 for a requester that can't take
	// parts.
	return xmlutil.NewContainer(qReadResponse,
		xmlutil.NewElement(qFilename, name),
		xmlutil.NewContainer(qContent, inv.Attach(data)),
	), nil
}

func (s *Service) handleWrite(ctx context.Context, inv *wsrf.Invocation, body *xmlutil.Element) (*xmlutil.Element, error) {
	if body == nil {
		return nil, soap.SenderFault("fss: Write requires a body")
	}
	path, err := dirPath(inv)
	if err != nil {
		return nil, err
	}
	name := body.ChildText(qFilename)
	if name == "" {
		return nil, soap.SenderFault("fss: Write requires a filename")
	}
	data, err := inv.Req.ContentBytes(body.Child(qContent))
	if err != nil {
		return nil, soap.SenderFault("fss: Write content: %v", err)
	}
	// The one copy on the way in: these bytes are the sender's (over
	// inproc and the co-located route an attachment arrives by reference,
	// and the sender may go on using its array).
	if err := s.fs.Write(path, name, bytes.Clone(data)); err != nil {
		return nil, soap.ReceiverFault("fss: %v", err)
	}
	return nil, nil
}

func (s *Service) handleList(ctx context.Context, inv *wsrf.Invocation, body *xmlutil.Element) (*xmlutil.Element, error) {
	path, err := dirPath(inv)
	if err != nil {
		return nil, err
	}
	infos, err := s.fs.List(path)
	if err != nil {
		return nil, soap.ReceiverFault("fss: %v", err)
	}
	resp := &xmlutil.Element{Name: qListResponse}
	for _, fi := range infos {
		f := xmlutil.NewElement(qFile, "")
		f.SetAttr(qName, fi.Name)
		f.SetAttr(qSize, strconv.FormatInt(fi.Size, 10))
		resp.Append(f)
	}
	return resp, nil
}
