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
	"sync"
	"sync/atomic"

	"uvacg/internal/soap"
	"uvacg/internal/transport"
	"uvacg/internal/vfs"
	"uvacg/internal/wsa"
	"uvacg/internal/wsn"
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
	qReplicaEPR      = xmlutil.Q(NS, "ReplicaEPR")
	qSuccess         = xmlutil.Q(NS, "Success")
	qError           = xmlutil.Q(NS, "Error")
	qDirectory       = xmlutil.Q(NS, "Directory")
	qToken           = xmlutil.Q(NS, "Token")
)

// FileRef names one file to stage: where it lives (the EPR of the
// directory resource or file server holding it), its name there, and
// the name the job expects — the {EPR, filename, jobname} tuples of
// paper §4.1. Hash, Size and Replicas are the scheduler's optional
// data-placement annotations: when the content address is known, the
// staging FSS can serve the file from its local blob cache or pull it
// through from a listed replica instead of fetching the origin.
type FileRef struct {
	Source     wsa.EndpointReference
	RemoteName string
	LocalName  string
	Hash       string
	Size       int64
	Replicas   []wsa.EndpointReference
}

// StageRecord describes one completed staging, for observers (the
// simulator's byte-identity ledger).
type StageRecord struct {
	// Host is the staging machine; Dir its working-directory path.
	Host string
	Dir  string
	// LocalName is the installed file name; Source the SourceKey it was
	// staged from; Hash and Size describe the installed bytes.
	LocalName string
	Source    string
	Hash      string
	Size      int64
	// Route says how the bytes arrived: "blob" (local cache hit),
	// "local" (same-machine directory copy), "pull" (blob pulled from a
	// replica) or "wire" (origin fetch).
	Route string
}

// Staging routes.
const (
	RouteBlob  = "blob"
	RouteLocal = "local"
	RoutePull  = "pull"
	RouteWire  = "wire"
)

// StageStats aggregates a machine's staging traffic by route.
type StageStats struct {
	BlobHits     int64
	LocalCopies  int64
	PullThroughs int64
	WireFetches  int64
	LocalBytes   int64 // bytes served without leaving the machine
	RemoteBytes  int64 // bytes fetched over the wire (pull + origin)
	Publishes    int64 // stored events accepted by the broker
}

// gridRoot is the directory all working directories are created under.
const gridRoot = "/grid"

// Service is one machine's FSS.
type Service struct {
	svc    *wsrf.Service
	fs     *vfs.FS
	client *transport.Client
	// paths maps directory resource ids to their vfs paths so the
	// destroy hook can remove the directory itself.
	paths sync.Map

	// broker and host enable best-effort "stored" publications on the
	// replica topic; onStage observes completed stagings.
	broker  wsa.EndpointReference
	host    string
	onStage func(StageRecord)

	// mu guards the content index: blobs (hash → the one Content this
	// machine holds for it, shared with every directory entry of that
	// content) and manifests (what was staged into each working directory).
	// Destroying a directory reads both to decide which blobs go.
	mu        sync.Mutex
	blobs     map[string]*heldBlob
	manifests map[string]map[string]ManifestEntry // dir path → name → entry

	// Staging counters, by route.
	blobHits     atomic.Int64
	localCopies  atomic.Int64
	pullThroughs atomic.Int64
	wireFetches  atomic.Int64
	localBytes   atomic.Int64
	remoteBytes  atomic.Int64
	publishes    atomic.Int64
	replicasHeld atomic.Int64
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
	// Broker, when set, makes the FSS publish a best-effort "stored"
	// event on the replica topic after each successful staging, feeding
	// the replicator and the scheduler's locality cache.
	Broker wsa.EndpointReference
	// Host names this machine in stage records and replica events.
	Host string
	// OnStage, when set, observes every completed staging.
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
		svc:       svc,
		fs:        cfg.FS,
		client:    cfg.Client,
		broker:    cfg.Broker,
		host:      cfg.Host,
		onStage:   cfg.OnStage,
		blobs:     make(map[string]*heldBlob),
		manifests: make(map[string]map[string]ManifestEntry),
	}
	svc.Enable(wsrf.ResourcePropertiesPortType{})
	svc.Enable(wsrf.LifetimePortType{})
	svc.OnDestroy(s.removeDirectory)

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
	svc.RegisterMethod(ActionRead, s.handleRead)
	svc.RegisterMethod(ActionWrite, s.handleWrite)
	svc.RegisterMethod(ActionList, s.handleList)
	svc.RegisterMethod(ActionUpload, s.handleUpload)
	svc.RegisterMethod(ActionUploadSync, s.handleUploadSync)
	svc.RegisterServiceMethod(ActionReadBlob, s.handleReadBlob)
	svc.RegisterServiceMethod(ActionReplicate, s.handleReplicate)
	return s, nil
}

// WSRF returns the underlying WSRF service for mounting.
func (s *Service) WSRF() *wsrf.Service { return s.svc }

// EPR returns the service endpoint.
func (s *Service) EPR() wsa.EndpointReference { return s.svc.EPR() }

// removeDirectory is the destroy hook: destroying a directory
// WS-Resource removes the directory itself, its manifest, and every blob
// that no remaining manifest names and nobody was told about (see
// heldBlob.pinned). The directory goes first, so a staging still in
// flight into it finds it gone under the same lock (recordManifest).
func (s *Service) removeDirectory(id string) {
	v, ok := s.paths.LoadAndDelete(id)
	if !ok {
		return
	}
	path := v.(string)
	// The only error is "no such directory": already gone is gone.
	_ = s.fs.RemoveDir(path)
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.manifests, path)
	named := make(map[string]struct{})
	for _, m := range s.manifests {
		for _, e := range m {
			named[e.Hash] = struct{}{}
		}
	}
	for hash, b := range s.blobs {
		if _, ok := named[hash]; !ok && !b.pinned {
			delete(s.blobs, hash)
		}
	}
}

// CreateDirectory provisions a working directory locally (server-side
// helper; the wire path is ActionCreateDirectory).
func (s *Service) CreateDirectory(prefix string) (wsa.EndpointReference, string, error) {
	if prefix == "" {
		prefix = "dir"
	}
	path, err := s.fs.MkdirUnique(gridRoot, prefix)
	if err != nil {
		return wsa.EndpointReference{}, "", err
	}
	doc := xmlutil.NewContainer(xmlutil.Q(NS, "DirectoryState"),
		xmlutil.NewElement(QPath, path),
	)
	epr, err := s.svc.CreateResource("", doc)
	if err != nil {
		return wsa.EndpointReference{}, "", err
	}
	s.paths.Store(epr.Property(wsrf.QResourceID), path)
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
	if _, err := s.install(path, name, vfs.NewContent(bytes.Clone(data)), ""); err != nil {
		return nil, soap.ReceiverFault("fss: %v", err)
	}
	return nil, nil
}

// install makes c the file name in dir: content-address first, then one
// atomic vfs.Link of the Content the index holds for that hash — a
// concurrent Read sees complete old or complete new bytes, the directory
// and the index share one copy, and the manifest entry always describes
// bytes the blob index holds.
func (s *Service) install(dir, name string, c *vfs.Content, source string) (ManifestEntry, error) {
	c = s.putBlob(c)
	if err := s.fs.Link(dir, name, c); err != nil {
		return ManifestEntry{}, err
	}
	e := ManifestEntry{Name: name, Size: int64(c.Len()), Hash: c.Hash(), Source: source}
	s.recordManifest(dir, e, c)
	return e, nil
}

// recordManifest upserts one entry in a directory's staging manifest,
// unless the directory was destroyed since c was linked into it. A
// Destroy elsewhere may have swept c's blob between putBlob and here
// (nothing named it yet); now something does, so it goes back.
func (s *Service) recordManifest(dir string, e ManifestEntry, c *vfs.Content) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.fs.DirExists(dir) {
		return
	}
	m := s.manifests[dir]
	if m == nil {
		m = make(map[string]ManifestEntry)
		s.manifests[dir] = m
	}
	m[e.Name] = e
	if _, ok := s.blobs[e.Hash]; !ok {
		s.blobs[e.Hash] = &heldBlob{content: c}
	}
}

// DirManifest snapshots a directory's staging manifest, sorted by name.
func (s *Service) DirManifest(dir string) Manifest {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out Manifest
	for _, e := range s.manifests[dir] {
		out.Entries = append(out.Entries, e)
	}
	sortManifest(&out)
	return out
}

// noteStage bumps the route counters and notifies the observer.
func (s *Service) noteStage(dir string, e ManifestEntry, route string) {
	switch route {
	case RouteBlob:
		s.blobHits.Add(1)
		s.localBytes.Add(e.Size)
	case RouteLocal:
		s.localCopies.Add(1)
		s.localBytes.Add(e.Size)
	case RoutePull:
		s.pullThroughs.Add(1)
		s.remoteBytes.Add(e.Size)
	case RouteWire:
		s.wireFetches.Add(1)
		s.remoteBytes.Add(e.Size)
	}
	if s.onStage != nil {
		s.onStage(StageRecord{
			Host: s.host, Dir: dir, LocalName: e.Name,
			Source: e.Source, Hash: e.Hash, Size: e.Size, Route: route,
		})
	}
}

// StageStats reports the machine's staging traffic so far.
func (s *Service) StageStats() StageStats {
	return StageStats{
		BlobHits:     s.blobHits.Load(),
		LocalCopies:  s.localCopies.Load(),
		PullThroughs: s.pullThroughs.Load(),
		WireFetches:  s.wireFetches.Load(),
		LocalBytes:   s.localBytes.Load(),
		RemoteBytes:  s.remoteBytes.Load(),
		Publishes:    s.publishes.Load(),
	}
}

// publishStored announces freshly staged content on the replica topic.
// Best-effort, like every one-way publish: a dropped publish only means
// the replicator and the locality cache learn about this content from
// a later staging instead. The blobs are pinned before the event leaves:
// a publish that reports failure may still have been heard.
func (s *Service) publishStored(ctx context.Context, entries []ManifestEntry) {
	if s.client == nil || s.broker.IsZero() || len(entries) == 0 {
		return
	}
	for _, e := range entries {
		s.pin(e.Hash)
	}
	msg, err := ReplicaChangedMessage(ReplicaChanged{
		Kind:     ReplicaStored,
		Host:     s.host,
		FSS:      s.EPR(),
		Manifest: Manifest{Entries: entries},
	})
	if err != nil {
		return
	}
	n := wsn.Notification{
		Topic:    replicaChangedTopic,
		Producer: s.EPR(),
		Message:  msg,
	}
	if wsn.PublishViaBroker(context.WithoutCancel(ctx), s.client, s.broker, n) == nil {
		s.publishes.Add(1)
	}
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
