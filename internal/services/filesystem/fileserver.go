package filesystem

import (
	"context"
	"strconv"
	"sync"

	"uvacg/internal/soap"
	"uvacg/internal/transport"
	"uvacg/internal/wsa"
	"uvacg/internal/xmlutil"
)

// FileServer is the client-side file endpoint: when a scientist's job
// set references "local://" files, the GUI "starts a TCP-based server
// thread that will respond to requests for any input files that need to
// come from the scientist's local file system" (paper §4.6). The FSS
// retrieves from it with the same Read action it uses between machines,
// over the soap.tcp binding.
type FileServer struct {
	mu    sync.RWMutex
	files map[string][]byte

	dispatcher *soap.Dispatcher
	listener   *transport.Listener
	path       string
}

// NewFileServer builds an empty file server mounted at path (default
// "/files").
func NewFileServer(path string) *FileServer {
	if path == "" {
		path = "/files"
	}
	fs := &FileServer{files: make(map[string][]byte), path: path, dispatcher: soap.NewDispatcher()}
	fs.dispatcher.Register(ActionRead, fs.handleRead)
	fs.dispatcher.Register(ActionList, fs.handleList)
	return fs
}

// Publish makes a file available to the grid under name.
func (fs *FileServer) Publish(name string, content []byte) {
	cp := make([]byte, len(content))
	copy(cp, content)
	fs.mu.Lock()
	fs.files[name] = cp
	fs.mu.Unlock()
}

// Unpublish withdraws a file.
func (fs *FileServer) Unpublish(name string) {
	fs.mu.Lock()
	delete(fs.files, name)
	fs.mu.Unlock()
}

// Mount registers the server on a mux at its path.
func (fs *FileServer) Mount(mux *soap.Mux) { mux.Handle(fs.path, fs.dispatcher) }

// Path returns the mount path.
func (fs *FileServer) Path() string { return fs.path }

// ListenTCP starts the soap.tcp listener (the paper's "WSE TCP server
// thread") and returns the server's EPR. Call Close when done.
func (fs *FileServer) ListenTCP(addr string) (wsa.EndpointReference, error) {
	mux := soap.NewMux()
	fs.Mount(mux)
	tl, err := transport.ListenTCP(transport.NewServer(mux), addr)
	if err != nil {
		return wsa.EndpointReference{}, err
	}
	fs.listener = tl
	return wsa.NewEPR(tl.BaseURL() + fs.path), nil
}

// Close stops the TCP listener, if one is up.
func (fs *FileServer) Close() error {
	tl := fs.listener
	if tl == nil {
		return nil
	}
	fs.listener = nil
	return tl.Close()
}

func (fs *FileServer) handleRead(ctx context.Context, req *soap.Envelope) (*soap.Envelope, error) {
	if req.Body == nil {
		return nil, soap.SenderFault("fileserver: Read requires a filename")
	}
	name := req.Body.ChildText(qFilename)
	if name == "" {
		name = req.Body.Text
	}
	fs.mu.RLock()
	data, ok := fs.files[name]
	fs.mu.RUnlock()
	if !ok {
		return nil, soap.SenderFault("fileserver: no such file %q", name)
	}
	// Serve the bytes as an attachment; a plain SOAP requester over HTTP
	// gets them inlined as base64 by the transport layer.
	resp := &soap.Envelope{}
	resp.Body = xmlutil.NewContainer(qReadResponse,
		xmlutil.NewElement(qFilename, name),
		xmlutil.NewContainer(qContent, resp.Attach(data)),
	)
	return resp, nil
}

func (fs *FileServer) handleList(ctx context.Context, req *soap.Envelope) (*soap.Envelope, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	resp := &xmlutil.Element{Name: qListResponse}
	for name, data := range fs.files {
		f := xmlutil.NewElement(qFile, "")
		f.SetAttr(qName, name)
		f.SetAttr(qSize, strconv.Itoa(len(data)))
		resp.Append(f)
	}
	return soap.New(resp), nil
}
