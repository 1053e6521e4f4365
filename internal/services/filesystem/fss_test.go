package filesystem

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"uvacg/internal/resourcedb"
	"uvacg/internal/soap"
	"uvacg/internal/transport"
	"uvacg/internal/vfs"
	"uvacg/internal/wsa"
	"uvacg/internal/wsrf"
	"uvacg/internal/xmlutil"
)

// fssHarness runs two FSS machines plus a consumer that plays the
// Execution Service's role of receiving UploadComplete notifications.
type fssHarness struct {
	network *transport.Network
	client  *transport.Client
	fssA    *Service
	fssB    *Service
	fsA     *vfs.FS
	fsB     *vfs.FS
	// uploads receives UploadComplete bodies delivered to the fake ES.
	uploads chan *xmlutil.Element
}

func newFSSHarness(t *testing.T) *fssHarness {
	t.Helper()
	h := &fssHarness{
		network: transport.NewNetwork(),
		uploads: make(chan *xmlutil.Element, 16),
	}
	h.client = transport.NewClient().WithNetwork(h.network)

	mkNode := func(host string) (*Service, *vfs.FS) {
		fs := vfs.New()
		store := resourcedb.NewStore()
		svc, err := New(Config{
			Address: "inproc://" + host,
			FS:      fs,
			Client:  h.client,
			Home:    wsrf.NewStateHome(store.MustTable("dirs", resourcedb.StructuredCodec{})),
		})
		if err != nil {
			t.Fatal(err)
		}
		mux := soap.NewMux()
		mux.Handle(svc.WSRF().Path(), svc.WSRF().Dispatcher())
		h.network.Register(host, transport.NewServer(mux))
		return svc, fs
	}
	h.fssA, h.fsA = mkNode("node-a")
	h.fssB, h.fsB = mkNode("node-b")

	// Fake ES endpoint receiving UploadComplete one-ways.
	esDisp := soap.NewDispatcher()
	esDisp.Register(ActionUploadComplete, func(ctx context.Context, req *soap.Envelope) (*soap.Envelope, error) {
		h.uploads <- req.Body.Clone()
		return nil, nil
	})
	esMux := soap.NewMux()
	esMux.Handle("/ES", esDisp)
	h.network.Register("es-host", transport.NewServer(esMux))
	return h
}

func (h *fssHarness) esEPR() wsa.EndpointReference { return wsa.NewEPR("inproc://es-host/ES") }

func (h *fssHarness) waitUpload(t *testing.T) *xmlutil.Element {
	t.Helper()
	select {
	case b := <-h.uploads:
		return b
	case <-time.After(5 * time.Second):
		t.Fatal("UploadComplete never arrived")
		return nil
	}
}

func TestCreateDirectoryAndPathProperty(t *testing.T) {
	h := newFSSHarness(t)
	ctx := context.Background()
	dir, err := CreateDirectoryVia(ctx, h.client, h.fssA.EPR(), "job")
	if err != nil {
		t.Fatal(err)
	}
	// The directory resource exposes its actual path as its single
	// resource property (paper §4.1).
	rc := wsrf.NewResourceClient(h.client, dir)
	path, err := rc.GetPropertyText(ctx, QPath)
	if err != nil {
		t.Fatal(err)
	}
	if path == "" || !dirExists(h.fsA, path) {
		t.Fatalf("path property %q does not name a real directory", path)
	}
}

func TestWriteReadListOverWire(t *testing.T) {
	h := newFSSHarness(t)
	ctx := context.Background()
	dir, err := CreateDirectoryVia(ctx, h.client, h.fssA.EPR(), "job")
	if err != nil {
		t.Fatal(err)
	}
	content := []byte("simulation input\n")
	if err := WriteFile(ctx, h.client, dir, "in.dat", content); err != nil {
		t.Fatal(err)
	}
	got, err := FetchFile(ctx, h.client, dir, "in.dat")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Fatalf("read back %q", got)
	}
	files, err := ListDirectory(ctx, h.client, dir)
	if err != nil {
		t.Fatal(err)
	}
	if files["in.dat"] != int64(len(content)) {
		t.Fatalf("list = %v", files)
	}
}

func TestReadMissingFileFaults(t *testing.T) {
	h := newFSSHarness(t)
	ctx := context.Background()
	dir, _ := CreateDirectoryVia(ctx, h.client, h.fssA.EPR(), "job")
	_, err := FetchFile(ctx, h.client, dir, "ghost.dat")
	if bf, ok := wsrf.BaseFaultFromError(err); !ok || bf.ErrorCode != "NoSuchFileFault" {
		t.Fatalf("want NoSuchFileFault, got %v", err)
	}
}

func TestAsyncUploadBetweenMachines(t *testing.T) {
	h := newFSSHarness(t)
	ctx := context.Background()

	// Stage a file on node A.
	srcDir, err := CreateDirectoryVia(ctx, h.client, h.fssA.EPR(), "out")
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(ctx, h.client, srcDir, "result.dat", []byte("42")); err != nil {
		t.Fatal(err)
	}

	// Ask node B to pull it in, asynchronously.
	dstDir, err := CreateDirectoryVia(ctx, h.client, h.fssB.EPR(), "work")
	if err != nil {
		t.Fatal(err)
	}
	req := UploadRequest(h.esEPR(), "job-7", []FileRef{
		{Source: srcDir, RemoteName: "result.dat", LocalName: "input.dat"},
	})
	if err := h.client.Notify(ctx, dstDir, ActionUpload, req); err != nil {
		t.Fatal(err)
	}

	body := h.waitUpload(t)
	done, err := ParseUploadComplete(body)
	if err != nil {
		t.Fatal(err)
	}
	if !done.Success || done.Error != "" {
		t.Fatalf("upload failed: %s", done.Error)
	}
	if done.Token != "job-7" {
		t.Fatalf("token = %q", done.Token)
	}
	if path, err := wsrf.NewResourceClient(h.client, dstDir).GetPropertyText(ctx, QPath); err != nil || done.Path != path {
		t.Fatalf("completion names path %q, the directory's is %q (%v)", done.Path, path, err)
	}
	// The file is really there under the job's expected name.
	got, err := FetchFile(ctx, h.client, dstDir, "input.dat")
	if err != nil || string(got) != "42" {
		t.Fatalf("staged file: %q %v", got, err)
	}
}

func TestUploadFailureNotifiesWithError(t *testing.T) {
	h := newFSSHarness(t)
	ctx := context.Background()
	srcDir, _ := CreateDirectoryVia(ctx, h.client, h.fssA.EPR(), "out")
	dstDir, _ := CreateDirectoryVia(ctx, h.client, h.fssB.EPR(), "work")
	req := UploadRequest(h.esEPR(), "tok", []FileRef{
		{Source: srcDir, RemoteName: "missing.dat", LocalName: "in.dat"},
	})
	if err := h.client.Notify(ctx, dstDir, ActionUpload, req); err != nil {
		t.Fatal(err)
	}
	body := h.waitUpload(t)
	done, err := ParseUploadComplete(body)
	if err != nil {
		t.Fatal(err)
	}
	if done.Success || done.Error == "" {
		t.Fatalf("failure not reported: success=%v err=%q", done.Success, done.Error)
	}
}

// TestUploadCompleteCarriesPath: the completion names the working
// directory's path, the one its resource holds, whether the staging
// succeeded or not — the ES spawns there without reading it back.
func TestUploadCompleteCarriesPath(t *testing.T) {
	h := newFSSHarness(t)
	ctx := context.Background()
	srcDir, _ := CreateDirectoryVia(ctx, h.client, h.fssA.EPR(), "out")
	if err := WriteFile(ctx, h.client, srcDir, "in.dat", []byte("x")); err != nil {
		t.Fatal(err)
	}
	for _, remote := range []string{"in.dat", "missing.dat"} {
		dstDir, err := CreateDirectoryVia(ctx, h.client, h.fssB.EPR(), "work")
		if err != nil {
			t.Fatal(err)
		}
		want, err := wsrf.NewResourceClient(h.client, dstDir).GetPropertyText(ctx, QPath)
		if err != nil {
			t.Fatal(err)
		}
		req := UploadRequest(h.esEPR(), "tok", []FileRef{{Source: srcDir, RemoteName: remote}})
		if err := h.client.Notify(ctx, dstDir, ActionUpload, req); err != nil {
			t.Fatal(err)
		}
		done, err := ParseUploadComplete(h.waitUpload(t))
		if err != nil {
			t.Fatal(err)
		}
		if done.Success != (remote == "in.dat") {
			t.Fatalf("staging %s: success=%v (%s)", remote, done.Success, done.Error)
		}
		if done.Path != want || !dirExists(h.fsB, done.Path) {
			t.Fatalf("staging %s: completion names path %q, the directory resource holds %q", remote, done.Path, want)
		}
	}
}

func TestUploadLocalFastPath(t *testing.T) {
	h := newFSSHarness(t)
	ctx := context.Background()
	// Source and destination on the same machine: no wire fetch.
	srcDir, _ := CreateDirectoryVia(ctx, h.client, h.fssA.EPR(), "out")
	if err := WriteFile(ctx, h.client, srcDir, "f", []byte("local")); err != nil {
		t.Fatal(err)
	}
	dstDir, _ := CreateDirectoryVia(ctx, h.client, h.fssA.EPR(), "work")
	req := UploadRequest(wsa.EndpointReference{}, "", []FileRef{
		{Source: srcDir, RemoteName: "f"},
	})
	// Use the sync variant so the test can assert immediately.
	if _, err := h.client.Call(ctx, dstDir, ActionUploadSync, req); err != nil {
		t.Fatal(err)
	}
	got, err := FetchFile(ctx, h.client, dstDir, "f")
	if err != nil || string(got) != "local" {
		t.Fatalf("fast path: %q %v", got, err)
	}
	// The source must survive (copy, not destructive move).
	if _, err := FetchFile(ctx, h.client, srcDir, "f"); err != nil {
		t.Fatalf("source consumed by fast path: %v", err)
	}
}

func TestUploadFromTCPFileServer(t *testing.T) {
	h := newFSSHarness(t)
	ctx := context.Background()

	// The client's local file served over real soap.tcp (paper step 5).
	fileServer := NewFileServer("/files")
	fileServer.Publish("app.exe", []byte("#uvacg-job\nexit 0\n"))
	serverEPR, err := fileServer.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer fileServer.Close()
	if addr := serverEPR.Address; !strings.HasPrefix(addr, transport.SchemeTCP+"://") {
		t.Fatalf("address = %q, want %s://", addr, transport.SchemeTCP)
	}

	dstDir, _ := CreateDirectoryVia(ctx, h.client, h.fssA.EPR(), "work")
	req := UploadRequest(wsa.EndpointReference{}, "", []FileRef{
		{Source: serverEPR, RemoteName: "app.exe"},
	})
	if _, err := h.client.Call(ctx, dstDir, ActionUploadSync, req); err != nil {
		t.Fatal(err)
	}
	got, err := FetchFile(ctx, h.client, dstDir, "app.exe")
	if err != nil || !bytes.Contains(got, []byte("exit 0")) {
		t.Fatalf("tcp staging: %q %v", got, err)
	}
}

// TestListDirectoryOfAFileServer: a client's file server answers the
// FSS List a directory answers, every published file by name and size.
func TestListDirectoryOfAFileServer(t *testing.T) {
	fsrv := NewFileServer("")
	fsrv.Publish("app.exe", []byte("#uvacg-job\nexit 0\n"))
	fsrv.Publish("in.dat", bytes.Repeat([]byte{7}, 4096))
	fsrv.Publish("empty", nil)
	fsrv.Publish("gone", []byte("x"))
	fsrv.Unpublish("gone")
	epr, err := fsrv.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer fsrv.Close()
	files, err := ListDirectory(context.Background(), transport.NewClient(), epr)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{"app.exe": 18, "in.dat": 4096, "empty": 0}
	if !reflect.DeepEqual(files, want) {
		t.Fatalf("listed %v, want %v", files, want)
	}
}

func TestFileServerUnpublishAndMissing(t *testing.T) {
	fsrv := NewFileServer("")
	fsrv.Publish("a", []byte("x"))
	fsrv.Unpublish("a")
	network := transport.NewNetwork()
	mux := soap.NewMux()
	fsrv.Mount(mux)
	network.Register("client", transport.NewServer(mux))
	c := transport.NewClient().WithNetwork(network)
	_, err := FetchFile(context.Background(), c, wsa.NewEPR("inproc://client/files"), "a")
	if err == nil {
		t.Fatal("unpublished file served")
	}
}

func TestDestroyDirectoryRemovesFiles(t *testing.T) {
	h := newFSSHarness(t)
	ctx := context.Background()
	dir, err := CreateDirectoryVia(ctx, h.client, h.fssA.EPR(), "tmp")
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(ctx, h.client, dir, "junk", []byte("x")); err != nil {
		t.Fatal(err)
	}
	rc := wsrf.NewResourceClient(h.client, dir)
	path, _ := rc.GetPropertyText(ctx, QPath)
	if err := rc.Destroy(ctx); err != nil {
		t.Fatal(err)
	}
	if dirExists(h.fsA, path) {
		t.Fatal("directory survived resource destruction")
	}
}

// TestDirectoryLifetimeViaTerminationTime: a directory whose termination
// time comes is destroyed, and the directory with it.
func TestDirectoryLifetimeViaTerminationTime(t *testing.T) {
	h := newFSSHarness(t)
	ctx := context.Background()
	dir, _ := CreateDirectoryVia(ctx, h.client, h.fssA.EPR(), "tmp")
	rc := wsrf.NewResourceClient(h.client, dir)
	path, err := rc.GetPropertyText(ctx, QPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := rc.SetTerminationTime(ctx, time.Now().Add(20*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for dirExists(h.fsA, path) {
		if time.Now().After(deadline) {
			t.Fatal("the directory outlived its termination time")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := rc.GetPropertyText(ctx, QPath); err == nil {
		t.Fatal("destroyed directory still answers")
	}
}

// TestClientCannotRewriteADirectorysPath: a directory's Path is the FSS's
// own state. A client that could rewrite it through SetResourceProperties
// would read and write another directory's files through its own EPR.
func TestClientCannotRewriteADirectorysPath(t *testing.T) {
	h := newFSSHarness(t)
	ctx := context.Background()
	victim, victimPath, err := h.fssA.CreateDirectory("victim")
	if err != nil {
		t.Fatal(err)
	}
	mine, _ := CreateDirectoryVia(ctx, h.client, h.fssA.EPR(), "mine")
	for dir, data := range map[*wsa.EndpointReference]string{&victim: "victim data", &mine: "my data"} {
		if err := WriteFile(ctx, h.client, *dir, "f.txt", []byte(data)); err != nil {
			t.Fatal(err)
		}
	}

	rewrite := xmlutil.NewContainer(xmlutil.Q(wsrf.NSResourceProperties, "SetResourceProperties"),
		xmlutil.NewContainer(xmlutil.Q(wsrf.NSResourceProperties, "Update"), xmlutil.NewElement(QPath, victimPath)))
	if _, err := h.client.Call(ctx, mine, wsrf.ActionSetResourceProperties, rewrite); err == nil {
		t.Error("SetResourceProperties rewrote the directory's Path")
	}
	got, err := FetchFile(ctx, h.client, mine, "f.txt")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "my data" {
		t.Fatalf("the directory reads %q, want its own file", got)
	}
}

func TestUploadRequestValidation(t *testing.T) {
	h := newFSSHarness(t)
	ctx := context.Background()
	dir, _ := CreateDirectoryVia(ctx, h.client, h.fssA.EPR(), "w")
	// Entry without source EPR.
	bad := &xmlutil.Element{Name: qUpload}
	bad.Append(xmlutil.NewContainer(qFile, xmlutil.NewElement(qRemoteName, "f")))
	if _, err := h.client.Call(ctx, dir, ActionUploadSync, bad); err == nil {
		t.Fatal("entry without source accepted")
	}
	// Entry without remote name.
	bad2 := &xmlutil.Element{Name: qUpload}
	bad2.Append(xmlutil.NewContainer(qFile, dir.ElementNamed(qSourceEPR)))
	if _, err := h.client.Call(ctx, dir, ActionUploadSync, bad2); err == nil {
		t.Fatal("entry without remote name accepted")
	}
}

// TestOldMasterAnnotationsStageByWire: a data-aware master of an earlier
// release annotated each <fss:File> with a size attribute, the content's
// SHA-256 in <fss:Hash> and the FSS endpoints holding a replica in
// <fss:ReplicaEPR>. Such a file still parses, and stages from its source
// by the wire route: the listed replica, at which nothing answers, is
// never asked.
func TestOldMasterAnnotationsStageByWire(t *testing.T) {
	h := newFSSHarness(t)
	ctx := context.Background()
	content := []byte("fetched from the source, not the replica")
	src, err := CreateDirectoryVia(ctx, h.client, h.fssB.EPR(), "src")
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(ctx, h.client, src, "f", content); err != nil {
		t.Fatal(err)
	}
	var routes []string
	h.fssA.onStage = func(rec StageRecord) { routes = append(routes, rec.Route) }
	dst, dstPath, err := h.fssA.CreateDirectory("work")
	if err != nil {
		t.Fatal(err)
	}

	sum := sha256.Sum256(content)
	file := FileRefElements([]FileRef{{Source: src, RemoteName: "f", LocalName: "in.dat"}})[0]
	file.SetAttr(qSize, strconv.Itoa(len(content)))
	file.Append(xmlutil.NewElement(xmlutil.Q(NS, "Hash"), hex.EncodeToString(sum[:])))
	file.Append(wsa.NewEPR("inproc://ghost/FileSystemService").ElementNamed(xmlutil.Q(NS, "ReplicaEPR")))
	req := xmlutil.NewContainer(qUpload, file)
	if refs, err := ParseFileRefElements(req); err != nil || len(refs) != 1 || refs[0].LocalName != "in.dat" {
		t.Fatalf("annotated file entry parsed as %+v, %v", refs, err)
	}
	if _, err := h.client.Call(ctx, dst, ActionUploadSync, req); err != nil {
		t.Fatal(err)
	}
	if got, _ := h.fsA.Read(dstPath, "in.dat"); !bytes.Equal(got, content) {
		t.Fatalf("staged %q", got)
	}
	if len(routes) != 1 || routes[0] != RouteWire {
		t.Fatalf("staging routes %v, want one %s", routes, RouteWire)
	}
}

// TestConcurrentReadDuringRestagingNeverTorn is the torn-read
// regression: while one file is re-staged over and over (alternating
// between two versions of different lengths), concurrent reads must
// always see one complete version — never a mix, never a truncation. The
// staging path guarantees this by installing with a single atomic
// vfs.Link. Run with -race.
func TestConcurrentReadDuringRestagingNeverTorn(t *testing.T) {
	h := newFSSHarness(t)
	ctx := context.Background()

	v1 := bytes.Repeat([]byte("version-one "), 4096)
	v2 := bytes.Repeat([]byte("v2 "), 16384)
	srcDir, err := CreateDirectoryVia(ctx, h.client, h.fssA.EPR(), "src")
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(ctx, h.client, srcDir, "v1", v1); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(ctx, h.client, srcDir, "v2", v2); err != nil {
		t.Fatal(err)
	}
	dstDir, err := CreateDirectoryVia(ctx, h.client, h.fssB.EPR(), "work")
	if err != nil {
		t.Fatal(err)
	}
	stage := func(remote string) error {
		req := UploadRequest(wsa.EndpointReference{}, "", []FileRef{
			{Source: srcDir, RemoteName: remote, LocalName: "data"},
		})
		_, err := h.client.Call(ctx, dstDir, ActionUploadSync, req)
		return err
	}
	if err := stage("v1"); err != nil {
		t.Fatal(err)
	}

	const rounds = 40
	done := make(chan struct{})
	errs := make(chan error, 8)
	var torn atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				got, err := FetchFile(ctx, h.client, dstDir, "data")
				if err != nil {
					select {
					case errs <- err:
					default:
					}
					return
				}
				if !bytes.Equal(got, v1) && !bytes.Equal(got, v2) {
					torn.Add(1)
					return
				}
			}
		}()
	}
	for i := 0; i < rounds; i++ {
		name := "v2"
		if i%2 == 1 {
			name = "v1"
		}
		if err := stage(name); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatalf("concurrent read failed: %v", err)
	default:
	}
	if n := torn.Load(); n > 0 {
		t.Fatalf("%d torn read(s): a reader saw bytes that are neither complete version", n)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
}

func TestDirectoryUsageProperties(t *testing.T) {
	h := newFSSHarness(t)
	ctx := context.Background()
	dir, err := CreateDirectoryVia(ctx, h.client, h.fssA.EPR(), "u")
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(ctx, h.client, dir, "a", make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(ctx, h.client, dir, "b", make([]byte, 50)); err != nil {
		t.Fatal(err)
	}
	rc := wsrf.NewResourceClient(h.client, dir)
	if got, err := rc.GetPropertyText(ctx, QFileCount); err != nil || got != "2" {
		t.Fatalf("FileCount = %q %v", got, err)
	}
	if got, err := rc.GetPropertyText(ctx, QByteCount); err != nil || got != "150" {
		t.Fatalf("ByteCount = %q %v", got, err)
	}
	// The usage properties are queryable like everything else.
	matches, err := rc.Query(ctx, "/FileCount[text()='2']")
	if err != nil || len(matches) != 1 {
		t.Fatalf("query usage: %v %v", matches, err)
	}
}

// dirExists reports whether fs holds a directory at path.
func dirExists(fs *vfs.FS, path string) bool {
	_, err := fs.List(path)
	return err == nil
}

// TestReadAndListAnswerWhileTheDirectoryIsLocked: Read and List only read
// a directory's document, which nothing changes after CreateDirectory, so
// neither waits for the directory's lock, which a Write or an Upload
// holds while it runs.
func TestReadAndListAnswerWhileTheDirectoryIsLocked(t *testing.T) {
	h := newFSSHarness(t)
	ctx := context.Background()
	dir, err := CreateDirectoryVia(ctx, h.client, h.fssA.EPR(), "job")
	if err != nil {
		t.Fatal(err)
	}
	content := []byte("simulation input\n")
	if err := WriteFile(ctx, h.client, dir, "in.dat", content); err != nil {
		t.Fatal(err)
	}
	release := h.fssA.WSRF().LockResource(dir.Property(wsrf.QResourceID))
	defer release()
	done := make(chan error, 1)
	go func() {
		got, err := FetchFile(ctx, h.client, dir, "in.dat")
		if err == nil && !bytes.Equal(got, content) {
			err = fmt.Errorf("read back %q", got)
		}
		if err == nil {
			var files map[string]int64
			if files, err = ListDirectory(ctx, h.client, dir); err == nil && files["in.dat"] != int64(len(content)) {
				err = fmt.Errorf("list = %v", files)
			}
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Read or List waited for the directory's lock")
	}
}
