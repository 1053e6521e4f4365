package filesystem

// Tests of the shared-content store: one vfs.Content per file's bytes per
// machine, pointed at by directory entries and the blob index alike.

import (
	"bytes"
	"context"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"uvacg/internal/procspawn"
	"uvacg/internal/soap"
	"uvacg/internal/transport"
	"uvacg/internal/vfs"
	"uvacg/internal/wsa"
	"uvacg/internal/wsn"
	"uvacg/internal/wsrf"
	"uvacg/internal/xmlutil"
)

// stageSync stages files into dir with the blocking upload.
func stageSync(ctx context.Context, c *transport.Client, dir wsa.EndpointReference, files ...FileRef) error {
	_, err := c.Call(ctx, dir, ActionUploadSync, UploadRequest(wsa.EndpointReference{}, "", files))
	return err
}

// TestDestroyFreesManifestAndUnpinnedBlobs: destroying a directory
// resource gives back everything it allocated — the directory, its
// manifest, and each blob no other directory names — except blobs this
// FSS announced on the replica topic, which the replicator's journal
// counts on.
func TestDestroyFreesManifestAndUnpinnedBlobs(t *testing.T) {
	ctx := context.Background()
	twice, once := bytes.Repeat([]byte("staged under two names "), 100), []byte("staged once")

	// setup builds a source machine holding a, b (same content) and c, and
	// a staging machine, which announces what it stages iff announce.
	setup := func(t *testing.T, announce bool) (h *fssHarness, refs []FileRef) {
		h = newFSSHarness(t)
		if announce {
			sink := soap.NewDispatcher()
			sink.Register(wsn.ActionNotify, func(context.Context, *soap.Envelope) (*soap.Envelope, error) { return nil, nil })
			mux := soap.NewMux()
			mux.Handle("/NotificationBroker", sink)
			h.network.Register("broker", transport.NewServer(mux))
			h.fssB.broker = wsa.NewEPR("inproc://broker/NotificationBroker")
		}
		src, err := CreateDirectoryVia(ctx, h.client, h.fssA.EPR(), "src")
		if err != nil {
			t.Fatal(err)
		}
		for name, content := range map[string][]byte{"a": twice, "b": twice, "c": once} {
			if err := WriteFile(ctx, h.client, src, name, content); err != nil {
				t.Fatal(err)
			}
			refs = append(refs, FileRef{Source: src, RemoteName: name})
		}
		return h, refs
	}

	for _, tc := range []struct {
		name     string
		announce bool
	}{{"unannounced", false}, {"announced", true}} {
		t.Run(tc.name, func(t *testing.T) {
			h, refs := setup(t, tc.announce)
			files0, bytes0 := h.fsB.Usage()
			blobs0 := h.fssB.BlobCount()
			dir, path, err := h.fssB.CreateDirectory("work")
			if err != nil {
				t.Fatal(err)
			}
			if err := stageSync(ctx, h.client, dir, refs...); err != nil {
				t.Fatal(err)
			}
			if n := len(h.fssB.DirManifest(path).Entries); n != 3 || h.fssB.BlobCount() != blobs0+2 {
				t.Fatalf("staged: %d manifest entries, %d blobs", n, h.fssB.BlobCount())
			}
			if tc.announce && h.fssB.StageStats().Publishes != 1 {
				t.Fatal("the staging was not announced")
			}
			if err := wsrf.NewResourceClient(h.client, dir).Destroy(ctx); err != nil {
				t.Fatal(err)
			}
			if m := h.fssB.DirManifest(path); len(m.Entries) != 0 {
				t.Fatalf("the destroyed directory's manifest survived: %+v", m)
			}
			if files, n := h.fsB.Usage(); files != files0 || n != bytes0 {
				t.Fatalf("usage %d files %d bytes, started at %d and %d", files, n, files0, bytes0)
			}
			want := blobs0
			if tc.announce {
				want += 2 // told the replicator: still a holder
			}
			if got := h.fssB.BlobCount(); got != want {
				t.Fatalf("%d blobs after Destroy, want %d", got, want)
			}
			if tc.announce {
				if c, err := FetchBlob(ctx, h.client, h.fssB.EPR(), HashBytes(twice)); err != nil || !bytes.Equal(c.Bytes(), twice) {
					t.Fatalf("an announced blob is no longer served: %v", err)
				}
			}
		})
	}

	t.Run("second-directory-keeps-content", func(t *testing.T) {
		h, refs := setup(t, false)
		first, _, err := h.fssB.CreateDirectory("first")
		if err != nil {
			t.Fatal(err)
		}
		if err := stageSync(ctx, h.client, first, refs...); err != nil {
			t.Fatal(err)
		}
		second, secondPath, err := h.fssB.CreateDirectory("second")
		if err != nil {
			t.Fatal(err)
		}
		if err := stageSync(ctx, h.client, second, FileRef{Source: refs[0].Source, RemoteName: "a", LocalName: "kept"}); err != nil {
			t.Fatal(err)
		}
		if err := wsrf.NewResourceClient(h.client, first).Destroy(ctx); err != nil {
			t.Fatal(err)
		}
		got, err := FetchFile(ctx, h.client, second, "kept")
		if err != nil || !bytes.Equal(got, twice) {
			t.Fatalf("the second directory's file after the first was destroyed: %d bytes, %v", len(got), err)
		}
		if !h.fssB.HasBlob(HashBytes(twice)) || h.fssB.HasBlob(HashBytes(once)) || h.fssB.BlobCount() != 1 {
			t.Fatalf("blobs after Destroy: %d held; want only the one the second directory names", h.fssB.BlobCount())
		}
		// The index and the directory still share it.
		c, _ := h.fsB.Open(secondPath, "kept")
		if held, _ := h.fssB.blob(HashBytes(twice)); held != c {
			t.Fatal("the surviving directory entry and the blob index hold different Contents")
		}
	})
}

// TestLocalRouteSharesStorage: a file already on the machine is linked,
// not copied — the staged entries and their source are one Content (so
// one array, and hashed once however many names it is staged under), and
// staging 4 MiB allocates what staging 4 KiB does.
func TestLocalRouteSharesStorage(t *testing.T) {
	h := newFSSHarness(t)
	ctx := context.Background()
	const size = 4 << 20
	src, srcPath, err := h.fssA.CreateDirectory("src")
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(ctx, h.client, src, "payload.bin", make([]byte, size)); err != nil {
		t.Fatal(err)
	}
	source, err := h.fsA.Open(srcPath, "payload.bin")
	if err != nil {
		t.Fatal(err)
	}
	stageLocal := func(localName string) string {
		dst, dstPath, err := h.fssA.CreateDirectory("dst")
		if err != nil {
			t.Fatal(err)
		}
		if err := stageSync(ctx, h.client, dst, FileRef{Source: src, RemoteName: "payload.bin", LocalName: localName}); err != nil {
			t.Fatal(err)
		}
		return dstPath
	}
	for _, name := range []string{"one", "two"} {
		staged, err := h.fsA.Open(stageLocal(name), name)
		if err != nil {
			t.Fatal(err)
		}
		if staged != source || &staged.Bytes()[0] != &source.Bytes()[0] {
			t.Fatalf("%s: the local route staged a different Content than its source holds", name)
		}
	}
	if st := h.fssA.StageStats(); st.LocalCopies != 2 || st.LocalBytes != 2*size {
		t.Fatalf("stage stats: %+v", st)
	}
	if h.fssA.BlobCount() != 1 {
		t.Fatalf("%d blobs for one content", h.fssA.BlobCount())
	}

	const rounds = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		stageLocal("again")
	}
	runtime.ReadMemStats(&after)
	// A CreateDirectory plus an UploadSync exchange cost about 18 KiB of
	// envelopes whatever the file's size; one copy of it would be 4 MiB.
	if perOp := (after.TotalAlloc - before.TotalAlloc) / rounds; perOp > 128<<10 {
		t.Fatalf("a local staging of %d bytes allocates %d bytes", size, perOp)
	}
}

// TestMismatchedHashRefusedOnEveryRoute: sharing bytes removed no check.
// An annotated content hash that the bytes do not match stops the
// staging on the blob, local, pull and wire routes, before anything is
// installed, recorded or made addressable.
func TestMismatchedHashRefusedOnEveryRoute(t *testing.T) {
	h := newFSSHarness(t)
	ctx := context.Background()
	content := bytes.Repeat([]byte("the real bytes "), 64)
	stale := HashBytes([]byte("what the file held when the scheduler looked"))

	// A peer that answers any ReadBlob with the wrong bytes.
	liar := soap.NewDispatcher()
	liar.Register(ActionReadBlob, func(ctx context.Context, req *soap.Envelope) (*soap.Envelope, error) {
		resp := &soap.Envelope{}
		resp.Body = xmlutil.NewContainer(qReadBlobResponse,
			xmlutil.NewElement(qHash, req.Body.ChildText(qHash)),
			xmlutil.NewContainer(qContent, resp.Attach([]byte("not the blob you asked for"))))
		return resp, nil
	})
	liarMux := soap.NewMux()
	liarMux.Handle("/FileSystemService", liar)
	h.network.Register("liar", transport.NewServer(liarMux))
	liarEPR := wsa.NewEPR("inproc://liar/FileSystemService")

	remote, err := CreateDirectoryVia(ctx, h.client, h.fssB.EPR(), "remote")
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(ctx, h.client, remote, "f", content); err != nil {
		t.Fatal(err)
	}
	// A process's output on machine A: in a directory, in no manifest.
	local, localPath, err := h.fssA.CreateDirectory("out")
	if err != nil {
		t.Fatal(err)
	}
	if err := h.fsA.Write(localPath, "f", bytes.Clone(content)); err != nil {
		t.Fatal(err)
	}
	dead := wsa.NewEPR("inproc://ghost/files")
	// The blob route finds its content by the annotated hash, so only a
	// damaged index can mismatch there; plant one.
	planted := HashBytes([]byte("planted"))
	h.fssA.blobs[planted] = &heldBlob{content: vfs.NewContent(bytes.Clone(content))}

	dst, dstPath, err := h.fssA.CreateDirectory("work")
	if err != nil {
		t.Fatal(err)
	}
	blobs0 := h.fssA.BlobCount()
	for _, tc := range []struct {
		route string
		ref   FileRef
	}{
		{RouteBlob, FileRef{Source: dead, RemoteName: "f", Hash: planted}},
		{RouteLocal, FileRef{Source: local, RemoteName: "f", Hash: stale}},
		{RoutePull, FileRef{Source: dead, RemoteName: "f", Hash: HashBytes(content), Replicas: []wsa.EndpointReference{liarEPR}}},
		{RouteWire, FileRef{Source: remote, RemoteName: "f", Hash: stale}},
	} {
		err := stageSync(ctx, h.client, dst, tc.ref)
		if err == nil {
			t.Fatalf("%s route: a staging whose bytes do not match the annotated hash succeeded", tc.route)
		}
		// The pull route refuses inside FetchBlob and goes on to the
		// (dead) origin; the others refuse at install.
		if tc.route != RoutePull && !strings.Contains(err.Error(), "do not match content hash") {
			t.Fatalf("%s route: %v", tc.route, err)
		}
		if h.fsA.Exists(dstPath, "f") || len(h.fssA.DirManifest(dstPath).Entries) != 0 || h.fssA.BlobCount() != blobs0 {
			t.Fatalf("%s route: the refused staging left something behind", tc.route)
		}
	}
	if st := h.fssA.StageStats(); st != (StageStats{}) {
		t.Fatalf("refused stagings were counted: %+v", st)
	}

	// With a live origin, a corrupt replica costs a fallback, not the file.
	good := FileRef{Source: remote, RemoteName: "f", Hash: HashBytes(content), Replicas: []wsa.EndpointReference{liarEPR}}
	if err := stageSync(ctx, h.client, dst, good); err != nil {
		t.Fatal(err)
	}
	if st := h.fssA.StageStats(); st.PullThroughs != 0 || st.WireFetches != 1 {
		t.Fatalf("after a corrupt replica: %+v", st)
	}
	if got, _ := h.fsA.Read(dstPath, "f"); !bytes.Equal(got, content) {
		t.Fatal("the origin's bytes were not installed")
	}
}

// TestSharedContentUnderConcurrentUse is the immutability contract under
// the race detector. One file is, all at once: read over the wire by
// several readers; re-staged back and forth between two versions; staged
// onward by the local route into directories that are then destroyed
// (each Destroy sweeping the blob index); and consumed by a job's
// `transform` and `append`. Every reader sees one complete version, a
// directory that linked the first version keeps exactly that, and every
// output a job derived is derived from one complete version.
func TestSharedContentUnderConcurrentUse(t *testing.T) {
	h := newFSSHarness(t)
	ctx := context.Background()
	versions := [][]byte{bytes.Repeat([]byte("1"), 48<<10), bytes.Repeat([]byte("22"), 40<<10)}
	isVersion := func(b []byte) bool { return bytes.Equal(b, versions[0]) || bytes.Equal(b, versions[1]) }

	origin, err := CreateDirectoryVia(ctx, h.client, h.fssB.EPR(), "origin")
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range []string{"v0", "v1"} {
		if err := WriteFile(ctx, h.client, origin, name, versions[i]); err != nil {
			t.Fatal(err)
		}
	}
	work, workPath, err := h.fssA.CreateDirectory("work")
	if err != nil {
		t.Fatal(err)
	}
	restage := func(i int) error {
		return stageSync(ctx, h.client, work, FileRef{Source: origin, RemoteName: []string{"v0", "v1"}[i%2], LocalName: "data"})
	}
	if err := restage(0); err != nil {
		t.Fatal(err)
	}
	// keep links the first version and must go on holding exactly it.
	keep, _, err := h.fssA.CreateDirectory("keep")
	if err != nil {
		t.Fatal(err)
	}
	if err := stageSync(ctx, h.client, keep, FileRef{Source: work, RemoteName: "data"}); err != nil {
		t.Fatal(err)
	}
	sp, err := procspawn.NewSpawner(procspawn.Config{FS: h.fsA, Cores: 2, SpeedMHz: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.fsA.Write(workPath, "app", procspawn.BuildScript("transform data copy.out copy", "transform data rev.out reverse", "append log data", "exit 0")); err != nil {
		t.Fatal(err)
	}

	// Every actor loops until all of them have had several turns beside
	// the re-staging below.
	const turns = 3
	done := make(chan struct{})
	var wg sync.WaitGroup
	var laps []*atomic.Int64
	background := func(f func() error) {
		lap := new(atomic.Int64)
		laps = append(laps, lap)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if err := f(); err != nil {
					t.Error(err)
					lap.Store(turns) // do not hold the others up
					return
				}
				lap.Add(1)
			}
		}()
	}
	for i := 0; i < 3; i++ {
		background(func() error {
			got, err := FetchFile(ctx, h.client, work, "data")
			if err == nil && !isVersion(got) {
				t.Errorf("torn read of the re-staged file: %d bytes", len(got))
			}
			return err
		})
	}
	background(func() error {
		got, err := FetchFile(ctx, h.client, keep, "data")
		if err == nil && !bytes.Equal(got, versions[0]) {
			t.Errorf("the linked first version changed under its directory: %d bytes", len(got))
		}
		return err
	})
	background(func() error {
		onward, _, err := h.fssA.CreateDirectory("onward")
		if err != nil {
			return err
		}
		if err := stageSync(ctx, h.client, onward, FileRef{Source: work, RemoteName: "data"}); err != nil {
			return err
		}
		got, err := FetchFile(ctx, h.client, onward, "data")
		if err == nil && !isVersion(got) {
			t.Errorf("torn read of an onward staging: %d bytes", len(got))
		}
		if err != nil {
			return err
		}
		return wsrf.NewResourceClient(h.client, onward).Destroy(ctx)
	})
	background(func() error {
		p, err := sp.Spawn(procspawn.SpawnSpec{Executable: "app", WorkingDir: workPath})
		if err != nil {
			return err
		}
		waitCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
		defer cancel()
		_, err = p.Wait(waitCtx)
		return err
	})
	everyoneHadTurns := func() bool {
		for _, lap := range laps {
			if lap.Load() < turns {
				return false
			}
		}
		return true
	}
	for i := 1; i <= 30 || !everyoneHadTurns(); i++ {
		if err := restage(i); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()

	if got, _ := h.fsA.Read(workPath, "copy.out"); !isVersion(got) {
		t.Errorf("copy.out is no complete version: %d bytes", len(got))
	}
	// Both versions are palindromes, so a whole reverse is a version too.
	if got, _ := h.fsA.Read(workPath, "rev.out"); !isVersion(got) {
		t.Errorf("rev.out is not the reverse of a complete version: %d bytes", len(got))
	}
	log, _ := h.fsA.Read(workPath, "log")
	for len(log) > 0 {
		v := versions[0]
		if log[0] == '2' {
			v = versions[1]
		}
		if !bytes.HasPrefix(log, v) {
			t.Fatalf("the appended log is not a run of complete versions (%d bytes left)", len(log))
		}
		log = log[len(v):]
	}
	if !h.fssA.HasBlob(HashBytes(versions[0])) {
		t.Error("a Destroy swept the blob a live directory names")
	}
	for _, d := range h.fsA.Dirs() {
		if strings.Contains(d, "onward") {
			t.Errorf("destroyed directory %s survived", d)
		}
	}
	h.fssA.mu.Lock()
	defer h.fssA.mu.Unlock()
	if len(h.fssA.manifests) != 2 {
		t.Errorf("%d manifests left, want those of work and keep", len(h.fssA.manifests))
	}
}
