package filesystem

// Tests of the shared-content store: one vfs.Content per file's bytes per
// machine, however many directory entries point at it.

import (
	"bytes"
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"uvacg/internal/procspawn"
	"uvacg/internal/transport"
	"uvacg/internal/wsa"
	"uvacg/internal/wsrf"
)

// stageSync stages files into dir with the blocking upload.
func stageSync(ctx context.Context, c *transport.Client, dir wsa.EndpointReference, files ...FileRef) error {
	_, err := c.Call(ctx, dir, ActionUploadSync, UploadRequest(wsa.EndpointReference{}, "", files))
	return err
}

// TestDestroyFreesDirectoryBytes: destroying a directory resource gives
// back the bytes staged into it — the file system's usage returns to where
// it started — and content also linked into a second directory survives
// there, still the one Content.
func TestDestroyFreesDirectoryBytes(t *testing.T) {
	ctx := context.Background()
	twice, once := bytes.Repeat([]byte("staged under two names "), 100), []byte("staged once")

	// setup builds a source machine holding a, b (same content) and c, and
	// a staging machine.
	setup := func(t *testing.T) (h *fssHarness, refs []FileRef) {
		h = newFSSHarness(t)
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

	t.Run("usage-returns-to-start", func(t *testing.T) {
		h, refs := setup(t)
		files0, bytes0 := h.fsB.Usage()
		dir, path, err := h.fssB.CreateDirectory("work")
		if err != nil {
			t.Fatal(err)
		}
		if err := stageSync(ctx, h.client, dir, refs...); err != nil {
			t.Fatal(err)
		}
		if files, n := h.fsB.Usage(); files != files0+3 || n != bytes0+int64(2*len(twice)+len(once)) {
			t.Fatalf("staged: usage %d files %d bytes, from %d and %d", files, n, files0, bytes0)
		}
		if err := wsrf.NewResourceClient(h.client, dir).Destroy(ctx); err != nil {
			t.Fatal(err)
		}
		if dirExists(h.fsB, path) {
			t.Fatal("the destroyed directory survived")
		}
		if files, n := h.fsB.Usage(); files != files0 || n != bytes0 {
			t.Fatalf("usage %d files %d bytes, started at %d and %d", files, n, files0, bytes0)
		}
	})

	t.Run("second-directory-keeps-content", func(t *testing.T) {
		h, refs := setup(t)
		first, firstPath, err := h.fssB.CreateDirectory("first")
		if err != nil {
			t.Fatal(err)
		}
		if err := stageSync(ctx, h.client, first, refs...); err != nil {
			t.Fatal(err)
		}
		staged, err := h.fsB.Open(firstPath, "a")
		if err != nil {
			t.Fatal(err)
		}
		// The second directory links the first's Content by the local route.
		second, secondPath, err := h.fssB.CreateDirectory("second")
		if err != nil {
			t.Fatal(err)
		}
		if err := stageSync(ctx, h.client, second, FileRef{Source: first, RemoteName: "a", LocalName: "kept"}); err != nil {
			t.Fatal(err)
		}
		if err := wsrf.NewResourceClient(h.client, first).Destroy(ctx); err != nil {
			t.Fatal(err)
		}
		got, err := FetchFile(ctx, h.client, second, "kept")
		if err != nil || !bytes.Equal(got, twice) {
			t.Fatalf("the second directory's file after the first was destroyed: %d bytes, %v", len(got), err)
		}
		if kept, _ := h.fsB.Open(secondPath, "kept"); kept != staged {
			t.Fatal("the surviving directory entry is not the Content the first directory staged")
		}
		if files, n := h.fsB.Usage(); files != 1 || n != int64(len(twice)) {
			t.Fatalf("usage after Destroy: %d files %d bytes, want only the second directory's file", files, n)
		}
	})
}

// TestLocalRouteSharesStorage: a file already on the machine is linked,
// not copied — the staged entries and their source are one Content (so
// one array however many names it is staged under), and staging 4 MiB
// allocates what staging 4 KiB does.
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

// TestSharedContentUnderConcurrentUse is the immutability contract under
// the race detector. One file is, all at once: read over the wire by
// several readers; re-staged back and forth between two versions; staged
// onward by the local route into directories that are then destroyed;
// and consumed by a job's
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
	var onwards []string // this actor's alone until wg.Wait
	background(func() error {
		onward, path, err := h.fssA.CreateDirectory("onward")
		if err != nil {
			return err
		}
		onwards = append(onwards, path)
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
		for {
			if _, exited := p.ExitCode(); exited {
				return nil
			}
			select {
			case <-waitCtx.Done():
				return waitCtx.Err()
			case <-time.After(time.Millisecond):
			}
		}
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
	for _, d := range onwards {
		if dirExists(h.fsA, d) {
			t.Errorf("destroyed directory %s survived", d)
		}
	}
}
