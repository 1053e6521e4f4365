package vfs

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
)

func TestCleanPath(t *testing.T) {
	good := map[string]string{
		"/":     "/",
		"/a":    "/a",
		"a":     "/a",
		"/a/b/": "/a/b",
		"a/b/c": "/a/b/c",
	}
	for in, want := range good {
		got, err := CleanPath(in)
		if err != nil || got != want {
			t.Errorf("CleanPath(%q) = %q, %v; want %q", in, got, err, want)
		}
	}
	for _, bad := range []string{"", "/a//b", "/a/./b", "/a/../b"} {
		if _, err := CleanPath(bad); err == nil {
			t.Errorf("CleanPath(%q): expected error", bad)
		}
	}
}

func TestMkdirCreatesParents(t *testing.T) {
	fs := New()
	path, err := fs.Mkdir("/grid/jobs/j1")
	if err != nil {
		t.Fatal(err)
	}
	if path != "/grid/jobs/j1" {
		t.Fatalf("path = %q", path)
	}
	for _, d := range []string{"/grid", "/grid/jobs", "/grid/jobs/j1"} {
		if !fs.DirExists(d) {
			t.Errorf("missing parent %q", d)
		}
	}
	// Idempotent.
	if _, err := fs.Mkdir("/grid/jobs/j1"); err != nil {
		t.Fatal(err)
	}
}

func TestMkdirUnique(t *testing.T) {
	fs := New()
	seen := make(map[string]bool)
	for i := 0; i < 20; i++ {
		d, err := fs.MkdirUnique("/grid", "job")
		if err != nil {
			t.Fatal(err)
		}
		if seen[d] {
			t.Fatalf("duplicate unique dir %q", d)
		}
		seen[d] = true
		if !fs.DirExists(d) {
			t.Fatalf("unique dir %q not created", d)
		}
	}
}

func TestWriteReadList(t *testing.T) {
	fs := New()
	if _, err := fs.Mkdir("/work"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Write("/work", "in.dat", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Write("/work", "app.exe", []byte{0x4d, 0x5a}); err != nil {
		t.Fatal(err)
	}
	data, err := fs.Read("/work", "in.dat")
	if err != nil || string(data) != "hello" {
		t.Fatalf("read: %q %v", data, err)
	}
	list, err := fs.List("/work")
	if err != nil {
		t.Fatal(err)
	}
	want := []FileInfo{{Name: "app.exe", Size: 2}, {Name: "in.dat", Size: 5}}
	if !reflect.DeepEqual(list, want) {
		t.Fatalf("list = %v", list)
	}
	if !fs.Exists("/work", "in.dat") || fs.Exists("/work", "nope") {
		t.Error("Exists misreports")
	}
}

// TestReadSharesStoredBytes: Read hands out the stored slice (two reads,
// one backing array), and replacing the file installs a new Content — a
// slice read earlier still holds the complete old bytes.
func TestReadSharesStoredBytes(t *testing.T) {
	fs := New()
	fs.Mkdir("/d")
	if err := fs.Write("/d", "f", []byte("abc")); err != nil {
		t.Fatal(err)
	}
	first, _ := fs.Read("/d", "f")
	again, _ := fs.Read("/d", "f")
	if &first[0] != &again[0] {
		t.Fatal("two reads of one file returned different backing arrays: Read copies")
	}
	if err := fs.Write("/d", "f", []byte("xyz!")); err != nil {
		t.Fatal(err)
	}
	if string(first) != "abc" {
		t.Fatalf("replacing the file changed bytes a reader already held: %q", first)
	}
	if now, _ := fs.Read("/d", "f"); string(now) != "xyz!" {
		t.Fatalf("after replace: %q", now)
	}
}

// TestWriteTakesOwnership: Write stores the slice it is given, and Link
// makes one Content a file in two directories — same array, hashed once,
// and removing one directory leaves the other's file whole.
func TestWriteTakesOwnership(t *testing.T) {
	fs := New()
	fs.Mkdir("/a")
	fs.Mkdir("/b")
	buf := []byte("abc")
	if err := fs.Write("/a", "f", buf); err != nil {
		t.Fatal(err)
	}
	got, _ := fs.Read("/a", "f")
	if &got[0] != &buf[0] {
		t.Fatal("Write copied the slice it was given")
	}
	c, err := fs.Open("/a", "f")
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Link("/b", "g", c); err != nil {
		t.Fatal(err)
	}
	linked, _ := fs.Open("/b", "g")
	if linked != c || &linked.Bytes()[0] != &buf[0] {
		t.Fatal("Link did not share the Content")
	}
	const abc = "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
	if c.Hash() != abc || linked.Hash() != abc || c.Len() != 3 {
		t.Fatalf("hash %s len %d", c.Hash(), c.Len())
	}
	if files, n := fs.Usage(); files != 2 || n != 6 {
		t.Fatalf("usage = %d files %d bytes, want each entry counted", files, n)
	}
	if err := fs.RemoveDir("/a"); err != nil {
		t.Fatal(err)
	}
	if got, err := fs.Read("/b", "g"); err != nil || string(got) != "abc" {
		t.Fatalf("linked file after its source directory went: %q %v", got, err)
	}
	if err := fs.Link("/ghost", "f", c); err == nil {
		t.Error("link into a missing directory accepted")
	}
	if _, err := fs.Open("/b", "ghost"); err == nil {
		t.Error("open of a missing file accepted")
	}
}

// TestReplaceUnderReadersNeverTorn is the immutability contract under the
// race detector: while one file is replaced over and over and linked on
// into a second directory, readers of either entry (and of the hash) see
// one complete version, never a mix.
func TestReplaceUnderReadersNeverTorn(t *testing.T) {
	fs := New()
	fs.Mkdir("/src")
	fs.Mkdir("/dst")
	versions := [][]byte{bytes.Repeat([]byte("one "), 2048), bytes.Repeat([]byte("2"), 5000)}
	hashes := []string{NewContent(versions[0]).Hash(), NewContent(versions[1]).Hash()}
	write := func(i int) {
		// A fresh slice per write, as every product caller hands over.
		if err := fs.Write("/src", "f", append([]byte(nil), versions[i%2]...)); err != nil {
			t.Error(err)
		}
	}
	write(0)
	c, _ := fs.Open("/src", "f")
	fs.Link("/dst", "f", c)

	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(dir string) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				c, err := fs.Open(dir, "f")
				if err != nil {
					t.Error(err)
					return
				}
				v := 0
				if !bytes.Equal(c.Bytes(), versions[0]) {
					v = 1
				}
				if !bytes.Equal(c.Bytes(), versions[v]) || c.Hash() != hashes[v] {
					t.Errorf("%s: torn read (%d bytes, hash %s)", dir, c.Len(), c.Hash())
					return
				}
			}
		}([]string{"/src", "/dst"}[r%2])
	}
	for i := 1; i <= 200; i++ {
		write(i)
		c, err := fs.Open("/src", "f")
		if err != nil {
			t.Fatal(err)
		}
		if err := fs.Link("/dst", "f", c); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
}

func TestErrorsOnMissing(t *testing.T) {
	fs := New()
	if err := fs.Write("/ghost", "f", nil); err == nil {
		t.Error("write to missing dir accepted")
	}
	if _, err := fs.Read("/", "ghost"); err == nil {
		t.Error("read of missing file accepted")
	}
	if _, err := fs.List("/ghost"); err == nil {
		t.Error("list of missing dir accepted")
	}
	if err := fs.Write("/", "bad/name", nil); err == nil {
		t.Error("slash in file name accepted")
	}
	if err := fs.Write("/", "", nil); err == nil {
		t.Error("empty file name accepted")
	}
}

func TestRemoveDirRecursive(t *testing.T) {
	fs := New()
	fs.Mkdir("/jobs/j1/sub")
	fs.Write("/jobs/j1", "f", []byte("x"))
	if err := fs.RemoveDir("/jobs/j1"); err != nil {
		t.Fatal(err)
	}
	if fs.DirExists("/jobs/j1") || fs.DirExists("/jobs/j1/sub") {
		t.Error("directory tree survived removal")
	}
	if !fs.DirExists("/jobs") {
		t.Error("parent removed")
	}
	if err := fs.RemoveDir("/"); err == nil {
		t.Error("root removal accepted")
	}
	if err := fs.RemoveDir("/ghost"); err == nil {
		t.Error("missing dir removal accepted")
	}
}

func TestUsage(t *testing.T) {
	fs := New()
	fs.Mkdir("/a")
	fs.Write("/a", "f1", make([]byte, 100))
	fs.Write("/a", "f2", make([]byte, 50))
	files, byteCount := fs.Usage()
	if files != 2 || byteCount != 150 {
		t.Fatalf("usage = %d files %d bytes", files, byteCount)
	}
}

func TestDirs(t *testing.T) {
	fs := New()
	fs.Mkdir("/b")
	fs.Mkdir("/a")
	got := fs.Dirs()
	if !reflect.DeepEqual(got, []string{"/", "/a", "/b"}) {
		t.Fatalf("Dirs = %v", got)
	}
}

// TestWriteReadRoundTripProperty: what is written is read back intact,
// for arbitrary content.
func TestWriteReadRoundTripProperty(t *testing.T) {
	fs := New()
	fs.Mkdir("/p")
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		data := make([]byte, r.Intn(4096))
		r.Read(data)
		name := fmt.Sprintf("f-%d", seed)
		if err := fs.Write("/p", name, data); err != nil {
			return false
		}
		got, err := fs.Read("/p", name)
		return err == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestConcurrentUse(t *testing.T) {
	fs := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			dir := fmt.Sprintf("/g%d", g)
			if _, err := fs.Mkdir(dir); err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < 50; i++ {
				name := fmt.Sprintf("f%d", i)
				if err := fs.Write(dir, name, []byte{byte(i)}); err != nil {
					t.Error(err)
					return
				}
				if _, err := fs.Read(dir, name); err != nil {
					t.Error(err)
					return
				}
				fs.Usage()
			}
		}(g)
	}
	wg.Wait()
	files, _ := fs.Usage()
	if files != 400 {
		t.Fatalf("files = %d", files)
	}
}
