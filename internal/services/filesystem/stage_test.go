package filesystem

// Tests of how one Upload stages a job's files: all at once, each fetch
// linking its own file, at most maxFetches in flight, and the verdict
// taken in request order.

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"uvacg/internal/soap"
	"uvacg/internal/transport"
	"uvacg/internal/wsa"
)

// heldSource registers a file source on the harness's network whose Read
// runs hold first and faults if hold fails. A file named "fail-*" is
// answered with a fault once hold returns; any other is served with its
// name as its content.
func (h *fssHarness) heldSource(host string, hold func(name string) error) wsa.EndpointReference {
	files := NewFileServer("/files")
	disp := soap.NewDispatcher()
	disp.Register(ActionRead, func(ctx context.Context, req *soap.Envelope) (*soap.Envelope, error) {
		name := req.Body.ChildText(qFilename)
		if err := hold(name); err != nil {
			return nil, soap.ReceiverFault("source: %s: %v", name, err)
		}
		if strings.HasPrefix(name, "fail-") {
			return nil, soap.SenderFault("source: %s is unreadable", name)
		}
		files.Publish(name, []byte(name))
		return files.handleRead(ctx, req)
	})
	mux := soap.NewMux()
	mux.Handle("/files", disp)
	h.network.Register(host, transport.NewServer(mux))
	return wsa.NewEPR("inproc://" + host + "/files")
}

// TestStagingFetchesAJobsFilesAtOnce: each of two sources holds its Read
// until the other's Read has arrived too. Fetched one after the other,
// the first Read would wait for a second that is never sent.
func TestStagingFetchesAJobsFilesAtOnce(t *testing.T) {
	h := newFSSHarness(t)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	var arrived atomic.Int32
	both := make(chan struct{})
	hold := func(string) error {
		if arrived.Add(1) == 2 {
			close(both)
		}
		select {
		case <-both:
			return nil
		case <-ctx.Done():
			return fmt.Errorf("the other Read never arrived")
		}
	}
	exe := h.heldSource("client", hold)
	input := h.heldSource("producer", hold)
	dir, path, err := h.fssB.CreateDirectory("work")
	if err != nil {
		t.Fatal(err)
	}
	err = stageSync(ctx, h.client, dir,
		FileRef{Source: exe, RemoteName: "job.app"},
		FileRef{Source: input, RemoteName: "out.dat", LocalName: "in.dat"})
	if err != nil {
		t.Fatalf("staging two files from two sources: %v", err)
	}
	for name, want := range map[string]string{"job.app": "job.app", "in.dat": "out.dat"} {
		if got, err := h.fsB.Read(path, name); err != nil || string(got) != want {
			t.Errorf("%s staged as %q, %v", name, got, err)
		}
	}
}

// TestStagingReportsTheFirstFailureInRequestOrder: the UploadComplete
// verdict names the earliest failing file of the request, whichever
// fetch ends first.
func TestStagingReportsTheFirstFailureInRequestOrder(t *testing.T) {
	cases := []struct {
		name  string
		files []string // in request order
		order []string // the order the sources answer in
	}{
		{"failure-answers-first", []string{"a", "fail-b", "c"}, []string{"fail-b", "a", "c"}},
		{"failure-answers-last", []string{"a", "fail-b", "c"}, []string{"a", "c", "fail-b"}},
		{"later-failure-answers-first", []string{"a", "fail-b", "fail-c"}, []string{"fail-c", "a", "fail-b"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := newFSSHarness(t)
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			arrived := make(chan string, len(tc.files))
			release := make(map[string]chan struct{})
			answered := make(map[string]chan struct{})
			for _, f := range tc.files {
				release[f], answered[f] = make(chan struct{}), make(chan struct{})
			}
			src := h.heldSource("src", func(name string) error {
				arrived <- name
				select {
				case <-release[name]:
					return nil
				case <-ctx.Done():
					return ctx.Err()
				}
			})
			// A file served is waited for until the FSS has linked it, so
			// a failure released before it has answered first.
			var staged sync.Map
			h.fssB.onStage = func(rec StageRecord) {
				if ch, ok := staged.Load(rec.File.RemoteName); ok {
					close(ch.(chan struct{}))
				}
			}
			var refs []FileRef
			for _, f := range tc.files {
				refs = append(refs, FileRef{Source: src, RemoteName: f})
				if !strings.HasPrefix(f, "fail-") {
					staged.Store(f, answered[f])
				}
			}
			dir, _, err := h.fssB.CreateDirectory("work")
			if err != nil {
				t.Fatal(err)
			}
			if err := h.client.Notify(ctx, dir, ActionUpload, UploadRequest(h.esEPR(), "tok", refs)); err != nil {
				t.Fatal(err)
			}
			for range tc.files {
				select {
				case <-arrived:
				case <-ctx.Done():
					t.Fatal("the fetches were not all in flight at once")
				}
			}
			for _, f := range tc.order {
				close(release[f])
				if !strings.HasPrefix(f, "fail-") {
					<-answered[f]
				}
			}
			done, err := ParseUploadComplete(h.waitUpload(t))
			if err != nil {
				t.Fatal(err)
			}
			if done.Success {
				t.Fatal("a failed staging reported success")
			}
			if want := `stage "fail-b"`; !strings.HasPrefix(done.Error, want) {
				t.Fatalf("verdict %q, want it to begin %q", done.Error, want)
			}
		})
	}
}

// TestStagingBoundsTheFetchesInFlight: a job naming more files than
// maxFetches never has more than maxFetches of them in flight, and does
// reach that many.
func TestStagingBoundsTheFetchesInFlight(t *testing.T) {
	h := newFSSHarness(t)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	var inFlight, most atomic.Int32
	var fullOnce sync.Once
	full := make(chan struct{})
	src := h.heldSource("src", func(string) error {
		n := inFlight.Add(1)
		defer inFlight.Add(-1)
		for m := most.Load(); n > m && !most.CompareAndSwap(m, n); m = most.Load() {
		}
		if n == maxFetches {
			// A fetch past the bound has a moment to show itself before
			// the held reads go; a bounded staging shows none however
			// long this is.
			fullOnce.Do(func() { time.AfterFunc(20*time.Millisecond, func() { close(full) }) })
		}
		select { // the first reads wait until the bound is reached
		case <-full:
			return nil
		case <-ctx.Done():
			return fmt.Errorf("%d fetches were never in flight at once", maxFetches)
		}
	})
	var refs []FileRef
	for i := range 3 * maxFetches {
		refs = append(refs, FileRef{Source: src, RemoteName: fmt.Sprintf("f%02d", i)})
	}
	dir, path, err := h.fssB.CreateDirectory("work")
	if err != nil {
		t.Fatal(err)
	}
	if err := stageSync(ctx, h.client, dir, refs...); err != nil {
		t.Fatal(err)
	}
	if got := most.Load(); got != maxFetches {
		t.Fatalf("at most %d fetches were in flight, want %d", got, maxFetches)
	}
	if infos, err := h.fsB.List(path); err != nil || len(infos) != len(refs) {
		t.Fatalf("the directory holds %d files, %v; want %d", len(infos), err, len(refs))
	}
}

// TestCollidingStagedNamesAreRefused: an Upload — like the ES's Run, which
// parses its files the same way — that stages two files under one local
// name is a Sender fault, whether the name is given or defaults to the
// remote one.
func TestCollidingStagedNamesAreRefused(t *testing.T) {
	h := newFSSHarness(t)
	ctx := context.Background()
	src, err := CreateDirectoryVia(ctx, h.client, h.fssA.EPR(), "src")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"x.app", "out.dat"} {
		if err := WriteFile(ctx, h.client, src, f, []byte(f)); err != nil {
			t.Fatal(err)
		}
	}
	cases := map[string][]FileRef{
		"input-named-as-the-executable": {
			{Source: src, RemoteName: "x.app"},
			{Source: src, RemoteName: "out.dat", LocalName: "x.app"},
		},
		"two-inputs-under-one-name": {
			{Source: src, RemoteName: "x.app", LocalName: "in"},
			{Source: src, RemoteName: "out.dat", LocalName: "in"},
		},
	}
	for name, refs := range cases {
		req := UploadRequest(wsa.EndpointReference{}, "", refs)
		if _, err := ParseFileRefElements(req); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%q", refs[1].LocalName)) {
			t.Errorf("%s: parsed, %v", name, err)
		}
		dir, path, err := h.fssB.CreateDirectory("work")
		if err != nil {
			t.Fatal(err)
		}
		_, err = h.client.Call(ctx, dir, ActionUploadSync, req)
		if f, ok := soap.AsFault(err); !ok || f.Code != soap.CodeSender {
			t.Errorf("%s: Upload answered %v, want a Sender fault", name, err)
		}
		if infos, _ := h.fsB.List(path); len(infos) != 0 {
			t.Errorf("%s: a refused Upload staged %d file(s)", name, len(infos))
		}
	}
}
